type change =
  | Appeared
  | Disappeared
  | Regressed of float
  | Improved of float
  | Stable

type entry = {
  tuple : Tuple.t;
  before : Mining.pattern option;
  after : Mining.pattern option;
  change : change;
}

module Tuple_table = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let severity = function
  | Regressed f -> (0, -.f)
  | Appeared -> (1, 0.0)
  | Disappeared -> (2, 0.0)
  | Improved f -> (3, -.f)
  | Stable -> (4, 0.0)

let compare_patterns ?(threshold = 1.5) ?(min_support = 1) ~before ~after () =
  let supported (p : Mining.pattern) = p.Mining.count >= min_support in
  let old_table : Mining.pattern Tuple_table.t = Tuple_table.create 64 in
  List.iter
    (fun (p : Mining.pattern) -> Tuple_table.replace old_table p.Mining.tuple p)
    before;
  let seen : unit Tuple_table.t = Tuple_table.create 64 in
  let entries = ref [] in
  List.iter
    (fun (p : Mining.pattern) ->
      Tuple_table.replace seen p.Mining.tuple ();
      let entry =
        match Tuple_table.find_opt old_table p.Mining.tuple with
        | None ->
          (* The claim "this behaviour appeared" rests on the new run's
             support; below the floor it stays Stable (present, but no
             alarm). *)
          let change = if supported p then Appeared else Stable in
          { tuple = p.Mining.tuple; before = None; after = Some p; change }
        | Some old ->
          let ratio =
            Dputil.Stats.ratio (Mining.avg_cost p) (Mining.avg_cost old)
          in
          let change =
            if ratio > threshold then
              if supported p then Regressed ratio else Stable
            else if ratio > 0.0 && 1.0 /. ratio > threshold then
              if supported p then Improved (1.0 /. ratio) else Stable
            else Stable
          in
          { tuple = p.Mining.tuple; before = Some old; after = Some p; change }
      in
      entries := entry :: !entries)
    after;
  List.iter
    (fun (p : Mining.pattern) ->
      if not (Tuple_table.mem seen p.Mining.tuple) then
        entries :=
          {
            tuple = p.Mining.tuple;
            before = Some p;
            after = None;
            change = (if supported p then Disappeared else Stable);
          }
          :: !entries)
    before;
  List.sort
    (fun a b ->
      match compare (severity a.change) (severity b.change) with
      | 0 -> Tuple.compare a.tuple b.tuple
      | c -> c)
    !entries

let fixed entries =
  List.filter
    (fun e -> match e.change with Disappeared | Improved _ -> true | _ -> false)
    entries

let summary entries =
  let count p = List.length (List.filter p entries) in
  Printf.sprintf "+%d appeared, %d regressed, %d fixed, %d improved, %d stable"
    (count (fun e -> e.change = Appeared))
    (count (fun e -> match e.change with Regressed _ -> true | _ -> false))
    (count (fun e -> e.change = Disappeared))
    (count (fun e -> match e.change with Improved _ -> true | _ -> false))
    (count (fun e -> e.change = Stable))

let pp_entry fmt e =
  let describe =
    match e.change with
    | Appeared -> "APPEARED"
    | Disappeared -> "FIXED (gone)"
    | Regressed f -> Printf.sprintf "REGRESSED %.1fx" f
    | Improved f -> Printf.sprintf "improved %.1fx" f
    | Stable -> "stable"
  in
  Format.fprintf fmt "%-16s %s" describe (Tuple.to_string e.tuple)

(* --- machine-readable twin (shared with the monitor's alert log) --- *)

module J = Dputil.Jsonw

let change_kind = function
  | Appeared -> "appeared"
  | Disappeared -> "disappeared"
  | Regressed _ -> "regressed"
  | Improved _ -> "improved"
  | Stable -> "stable"

let json_tuple (t : Tuple.t) =
  let names part =
    J.Arr
      (List.map
         (fun s -> J.str (Dptrace.Signature.name s))
         (Array.to_list part))
  in
  J.Obj
    [
      ("waits", names t.Tuple.waits);
      ("unwaits", names t.Tuple.unwaits);
      ("runnings", names t.Tuple.runnings);
    ]

let json_side = function
  | None -> J.Null
  | Some (p : Mining.pattern) ->
    J.Obj
      [
        ("cost", J.time p.Mining.cost);
        ("count", J.int p.Mining.count);
        ("avg_cost_us", J.float (Mining.avg_cost p));
        ("max_single", J.time p.Mining.max_single);
      ]

let json_entry e =
  let factor =
    match e.change with
    | Regressed f | Improved f -> J.float f
    | Appeared | Disappeared | Stable -> J.Null
  in
  J.Obj
    [
      ("tuple", json_tuple e.tuple);
      ("change", J.str (change_kind e.change));
      ("factor", factor);
      ("before", json_side e.before);
      ("after", json_side e.after);
    ]

let json_summary entries =
  let count p = List.length (List.filter p entries) in
  J.Obj
    [
      ("appeared", J.int (count (fun e -> e.change = Appeared)));
      ( "regressed",
        J.int
          (count (fun e -> match e.change with Regressed _ -> true | _ -> false))
      );
      ("disappeared", J.int (count (fun e -> e.change = Disappeared)));
      ( "improved",
        J.int
          (count (fun e -> match e.change with Improved _ -> true | _ -> false))
      );
      ("stable", J.int (count (fun e -> e.change = Stable)));
    ]

let json_document ~scenario ~threshold ~min_support entries =
  J.Obj
    [
      ("tool", J.str "driveperf");
      ("kind", J.str "diff");
      ("scenario", J.str scenario);
      ("threshold", J.float threshold);
      ("min_support", J.int min_support);
      ("summary", json_summary entries);
      ("entries", J.Arr (List.map json_entry entries));
    ]
