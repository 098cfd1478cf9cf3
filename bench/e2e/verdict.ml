(* Summaries, the metric registry in BENCHMARK.json, and the verdict
   rule [--compare] applies. *)

module Jsonw = Dputil.Jsonw

let median xs = Dputil.Stats.median (Array.of_list xs)

(* First and third quartile as Python's statistics.quantiles(xs, n=4)
   computes them (the "exclusive" method); a single sample is its own
   quartiles. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* --- BENCHMARK.json --- *)

type metric = {
  name : string;
  unit_ : string;
  lower_better : bool;
  bound : float option;  (** Allowed worsening as a share of the base median. *)
}

type spec = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let load_spec path =
  let j = Jsonr.of_file path in
  let str k v = Option.bind (Jsonr.member k v) Jsonr.to_string in
  let metrics k =
    Option.fold ~none:[] ~some:Jsonr.to_list (Jsonr.member k j)
    |> List.map (fun m ->
           {
             name = Option.get (str "name" m);
             unit_ = Option.get (str "unit" m);
             lower_better = str "better" m = Some "lower";
             bound = Option.bind (Jsonr.member "bound" m) Jsonr.to_float;
           })
  in
  {
    workloads =
      Option.fold ~none:[] ~some:Jsonr.to_list (Jsonr.member "workloads" j)
      |> List.filter_map (str "name");
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* --- verdicts ---

   [gain] is the improvement of NEW over BASE, oriented so that positive
   is better. Sample i of one side pairs with sample i of the other. A
   paired verdict needs at least ten pairs, at least 9 in 10 of them won
   (ties count for neither) and a median difference beyond BASE's
   interquartile spread: that is the only way to "better", and, for a
   metric without a bound, the only way to "worse". With a bound, a loss
   beyond it is worse when it also leaves that spread; a spread wider
   than the bound leaves the metric unresolved unless every NEW sample
   beats every BASE sample. *)
let verdict (m : metric) base fresh =
  let oriented d = if m.lower_better then -.d else d in
  let mb = median base and mn = median fresh in
  let q1, q3 = quartiles base in
  let spread = q3 -. q1 in
  let gain = oriented (mn -. mb) in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip base fresh in
  let n = List.length pairs in
  let decisive sign =
    n >= 10
    && 10 * List.length (List.filter (fun (b, f) -> sign *. oriented (f -. b) > 0.0) pairs)
       >= 9 * n
    && sign *. gain > spread
  in
  let dominates =
    List.for_all (fun f -> List.for_all (fun b -> oriented (f -. b) > 0.0) base) fresh
  in
  if decisive 1.0 then "better"
  else
    match m.bound with
    | None ->
      if decisive (-1.0) then "worse"
      else if gain = 0.0 && spread = 0.0 then "unchanged"
      else "unresolved"
    | Some bound ->
      let allowed = bound *. Float.abs mb in
      if -.gain > allowed then if -.gain > spread then "worse" else "unresolved"
      else if spread > allowed && not dominates then "unresolved"
      else "unchanged"

(* --- result files --- *)

type series = {
  s_name : string;
  s_workload : string option;
  s_unit : string;
  samples : float list;
}

let load_results paths =
  let docs = List.map Jsonr.of_file paths in
  let nproc =
    List.fold_left
      (fun acc d ->
        match Option.bind (Jsonr.member "env" d) (Jsonr.member "nproc") with
        | Some (Jsonw.Int n) -> min acc n
        | _ -> acc)
      max_int docs
  in
  let table = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun d ->
      Option.fold ~none:[] ~some:Jsonr.to_list (Jsonr.member "metrics" d)
      |> List.iter (fun m ->
             let str k = Option.bind (Jsonr.member k m) Jsonr.to_string in
             let key = (Option.get (str "name"), str "workload") in
             let samples =
               Option.fold ~none:[] ~some:Jsonr.to_list (Jsonr.member "samples" m)
               |> List.filter_map Jsonr.to_float
             in
             match Hashtbl.find_opt table key with
             | Some s -> Hashtbl.replace table key { s with samples = s.samples @ samples }
             | None ->
               order := key :: !order;
               Hashtbl.replace table key
                 { s_name = fst key; s_workload = snd key;
                   s_unit = Option.value ~default:"" (str "unit"); samples }))
    docs;
  (nproc, List.rev_map (Hashtbl.find table) !order)

(* Print one row per (metric, workload) present on both sides, and
   return the rows as JSON. Sides are comma-separated lists of result
   files whose samples are concatenated in order, which is how the
   alternating-pairs protocol is fed. *)
let compare spec ~base ~fresh =
  let split = String.split_on_char ',' in
  let nproc_b, base = load_results (split base) in
  let nproc_n, fresh = load_results (split fresh) in
  let registry = spec.end_to_end @ spec.per_layer in
  let rows =
    List.filter_map
      (fun b ->
        match
          ( List.find_opt (fun (m : metric) -> m.name = b.s_name) registry,
            List.find_opt
              (fun n -> n.s_name = b.s_name && n.s_workload = b.s_workload)
              fresh )
        with
        | Some m, Some n when b.samples <> [] && n.samples <> [] ->
          let v =
            if b.s_workload = Some "report_par" && min nproc_b nproc_n < 2 then
              "unresolved"
            else verdict m b.samples n.samples
          in
          Some (m, b, n, v)
        | _ -> None)
      base
  in
  Printf.printf "%-30s %-15s %28s %28s %8s  %s\n" "metric" "workload"
    "base median [q1, q3]" "new median [q1, q3]" "change" "verdict";
  let show xs =
    let q1, q3 = quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g]" (median xs) q1 q3
  in
  List.map
    (fun ((m : metric), b, n, v) ->
      let mb = median b.samples and mn = median n.samples in
      let change = (mn -. mb) /. Float.abs mb in
      Printf.printf "%-30s %-15s %28s %28s %+7.1f%%  %s\n" m.name
        (Option.value ~default:"-" b.s_workload)
        (show b.samples) (show n.samples) (100.0 *. change) v;
      Jsonw.Obj
        [
          ("name", Jsonw.Str m.name);
          ("workload", Option.fold ~none:Jsonw.Null ~some:Jsonw.str b.s_workload);
          ("unit", Jsonw.Str m.unit_);
          ("base_median", Jsonw.Float mb);
          ("new_median", Jsonw.Float mn);
          ("change", Jsonw.Float change);
          ("verdict", Jsonw.Str v);
        ])
    rows
