(* Dedicated tests for pattern-set differencing: the full ordering
   contract, the [min_support] claim floor, the JSON twin, and a QCheck
   round-trip showing every input tuple surfaces exactly once. *)

module Time = Dputil.Time
module Tuple = Dpcore.Tuple
module Mining = Dpcore.Mining
module Diff = Dpcore.Diff

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let sig_ = Dptrace.Signature.of_string

let tuple w = Tuple.make ~waits:(List.map sig_ w) ~unwaits:[] ~runnings:[]

let pattern ?max_single ~w ~cost ~count () =
  let max_single = Option.value max_single ~default:cost in
  Fixtures.make_pattern ~tuple:(tuple w) ~cost ~count ~max_single

let entry_of entries w =
  List.find (fun e -> Tuple.equal e.Diff.tuple (tuple w)) entries

(* --- ordering: severity classes in order, factors descending --- *)

let test_ordering () =
  let before =
    [
      pattern ~w:[ "reg2.sys!F" ] ~cost:(Time.ms 100) ~count:1 ();
      pattern ~w:[ "reg6.sys!F" ] ~cost:(Time.ms 100) ~count:1 ();
      pattern ~w:[ "gone.sys!F" ] ~cost:(Time.ms 50) ~count:1 ();
      pattern ~w:[ "imp3.sys!F" ] ~cost:(Time.ms 300) ~count:1 ();
      pattern ~w:[ "imp9.sys!F" ] ~cost:(Time.ms 900) ~count:1 ();
      pattern ~w:[ "same.sys!F" ] ~cost:(Time.ms 100) ~count:1 ();
    ]
  in
  let after =
    [
      pattern ~w:[ "reg2.sys!F" ] ~cost:(Time.ms 200) ~count:1 ();
      pattern ~w:[ "reg6.sys!F" ] ~cost:(Time.ms 600) ~count:1 ();
      pattern ~w:[ "new.sys!F" ] ~cost:(Time.ms 10) ~count:1 ();
      pattern ~w:[ "imp3.sys!F" ] ~cost:(Time.ms 100) ~count:1 ();
      pattern ~w:[ "imp9.sys!F" ] ~cost:(Time.ms 100) ~count:1 ();
      pattern ~w:[ "same.sys!F" ] ~cost:(Time.ms 100) ~count:1 ();
    ]
  in
  let entries = Diff.compare_patterns ~before ~after () in
  let kinds = List.map (fun e -> Diff.change_kind e.Diff.change) entries in
  check
    (Alcotest.list Alcotest.string)
    "severity order"
    [
      "regressed"; "regressed"; "appeared"; "disappeared"; "improved";
      "improved"; "stable";
    ]
    kinds;
  (* Largest factor first within each factor-carrying class. *)
  (match (List.nth entries 0).Diff.change with
  | Diff.Regressed f -> check (Alcotest.float 1e-6) "worst first" 6.0 f
  | _ -> Alcotest.fail "expected Regressed");
  match (List.nth entries 4).Diff.change with
  | Diff.Improved f -> check (Alcotest.float 1e-6) "best first" 9.0 f
  | _ -> Alcotest.fail "expected Improved"

let test_tie_break_by_tuple () =
  (* Two appearances with equal everything: ties order by content. *)
  let after =
    [
      pattern ~w:[ "b.sys!F" ] ~cost:(Time.ms 10) ~count:1 ();
      pattern ~w:[ "a.sys!F" ] ~cost:(Time.ms 10) ~count:1 ();
    ]
  in
  let entries = Diff.compare_patterns ~before:[] ~after () in
  let ts = List.map (fun e -> e.Diff.tuple) entries in
  check Alcotest.bool "tuple order" true
    (ts = List.sort Tuple.compare ts)

(* --- min_support: the claiming side carries the floor --- *)

let test_min_support () =
  let before =
    [
      pattern ~w:[ "worse.sys!F" ] ~cost:(Time.ms 100) ~count:10 ();
      pattern ~w:[ "gone_small.sys!F" ] ~cost:(Time.ms 100) ~count:2 ();
      pattern ~w:[ "gone_big.sys!F" ] ~cost:(Time.ms 100) ~count:5 ();
      pattern ~w:[ "better.sys!F" ] ~cost:(Time.ms 900) ~count:10 ();
    ]
  in
  let after =
    [
      (* 10x avg-cost growth but only 2 supporting instances. *)
      pattern ~w:[ "worse.sys!F" ] ~cost:(Time.ms 200) ~count:2 ();
      pattern ~w:[ "new_small.sys!F" ] ~cost:(Time.ms 500) ~count:2 ();
      pattern ~w:[ "new_big.sys!F" ] ~cost:(Time.ms 500) ~count:3 ();
      pattern ~w:[ "better.sys!F" ] ~cost:(Time.ms 100) ~count:2 ();
    ]
  in
  let entries = Diff.compare_patterns ~min_support:3 ~before ~after () in
  let kind w = Diff.change_kind (entry_of entries w).Diff.change in
  check Alcotest.string "sub-floor regression is stable" "stable"
    (kind [ "worse.sys!F" ]);
  check Alcotest.string "sub-floor appearance is stable" "stable"
    (kind [ "new_small.sys!F" ]);
  check Alcotest.string "supported appearance claims" "appeared"
    (kind [ "new_big.sys!F" ]);
  check Alcotest.string "sub-floor improvement is stable" "stable"
    (kind [ "better.sys!F" ]);
  (* Disappearance is a claim about the BEFORE side. *)
  check Alcotest.string "sub-floor disappearance is stable" "stable"
    (kind [ "gone_small.sys!F" ]);
  check Alcotest.string "supported disappearance claims" "disappeared"
    (kind [ "gone_big.sys!F" ])

let test_min_support_default_off () =
  let after = [ pattern ~w:[ "once.sys!F" ] ~cost:(Time.ms 1) ~count:1 () ] in
  let entries = Diff.compare_patterns ~before:[] ~after () in
  check Alcotest.string "floor of 1 keeps singletons" "appeared"
    (Diff.change_kind (List.hd entries).Diff.change)

(* --- JSON twin --- *)

let test_json_document () =
  let before = [ pattern ~w:[ "a.sys!F" ] ~cost:(Time.ms 10) ~count:2 () ] in
  let after =
    [
      pattern ~w:[ "a.sys!F" ] ~cost:(Time.ms 100) ~count:4 ();
      pattern ~w:[ "b.sys!F" ] ~cost:(Time.ms 5) ~count:3 ();
    ]
  in
  let entries = Diff.compare_patterns ~before ~after () in
  let doc =
    Dputil.Jsonw.to_string
      (Diff.json_document ~scenario:"S" ~threshold:1.5 ~min_support:1 entries)
  in
  (* Byte-determinism: the writer has one rendering. *)
  check Alcotest.string "deterministic" doc
    (Dputil.Jsonw.to_string
       (Diff.json_document ~scenario:"S" ~threshold:1.5 ~min_support:1
          entries));
  match Tjson.parse doc with
  | Tjson.Obj fields ->
    check Alcotest.string "tool" "driveperf"
      (match List.assoc "tool" fields with Tjson.Str s -> s | _ -> "?");
    check Alcotest.string "kind" "diff"
      (match List.assoc "kind" fields with Tjson.Str s -> s | _ -> "?");
    (match List.assoc "entries" fields with
    | Tjson.Arr (Tjson.Obj e :: _) ->
      (* First entry is the regression; factor present, sides populated. *)
      check Alcotest.string "entry change" "regressed"
        (match List.assoc "change" e with Tjson.Str s -> s | _ -> "?");
      (match List.assoc "factor" e with
      | Tjson.Num f -> check (Alcotest.float 1e-6) "factor" 5.0 f
      | _ -> Alcotest.fail "factor should be a number");
      (match List.assoc "before" e with
      | Tjson.Obj b ->
        check Alcotest.bool "before count" true
          (List.assoc "count" b = Tjson.Num 2.0)
      | _ -> Alcotest.fail "before should be an object")
    | _ -> Alcotest.fail "entries should lead with the regression");
    (match List.assoc "summary" fields with
    | Tjson.Obj s ->
      check Alcotest.bool "summary regressed" true
        (List.assoc "regressed" s = Tjson.Num 1.0)
    | _ -> Alcotest.fail "summary should be an object")
  | _ -> Alcotest.fail "document should be an object"

let test_json_appeared_sides () =
  let after = [ pattern ~w:[ "n.sys!F" ] ~cost:(Time.ms 9) ~count:3 () ] in
  let entries = Diff.compare_patterns ~before:[] ~after () in
  match Tjson.parse (Dputil.Jsonw.to_string (Diff.json_entry (List.hd entries))) with
  | Tjson.Obj e ->
    check Alcotest.bool "before null" true (List.assoc "before" e = Tjson.Null);
    check Alcotest.bool "factor null" true (List.assoc "factor" e = Tjson.Null);
    (match List.assoc "tuple" e with
    | Tjson.Obj t -> (
      match List.assoc "waits" t with
      | Tjson.Arr [ Tjson.Str "n.sys!F" ] -> ()
      | _ -> Alcotest.fail "tuple waits should carry the signature name")
    | _ -> Alcotest.fail "tuple should be an object")
  | _ -> Alcotest.fail "entry should be an object"

(* --- QCheck: membership round-trip --- *)

let arb_patterns =
  let open QCheck in
  let arb_side =
    list_of_size (Gen.int_bound 12)
      (triple (int_bound 19) (int_range 1 1_000_000) (int_range 1 50))
  in
  (* Distinct tuples per side: keep the first occurrence of each id. *)
  let dedup side =
    List.fold_left
      (fun acc (id, cost, count) ->
        let w = [ Printf.sprintf "m%d.sys!F" id ] in
        if List.exists (fun (w', _, _) -> w' = w) acc then acc
        else (w, cost, count) :: acc)
      [] side
    |> List.rev_map (fun (w, cost, count) ->
           pattern ~w ~cost:(Time.us cost) ~count ())
  in
  pair arb_side arb_side |> map (fun (b, a) -> (dedup b, dedup a))

let prop_membership_round_trip =
  QCheck.Test.make ~count:200 ~name:"diff covers each tuple exactly once"
    arb_patterns (fun (before, after) ->
      let entries = Diff.compare_patterns ~min_support:2 ~before ~after () in
      let find side (e : Diff.entry) =
        List.find_opt (fun (p : Mining.pattern) ->
            Tuple.equal p.Mining.tuple e.Diff.tuple)
          side
      in
      List.length entries
      = List.length
          (List.sort_uniq Tuple.compare
             (List.map (fun (p : Mining.pattern) -> p.Mining.tuple)
                (before @ after)))
      && List.for_all
           (fun (e : Diff.entry) ->
             (* The sides round-trip to the input lists... *)
             e.Diff.before = find before e)
           entries
      && List.for_all
           (fun (e : Diff.entry) -> e.Diff.after = find after e)
           entries
      && List.for_all
           (fun (e : Diff.entry) ->
             (* ...and the classification is sane for the membership. *)
             match (e.Diff.before, e.Diff.after, e.Diff.change) with
             | None, None, _ -> false
             | None, Some _, (Diff.Appeared | Diff.Stable) -> true
             | Some _, None, (Diff.Disappeared | Diff.Stable) -> true
             | Some _, Some _, (Diff.Regressed _ | Diff.Improved _ | Diff.Stable)
               ->
               true
             | _ -> false)
           entries)

let () =
  Alcotest.run "diff"
    [
      ( "ordering",
        [
          Alcotest.test_case "severity classes and factors" `Quick
            test_ordering;
          Alcotest.test_case "ties break by tuple content" `Quick
            test_tie_break_by_tuple;
        ] );
      ( "min_support",
        [
          Alcotest.test_case "claim-side floor" `Quick test_min_support;
          Alcotest.test_case "default floor keeps singletons" `Quick
            test_min_support_default_off;
        ] );
      ( "json",
        [
          Alcotest.test_case "document shape and determinism" `Quick
            test_json_document;
          Alcotest.test_case "appeared entry nulls" `Quick
            test_json_appeared_sides;
        ] );
      ("properties", [ qcheck prop_membership_round_trip ]);
    ]
