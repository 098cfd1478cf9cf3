(* Unit and property tests for the dputil substrate. *)

module Prng = Dputil.Prng
module Time = Dputil.Time
module Wildcard = Dputil.Wildcard
module Stats = Dputil.Stats
module Interner = Dputil.Interner
module Table = Dputil.Table
module Crc32 = Dputil.Crc32
module Jsonw = Dputil.Jsonw

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.of_int 7 and b = Prng.of_int 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same sequence" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.of_int 7 and b = Prng.of_int 8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  check Alcotest.bool "sequences differ" true (!same < 4)

let test_prng_split_independent () =
  let g = Prng.of_int 99 in
  let a = Prng.split g in
  let b = Prng.split g in
  let collisions = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr collisions
  done;
  check Alcotest.int "no collisions" 0 !collisions

let test_prng_chance_extremes () =
  let g = Prng.of_int 1 in
  for _ = 1 to 50 do
    check Alcotest.bool "p=0 never" false (Prng.chance g 0.0);
    check Alcotest.bool "p=1 always" true (Prng.chance g 1.0)
  done

let test_prng_exponential_mean () =
  let g = Prng.of_int 5 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Fixtures.exponential g ~mean:10.0 in
    check Alcotest.bool "positive" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean within 5%" true (abs_float (mean -. 10.0) < 0.5)

let test_prng_lognormal_median () =
  let g = Prng.of_int 6 in
  let n = 20_001 in
  let xs = Array.init n (fun _ -> Prng.lognormal g ~median:50.0 ~sigma:0.8) in
  let med = Stats.median xs in
  check Alcotest.bool "median near 50" true (abs_float (med -. 50.0) < 3.0)

let test_prng_pareto_scale () =
  let g = Prng.of_int 8 in
  for _ = 1 to 1_000 do
    let x = Fixtures.pareto g ~scale:3.0 ~alpha:1.5 in
    check Alcotest.bool ">= scale" true (x >= 3.0)
  done

let test_prng_choose_weighted () =
  let g = Prng.of_int 4 in
  for _ = 1 to 200 do
    let x = Prng.choose_weighted g [ (0.0, `Never); (1.0, `Always) ] in
    check Alcotest.bool "zero-weight branch never taken" true (x = `Always)
  done

let prop_int_bounds =
  QCheck.Test.make ~name:"Prng.int in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let g = Prng.of_int seed in
      let x = Prng.int g bound in
      x >= 0 && x < bound)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int_in inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-1000) 1000) (int_range 0 1000))
    (fun (seed, lo, extent) ->
      let hi = lo + extent in
      let g = Prng.of_int seed in
      let x = Prng.int_in g lo hi in
      x >= lo && x <= hi)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"Prng.shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (small_list int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Fixtures.shuffle (Prng.of_int seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let prop_float_bounds =
  QCheck.Test.make ~name:"Prng.float in [0, bound)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, bound) ->
      let x = Prng.float (Prng.of_int seed) bound in
      x >= 0.0 && x < bound)

(* --- Time --- *)

let test_time_conversions () =
  check Alcotest.int "ms" 1_000 (Time.ms 1);
  check Alcotest.int "sec" 1_000_000 (Time.sec 1);
  check Alcotest.int "us" 42 (Time.us 42);
  check Alcotest.int "of_ms_float rounds" 1_500 (Time.of_ms_float 1.5);
  check Alcotest.int "of_ms_float rounds nearest" 1_000 (Time.of_ms_float 0.9999);
  check (Alcotest.float 1e-9) "to_ms_float" 1.5 (Time.to_ms_float 1_500);
  check (Alcotest.float 1e-9) "to_sec_float" 0.25 (Time.to_sec_float 250_000)

let test_time_round_to () =
  check Alcotest.int "exact multiple" 2_000 (Time.round_to 2_000 ~granularity:1_000);
  check Alcotest.int "rounds up" 3_000 (Time.round_to 2_001 ~granularity:1_000);
  check Alcotest.int "zero becomes one period" 1_000 (Time.round_to 0 ~granularity:1_000);
  check Alcotest.int "negative becomes one period" 500 (Time.round_to (-3) ~granularity:500)

let test_time_pp () =
  check Alcotest.string "us" "900us" (Time.to_string 900);
  check Alcotest.string "ms" "1.5ms" (Time.to_string 1_500);
  check Alcotest.string "s" "2.50s" (Time.to_string 2_500_000)

let prop_round_to_multiple =
  QCheck.Test.make ~name:"round_to yields a positive multiple" ~count:500
    QCheck.(pair (int_range (-100) 100_000) (int_range 1 5_000))
    (fun (d, g) ->
      let r = Time.round_to d ~granularity:g in
      r mod g = 0 && r >= g && (d <= 0 || r >= d))

(* --- Wildcard --- *)

let m pat s = Wildcard.matches (Wildcard.compile pat) s

let test_wildcard_basics () =
  check Alcotest.bool "literal" true (m "fv.sys" "fv.sys");
  check Alcotest.bool "literal mismatch" false (m "fv.sys" "fs.sys");
  check Alcotest.bool "star suffix" true (m "*.sys" "graphics.sys");
  check Alcotest.bool "star suffix mismatch" false (m "*.sys" "kernel");
  check Alcotest.bool "case-insensitive" true (m "*.SYS" "Fv.sys");
  check Alcotest.bool "question mark" true (m "f?.sys" "fv.sys");
  check Alcotest.bool "question needs a char" false (m "f?.sys" "f.sys");
  check Alcotest.bool "empty pattern, empty string" true (m "" "");
  check Alcotest.bool "empty pattern, non-empty" false (m "" "x");
  check Alcotest.bool "star alone" true (m "*" "");
  check Alcotest.bool "prefix star star" true (m "**x" "abcx")

let test_wildcard_backtracking () =
  check Alcotest.bool "a*a on aa" true (m "a*a" "aa");
  check Alcotest.bool "a*a on aba" true (m "a*a" "aba");
  check Alcotest.bool "a*a on ab" false (m "a*a" "ab");
  check Alcotest.bool "*a*b interleaved" true (m "*a*b" "xaxbxb");
  check Alcotest.bool "pattern longer than string" false (m "abc?" "abc");
  (* Regression: used to index out of bounds when backtracking past the
     end of the subject string. *)
  check Alcotest.bool "backtrack at end of string" false (m "*ab" "axa");
  check Alcotest.bool "trailing star consumes rest" true (m "ab*" "abcdef")

let test_wildcard_matches_any () =
  let pats = [ Wildcard.compile "*.sys"; Wildcard.compile "kernel" ] in
  check Alcotest.bool "first" true (Wildcard.matches_any pats "fv.sys");
  check Alcotest.bool "second" true (Wildcard.matches_any pats "KERNEL");
  check Alcotest.bool "neither" false (Wildcard.matches_any pats "app.exe")

let prop_star_matches_all =
  QCheck.Test.make ~name:"pattern * matches everything" ~count:300
    QCheck.printable_string
    (fun s -> m "*" s)

let prop_literal_self_match =
  QCheck.Test.make ~name:"literal pattern matches itself" ~count:300
    QCheck.(string_gen_of_size (Gen.int_range 0 30) (Gen.char_range 'a' 'z'))
    (fun s -> m s s)

let prop_star_wrap =
  QCheck.Test.make ~name:"*s* matches any superstring" ~count:300
    QCheck.(
      triple
        (string_gen_of_size (Gen.int_range 0 8) (Gen.char_range 'a' 'z'))
        (string_gen_of_size (Gen.int_range 0 8) (Gen.char_range 'a' 'z'))
        (string_gen_of_size (Gen.int_range 0 8) (Gen.char_range 'a' 'z')))
    (fun (pre, mid, post) -> m ("*" ^ mid ^ "*") (pre ^ mid ^ post))

(* --- Stats --- *)

let test_stats_basics () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check (Alcotest.float 1e-9) "mean empty" 0.0 (Stats.mean [||]);
  check (Alcotest.float 1e-9) "sum" 6.0 (Stats.sum [| 1.0; 2.0; 3.0 |]);
  check (Alcotest.float 1e-6) "stddev" (sqrt (2.0 /. 3.0))
    (Stats.stddev [| 1.0; 2.0; 3.0 |]);
  check (Alcotest.float 1e-9) "stddev single" 0.0 (Stats.stddev [| 5.0 |])

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check (Alcotest.float 1e-9) "p0 = min" 10.0 (Stats.percentile xs 0.0);
  check (Alcotest.float 1e-9) "p100 = max" 40.0 (Stats.percentile xs 100.0);
  check (Alcotest.float 1e-9) "p50 interpolates" 25.0 (Stats.percentile xs 50.0);
  check (Alcotest.float 1e-9) "unsorted input" 25.0
    (Stats.percentile [| 40.0; 10.0; 30.0; 20.0 |] 50.0);
  check (Alcotest.float 1e-9) "empty" 0.0 (Stats.percentile [||] 50.0)

let test_stats_ratio () =
  check (Alcotest.float 1e-9) "normal" 0.5 (Stats.ratio 1.0 2.0);
  check (Alcotest.float 1e-9) "div by zero is 0" 0.0 (Stats.ratio 1.0 0.0);
  check (Alcotest.float 1e-9) "pct" 50.0 (Stats.pct 1.0 2.0)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  check Alcotest.int "count" 4 s.Stats.count;
  check (Alcotest.float 1e-9) "min" 1.0 s.Stats.min;
  check (Alcotest.float 1e-9) "max" 4.0 s.Stats.max;
  check (Alcotest.float 1e-9) "p50" 2.5 s.Stats.p50

(* Regression: percentile used polymorphic compare and min/max used
   Float.min/Float.max, so one NaN sample poisoned (or scrambled) whole
   summaries. NaN samples must be ignored everywhere except [sum]. *)
let nan = Float.nan

let test_stats_nan_policy () =
  let xs = [| nan; 10.0; 20.0; nan; 30.0; 40.0 |] in
  check (Alcotest.float 1e-9) "mean skips NaN" 25.0 (Stats.mean xs);
  check (Alcotest.float 1e-9) "minimum skips NaN" 10.0 (Stats.minimum xs);
  check (Alcotest.float 1e-9) "maximum skips NaN" 40.0 (Stats.maximum xs);
  check (Alcotest.float 1e-9) "NaN-first minimum" 10.0
    (Stats.minimum [| nan; 10.0 |]);
  check (Alcotest.float 1e-9) "NaN-first maximum" 10.0
    (Stats.maximum [| nan; 10.0 |]);
  check (Alcotest.float 1e-9) "percentile skips NaN" 25.0
    (Stats.percentile xs 50.0);
  check (Alcotest.float 1e-9) "median of poisoned input" 25.0
    (Stats.median xs);
  check (Alcotest.float 1e-6) "stddev skips NaN"
    (Stats.stddev [| 10.0; 20.0; 30.0; 40.0 |])
    (Stats.stddev xs);
  let s = Stats.summarize xs in
  check Alcotest.int "summary counts non-NaN" 4 s.Stats.count;
  check (Alcotest.float 1e-9) "summary min" 10.0 s.Stats.min;
  check (Alcotest.float 1e-9) "summary max" 40.0 s.Stats.max;
  (* All-NaN behaves like empty. *)
  let all = [| nan; nan |] in
  check (Alcotest.float 1e-9) "all-NaN mean" 0.0 (Stats.mean all);
  check (Alcotest.float 1e-9) "all-NaN percentile" 0.0
    (Stats.percentile all 90.0);
  check Alcotest.int "all-NaN count" 0 (Stats.summarize all).Stats.count;
  (* sum is the documented exception: it surfaces the poisoning. *)
  check Alcotest.bool "sum keeps NaN" true (Float.is_nan (Stats.sum xs))

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (float_range 0.0 100.0))
              (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (xs, (p1, p2)) ->
      let xs = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

(* --- Interner --- *)

let test_interner_roundtrip () =
  let t = Interner.create () in
  let a = Interner.intern t "alpha" in
  let b = Interner.intern t "beta" in
  check Alcotest.int "stable id" a (Interner.intern t "alpha");
  check Alcotest.bool "distinct ids" true (a <> b);
  check Alcotest.string "name a" "alpha" (Interner.name t a);
  check Alcotest.string "name b" "beta" (Interner.name t b);
  check Alcotest.int "size" 2 (Interner.size t);
  check (Alcotest.option Alcotest.int) "find_opt hit" (Some a)
    (Interner.find_opt t "alpha");
  check (Alcotest.option Alcotest.int) "find_opt miss" None
    (Interner.find_opt t "gamma")

let test_interner_growth () =
  let t = Interner.create ~capacity:2 () in
  let ids = List.init 100 (fun i -> Interner.intern t (string_of_int i)) in
  check Alcotest.int "size" 100 (Interner.size t);
  List.iteri
    (fun i id -> check Alcotest.string "name" (string_of_int i) (Interner.name t id))
    ids

let test_interner_bad_id () =
  let t = Interner.create () in
  Alcotest.check_raises "negative id" (Invalid_argument "Interner.name: unknown id -1")
    (fun () -> ignore (Interner.name t (-1)))

let test_interner_iter_order () =
  let t = Interner.create () in
  List.iter (fun s -> ignore (Interner.intern t s)) [ "x"; "y"; "z" ];
  let seen = ref [] in
  Interner.iter t (fun id s -> seen := (id, s) :: !seen);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "insertion order"
    [ (0, "x"); (1, "y"); (2, "z") ]
    (List.rev !seen)

(* --- Histogram --- *)

module Histogram = Dputil.Histogram

let test_histogram_binning () =
  let h = Histogram.create ~buckets:4 [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  check Alcotest.int "buckets" 4 (Histogram.bucket_count h);
  check (Alcotest.array Alcotest.int) "counts" [| 1; 1; 1; 2 |] (Histogram.counts h);
  let lo, _ = (Histogram.bounds h).(0) in
  check (Alcotest.float 1e-9) "first lo" 0.0 lo;
  let _, hi = (Histogram.bounds h).(3) in
  check (Alcotest.float 1e-9) "last hi" 4.0 hi

let test_histogram_degenerate () =
  check Alcotest.int "empty" 0 (Histogram.bucket_count (Histogram.create [||]));
  check Alcotest.string "empty renders" "(no samples)\n"
    (Histogram.render (Histogram.create [||]));
  let constant = Histogram.create [| 5.0; 5.0; 5.0 |] in
  check (Alcotest.array Alcotest.int) "constant = one bin" [| 3 |]
    (Histogram.counts constant)

(* Regression: NaN samples produced NaN bounds (and lost samples), and an
   infinite sample range made the bucket width infinite — bounds came out
   as [0 * infinity = nan]. Both now degrade to documented fallbacks. *)
let test_histogram_nan_and_infinite () =
  let h = Histogram.create ~buckets:4 [| nan; 1.0; 2.0; nan; 3.0; 4.0 |] in
  check Alcotest.int "NaN samples dropped" 4
    (Array.fold_left ( + ) 0 (Histogram.counts h));
  Array.iter
    (fun (lo, hi) ->
      check Alcotest.bool "finite bounds" true
        (Float.is_finite lo && Float.is_finite hi))
    (Histogram.bounds h);
  check Alcotest.int "all-NaN = empty" 0
    (Histogram.bucket_count (Histogram.create [| nan; nan |]));
  (* Range spanning both infinities: single bucket, exact bounds. *)
  let inf = Histogram.create ~buckets:8 [| Float.neg_infinity; 0.0; Float.infinity |] in
  check (Alcotest.array Alcotest.int) "infinite range = one bucket" [| 3 |]
    (Histogram.counts inf);
  let lo, hi = (Histogram.bounds inf).(0) in
  check Alcotest.bool "bounds are the sample range" true
    (lo = Float.neg_infinity && hi = Float.infinity);
  ignore (Histogram.render inf)

let test_histogram_render () =
  let h = Histogram.create ~buckets:2 [| 0.0; 0.1; 0.2; 10.0 |] in
  let text = Histogram.render ~width:10 h in
  check Alcotest.bool "bars present" true (String.contains text '#');
  let marked =
    Histogram.render_with_markers ~markers:[ ("T_fast", 9.0) ] h
  in
  check Alcotest.bool "marker printed" true
    (let rec has i =
       i + 6 <= String.length marked
       && (String.sub marked i 6 = "T_fast" || has (i + 1))
     in
     has 0)

let prop_histogram_conserves_samples =
  QCheck.Test.make ~name:"histogram conserves sample count" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 200) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let h = Histogram.create ~buckets:13 arr in
      Array.fold_left ( + ) 0 (Histogram.counts h) = Array.length arr)

(* --- Table --- *)

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_render () =
  let t = Table.create [ ("Name", Table.Left); ("N", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  check Alcotest.bool "contains header" true
    (String.length s > 0
    && string_contains s "Name"
    && string_contains s "alpha"
    && string_contains s "22")

let test_table_mismatch () =
  let t = Table.create [ ("A", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

(* --- Crc32 --- *)

(* The bytewise textbook CRC-32, one table lookup per byte: the oracle
   the table-driven implementation must agree with. *)
let reference_crc ?(crc = 0) s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref (crc lxor 0xffffffff) in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

let test_crc_check_value () =
  check Alcotest.int "CRC-32 check value" 0xcbf43926
    (Crc32.string "123456789");
  check Alcotest.int "empty string" 0 (Crc32.string "")

let prop_crc_matches_reference =
  QCheck.Test.make ~name:"Crc32 = bytewise reference (chaining, offsets)"
    ~count:500
    QCheck.(
      triple
        (string_gen_of_size (Gen.int_range 0 64) Gen.char)
        (string_gen_of_size (Gen.int_range 0 64) Gen.char)
        (pair small_nat small_nat))
    (fun (a, b, (skip, cut)) ->
      let whole = Crc32.string (a ^ b) in
      let bytes = Bytes.of_string b in
      let pos = min skip (Bytes.length bytes) in
      let len = min cut (Bytes.length bytes - pos) in
      Crc32.string a = reference_crc a
      && whole = reference_crc (a ^ b)
      && Crc32.string ~crc:(Crc32.string a) b = whole
      && Crc32.bytes_sub ~crc:(Crc32.string a) bytes ~pos ~len
         = reference_crc ~crc:(reference_crc a) (String.sub b pos len))

(* --- Jsonw --- *)

(* [output] streams through a bounded buffer; what reaches the file must
   still be exactly [to_string]'s bytes. The document is several times the
   buffer, nests arrays in objects, and carries a string longer than the
   buffer on its own. *)
let test_jsonw_output_equals_to_string () =
  let doc =
    Jsonw.Obj
      [
        ( "rows",
          Jsonw.Arr
            (List.init 5_000 (fun i ->
                 Jsonw.Obj
                   [
                     ("name", Jsonw.str (Printf.sprintf "row \"%d\"\n" i));
                     ("values", Jsonw.Arr [ Jsonw.int i; Jsonw.float (float i /. 7.) ]);
                     ("empty", Jsonw.Obj []);
                   ])) );
        ("long", Jsonw.str (String.make 100_000 'x'));
        ("null", Jsonw.Null);
      ]
  in
  List.iter
    (fun minify ->
      let want = Jsonw.to_string ~minify doc in
      check Alcotest.bool "larger than the buffer" true
        (String.length want > 4 * 65536);
      let path = Filename.temp_file "jsonw" ".json" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Out_channel.with_open_bin path (fun oc -> Jsonw.output ~minify oc doc);
      check Alcotest.bool
        (Printf.sprintf "minify=%b: same bytes" minify)
        true
        (In_channel.with_open_bin path In_channel.input_all = want))
    [ true; false ]

(* A tree with [Defer] nodes at random depths prints, pretty and
   minified, through [to_string] and through [output], exactly the bytes
   of the same tree with every node forced. A tree is drawn with the
   seed of its deferrals: a node is deferred when the seed's next bit
   is set. *)
let rec force = function
  | Jsonw.Defer f -> force (f ())
  | Jsonw.Arr l -> Jsonw.Arr (List.map force l)
  | Jsonw.Obj m -> Jsonw.Obj (List.map (fun (k, v) -> (k, force v)) m)
  | v -> v

let gen_deferred =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ return Jsonw.Null; map (fun b -> Jsonw.Bool b) bool; map Jsonw.int small_signed_int;
        map Jsonw.float float; map Jsonw.str (string_size ~gen:printable (int_bound 6)) ]
  in
  let defer v = map (fun d -> if d then Jsonw.Defer (fun () -> v) else v) bool in
  sized
  @@ fix (fun self n ->
         (if n = 0 then leaf
          else
            frequency
              [ (1, leaf);
                (2, map (fun l -> Jsonw.Arr l) (list_size (int_bound 4) (self (n / 4))));
                ( 2,
                  map
                    (fun l -> Jsonw.Obj l)
                    (list_size (int_bound 4) (pair (string_size ~gen:printable (int_bound 4)) (self (n / 4)))) ) ])
         >>= defer)

let prop_defer_prints_forced =
  QCheck.Test.make ~name:"Jsonw: deferred nodes print as forced" ~count:300
    (QCheck.make gen_deferred)
    (fun doc ->
      let forced = force doc in
      List.for_all
        (fun minify ->
          let want = Jsonw.to_string ~minify forced in
          let path = Filename.temp_file "jsonw" ".json" in
          Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
          Out_channel.with_open_bin path (fun oc -> Jsonw.output ~minify oc doc);
          Jsonw.to_string ~minify doc = want
          && In_channel.with_open_bin path In_channel.input_all = want)
        [ true; false ])

let () =
  Alcotest.run "dputil"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
          Alcotest.test_case "exponential mean" `Slow test_prng_exponential_mean;
          Alcotest.test_case "lognormal median" `Slow test_prng_lognormal_median;
          Alcotest.test_case "pareto scale" `Quick test_prng_pareto_scale;
          Alcotest.test_case "choose_weighted" `Quick test_prng_choose_weighted;
          qcheck prop_int_bounds;
          qcheck prop_int_in_bounds;
          qcheck prop_shuffle_permutation;
          qcheck prop_float_bounds;
        ] );
      ( "time",
        [
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "round_to" `Quick test_time_round_to;
          Alcotest.test_case "pp" `Quick test_time_pp;
          qcheck prop_round_to_multiple;
        ] );
      ( "wildcard",
        [
          Alcotest.test_case "basics" `Quick test_wildcard_basics;
          Alcotest.test_case "backtracking" `Quick test_wildcard_backtracking;
          Alcotest.test_case "matches_any" `Quick test_wildcard_matches_any;
          qcheck prop_star_matches_all;
          qcheck prop_literal_self_match;
          qcheck prop_star_wrap;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "ratio" `Quick test_stats_ratio;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "NaN policy" `Quick test_stats_nan_policy;
          qcheck prop_percentile_monotone;
        ] );
      ( "interner",
        [
          Alcotest.test_case "roundtrip" `Quick test_interner_roundtrip;
          Alcotest.test_case "growth" `Quick test_interner_growth;
          Alcotest.test_case "bad id" `Quick test_interner_bad_id;
          Alcotest.test_case "iter order" `Quick test_interner_iter_order;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "degenerate" `Quick test_histogram_degenerate;
          Alcotest.test_case "NaN and infinite range" `Quick
            test_histogram_nan_and_infinite;
          Alcotest.test_case "render" `Quick test_histogram_render;
          qcheck prop_histogram_conserves_samples;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "mismatch" `Quick test_table_mismatch;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "check value" `Quick test_crc_check_value;
          qcheck prop_crc_matches_reference;
        ] );
      ( "jsonw",
        [
          Alcotest.test_case "output = to_string, streamed" `Quick
            test_jsonw_output_equals_to_string;
          qcheck prop_defer_prints_forced;
        ] );
    ]
