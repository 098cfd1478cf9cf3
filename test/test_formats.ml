(* Tests for the interchange substrates: the ETW importer, the text
   tokenizer both text readers share, the framed binary codec (and the
   retired v1 container) and the anonymiser. *)

module Event = Dptrace.Event
module Stream = Dptrace.Stream
module Corpus = Dptrace.Corpus
module Etw = Dptrace.Etw
module V2 = Dptrace.Codec_v2
module Wire = Dptrace.Wire
module Time = Dputil.Time

let check = Alcotest.check

let driver_impact corpus =
  fst (Dpcore.Pipeline.run_impact_prov Dpcore.Component.drivers corpus)

(* --- ETW importer --- *)

let test_etw_sample_coalescing () =
  let dump =
    "# a profile burst\n\
     SampledProfile, 1000, 5, \"app!f;app!main\"\n\
     SampledProfile, 2000, 5, \"app!f;app!main\"\n\
     SampledProfile, 3000, 5, \"app!f;app!main\"\n\
     SampledProfile, 4000, 5, \"app!g;app!main\"\n"
  in
  let st = Fixtures.etw_of_string dump in
  let runs =
    Array.to_list st.Stream.events |> List.filter Event.is_running
  in
  check Alcotest.int "two coalesced runs" 2 (List.length runs);
  let first = List.hd runs in
  check Alcotest.int "three samples = 3ms" (Time.ms 3) first.Event.cost;
  check Alcotest.int "starts at first sample" 1000 first.Event.ts

let test_etw_gap_breaks_coalescing () =
  let dump =
    "SampledProfile, 1000, 5, \"app!f\"\n\
     SampledProfile, 9000, 5, \"app!f\"\n"
  in
  let st = Fixtures.etw_of_string dump in
  check Alcotest.int "gap splits runs" 2
    (List.length (Array.to_list st.Stream.events |> List.filter Event.is_running))

let test_etw_wait_reconstruction () =
  let dump =
    "CSwitch, 1000, 9, 5, Waiting, \"kernel!AcquireLock;d.sys!Op;app!main\"\n\
     ReadyThread, 4000, 7, 5, \"d.sys!Release;other!w\"\n"
  in
  let st = Fixtures.etw_of_string dump in
  let wait = Array.to_list st.Stream.events |> List.find Event.is_wait in
  check Alcotest.int "wait tid" 5 wait.Event.tid;
  check Alcotest.int "wait start" 1000 wait.Event.ts;
  check Alcotest.int "wait cost" 3000 wait.Event.cost;
  let unwait = Array.to_list st.Stream.events |> List.find Event.is_unwait in
  check Alcotest.int "unwait by" 7 unwait.Event.tid;
  check Alcotest.int "unwait targets" 5 unwait.Event.wtid;
  (* Pairing must be recoverable through the stream index. *)
  let idx = Stream.index st in
  check Alcotest.bool "pairable" true (Stream.find_waker idx wait <> None)

let test_etw_open_wait_dropped () =
  let dump = "CSwitch, 1000, 9, 5, Waiting, \"app!main\"\n" in
  let st = Fixtures.etw_of_string dump in
  check Alcotest.int "no events" 0 (Array.length st.Stream.events)

let test_etw_diskio_and_threads () =
  let dump =
    "Thread, 5, BrowserUI\nDiskIo, 2000, 1500, \"DiskService\"\n"
  in
  let st = Fixtures.etw_of_string dump in
  let hw = Array.to_list st.Stream.events |> List.find Fixtures.is_hw_service in
  check Alcotest.int "start" 2000 hw.Event.ts;
  check Alcotest.int "duration" 1500 hw.Event.cost;
  check Alcotest.string "named thread kept" "BrowserUI" (Stream.thread_name st 5);
  check Alcotest.bool "device pseudo-thread registered" true
    (List.exists (fun (_, n) -> n = "DiskService") st.Stream.threads)

let test_etw_marks () =
  let dump =
    "Mark, 1000, TabCreate, 5, Start\n\
     SampledProfile, 2000, 5, \"app!f\"\n\
     Mark, 9000, TabCreate, 5, Stop\n"
  in
  let st = Fixtures.etw_of_string dump in
  match st.Stream.instances with
  | [ i ] ->
    check Alcotest.string "scenario" "TabCreate" i.Dptrace.Scenario.scenario;
    check Alcotest.int "t0" 1000 i.Dptrace.Scenario.t0;
    check Alcotest.int "t1" 9000 i.Dptrace.Scenario.t1
  | l -> Alcotest.failf "expected one instance, got %d" (List.length l)

let expect_etw_error dump =
  match Fixtures.etw_of_string dump with
  | exception Dptrace.Fields.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error"

let test_etw_errors () =
  expect_etw_error "Bogus, 1, 2\n";
  expect_etw_error "SampledProfile, notanint, 5, \"a!b\"\n";
  expect_etw_error "Mark, 1000, S, 5, Stop\n";
  expect_etw_error "Mark, 1000, S, 5, Start\nMark, 2000, S, 5, Start\n";
  expect_etw_error "Mark, 1000, S, 5, Sideways\n";
  expect_etw_error "DiskIo, 10, -5, \"D\"\n";
  expect_etw_error "SampledProfile, 1, 5, \"unterminated\n"

let test_etw_error_line_number () =
  match Fixtures.etw_of_string "# fine\nThread, 1, a\nBogus, 1\n" with
  | exception Dptrace.Fields.Parse_error { line; _ } -> check Alcotest.int "line" 3 line
  | _ -> Alcotest.fail "expected Parse_error"

let test_etw_end_to_end_analysis () =
  (* A contention story told in ETW records: thread 5 (the instance)
     blocks on a driver lock; thread 9 holds it while the disk serves it;
     thread 9 readies 5 at release. The impact analysis must count 5's
     wait. *)
  let dump =
    "Thread, 5, App.UI\n\
     Thread, 9, Holder\n\
     Mark, 0, OpenDoc, 5, Start\n\
     SampledProfile, 500, 5, \"app!open\"\n\
     CSwitch, 1000, 9, 5, Waiting, \"kernel!AcquireLock;flt.sys!Lookup;app!open\"\n\
     CSwitch, 1500, 0, 9, Waiting, \"kernel!WaitForObject;fs.sys!Read;svc!w\"\n\
     DiskIo, 1500, 20000, \"DiskService\"\n\
     ReadyThread, 21500, 1000000, 9, \"DiskService\"\n\
     ReadyThread, 22000, 9, 5, \"flt.sys!Lookup;svc!w\"\n\
     SampledProfile, 23000, 5, \"app!open\"\n\
     Mark, 24000, OpenDoc, 5, Stop\n"
  in
  let st = Fixtures.etw_of_string dump in
  check (Alcotest.list Alcotest.string) "valid" []
    (List.map
       (fun v -> Format.asprintf "%a" Dptrace.Validate.pp_violation v)
       (Dptrace.Validate.check st));
  let corpus =
    Corpus.create ~streams:[ st ]
      ~specs:[ Dptrace.Scenario.spec ~name:"OpenDoc" ~tfast:10_000 ~tslow:20_000 ]
  in
  let r = driver_impact corpus in
  check Alcotest.int "one instance" 1 r.Dpcore.Impact.instances;
  (* Thread 5 blocked 1000..22000 on a driver-tagged stack. *)
  check Alcotest.int "driver wait counted" 21_000 r.Dpcore.Impact.d_wait

let test_etw_roundtrip_motivating_case () =
  (* Export the Figure 1 stream as an xperf dump, import it back, and
     require identical impact metrics: wait intervals and sampled runs
     must survive the ETW representation exactly. *)
  let case = Dpworkload.Motivating_case.build () in
  let st = case.Dpworkload.Motivating_case.stream in
  let reimported = Fixtures.etw_of_string (Etw_dump.to_dump st) in
  check Alcotest.bool "reimported validates" true
    (Fixtures.is_valid reimported);
  let impact stream =
    driver_impact
      (Corpus.create ~streams:[ stream ]
         ~specs:case.Dpworkload.Motivating_case.specs)
  in
  let a = impact st and b = impact reimported in
  check Alcotest.int "d_scn preserved" a.Dpcore.Impact.d_scn b.Dpcore.Impact.d_scn;
  check Alcotest.int "d_wait preserved" a.Dpcore.Impact.d_wait b.Dpcore.Impact.d_wait;
  check Alcotest.int "d_waitdist preserved" a.Dpcore.Impact.d_waitdist
    b.Dpcore.Impact.d_waitdist;
  check Alcotest.int "d_run preserved" a.Dpcore.Impact.d_run b.Dpcore.Impact.d_run;
  check Alcotest.int "instances preserved"
    (List.length st.Stream.instances)
    (List.length reimported.Stream.instances)

let test_etw_roundtrip_generated () =
  (* The same property over a whole generated corpus. *)
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.02) in
  let reimported_streams =
    List.map
      (fun (st : Stream.t) ->
        Fixtures.etw_of_string
          ~stream_id:st.Stream.id
          (Etw_dump.to_dump st))
      corpus.Corpus.streams
  in
  let reimported =
    Corpus.create ~streams:reimported_streams ~specs:corpus.Corpus.specs
  in
  let a = driver_impact corpus in
  let b = driver_impact reimported in
  check Alcotest.int "d_wait preserved" a.Dpcore.Impact.d_wait b.Dpcore.Impact.d_wait;
  check Alcotest.int "d_waitdist preserved" a.Dpcore.Impact.d_waitdist
    b.Dpcore.Impact.d_waitdist;
  check Alcotest.int "d_run preserved" a.Dpcore.Impact.d_run b.Dpcore.Impact.d_run

let prop_etw_mutation_safety =
  QCheck.Test.make ~name:"mutated ETW dump never crashes" ~count:150
    QCheck.(pair small_int (int_range 32 126))
    (fun (pos_seed, byte) ->
      let case = Dpworkload.Motivating_case.build () in
      let base = Etw_dump.to_dump case.Dpworkload.Motivating_case.stream in
      let b = Bytes.of_string base in
      Bytes.set b (pos_seed mod Bytes.length b) (Char.chr byte);
      match Fixtures.etw_of_string (Bytes.to_string b) with
      | _ -> true
      | exception Dptrace.Fields.Parse_error _ -> true)

(* Words allocated per line by an import, measured after a warm-up
   import of the same dump (the first meets every signature and stack
   for the first time), on the dump of the largest stream of a generated
   corpus: 29.3 words per line here, against 136.8 when every line was
   split into a list and the dump read whole. *)
let test_etw_words_per_line () =
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.2) in
  let largest =
    List.fold_left
      (fun (a : Stream.t) (b : Stream.t) ->
        if Stream.event_count b > Stream.event_count a then b else a)
      (List.hd corpus.Corpus.streams) corpus.Corpus.streams
  in
  let dump = Etw_dump.to_dump largest in
  let lines = List.length (String.split_on_char '\n' dump) - 1 in
  Fixtures.with_file dump @@ fun path ->
  ignore (Etw.load path);
  let _, words = Fixtures.words_allocated (fun () -> Etw.load path) in
  let per_line = words /. float_of_int lines in
  Printf.printf "ETW import: %.1f words per line (%d lines)\n" per_line lines;
  if per_line > 40. then Alcotest.failf "%.1f words per line" per_line

(* --- the text tokenizer against the list-splitting oracle --- *)

(* The tokenizer's edge cases: quotes drop anywhere in an ETW field, an
   ETW frame "-" is a signature (only the empty field is the empty
   stack), and in [.dpt] only ' ' splits words. *)
let test_tokenizer_edges () =
  let st = Fixtures.etw_of_string "Thread, 1, x\"a,b\"y\nSampledProfile, 0, 1, -\n" in
  check Alcotest.string "quoted comma" "xa,by" (Stream.thread_name st 1);
  check Alcotest.(list string) "frame -" [ "-" ]
    (Array.to_list (Dptrace.Callstack.frames st.Stream.events.(0).Event.stack)
    |> List.map Dptrace.Signature.name);
  let c = Fixtures.corpus_of_string "dptrace 1\nstream 0\nthread 1 a\tb\nend\n" in
  check Alcotest.string "tab inside a word" "a\tb"
    (Stream.thread_name (List.hd c.Corpus.streams) 1)

(* What a reader makes of a file: the streams it handed over and its
   specs, or the streams before the error and the error's line and
   message. *)
let outcome read path =
  let streams = ref [] in
  let push (st : Stream.t) =
    let parts = (st.Stream.id, st.Stream.events, st.Stream.instances, st.Stream.threads) in
    streams := parts :: !streams
  in
  let result =
    match read path push with
    | specs -> Ok specs
    | exception Dptrace.Fields.Parse_error { line; message } -> Error (line, message)
  in
  (List.rev !streams, result)

(* A few bytes of [base] replaced or inserted near one another, so
   that two can damage one line, mostly with the bytes the tokenizer
   splits, trims or drops on. A quarter of the edits start in the first
   512 bytes, where the header, specs and thread lines are. *)
let mutated base =
  let open QCheck.Gen in
  let byte = frequency [ (3, oneofl [ ' '; '\t'; '\r'; ';'; ','; '"'; '-' ]); (1, char) ] in
  let apply at s (off, c, insert) =
    let n = String.length s in
    if insert then
      let pos = (at + off) mod (n + 1) in
      String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos)
    else
      let pos = (at + off) mod n in
      String.mapi (fun i x -> if i = pos then c else x) s
  in
  let edits = list_size (int_range 1 4) (triple (int_bound 40) byte bool) in
  QCheck.make ~print:String.escaped
    (map2
       (fun at edits -> List.fold_left (apply at) base edits)
       (frequency [ (1, int_bound 511); (3, nat) ])
       edits)

(* Each format's reader and its oracle, and whether they make the same
   of [text]. *)
let dpt =
  ( (fun path push -> Dptrace.Codec.read path (fun _ st -> push st)),
    fun path push -> Text_reference.Codec.read path (fun _ st -> push st) )

let etw =
  ( (fun path push -> push (Etw.load path); []),
    fun path push -> push (Text_reference.Etw.load path); [] )

let agree (read, oracle) text =
  Fixtures.with_file text @@ fun path -> outcome read path = outcome oracle path

(* A line with more than one bad field fails on the one the
   list-splitting parser read first. *)
let test_first_bad_field () =
  let in_stream lines = "dptrace 1\nstream 0\n" ^ lines ^ "end\n" in
  List.iter
    (fun text -> check Alcotest.bool (String.escaped text) true (agree dpt text))
    [ "dptrace  1\n"; "dptrace 1\nspec S x y\n"; "dptrace 1\nstream x\n";
      in_stream "thread x n\n"; in_stream "event run a b c d f\n";
      in_stream "event bogus a b c d f\n"; in_stream "event run 0 0 -1 d f\n";
      in_stream "instance S x y z\n"; in_stream "instance S x 9 5\n" ];
  List.iter
    (fun text -> check Alcotest.bool (String.escaped text) true (agree etw text))
    [ "SampledProfile, x, y, \"a\"\n"; "CSwitch, x, q, y, Waiting, \"a\"\n";
      "ReadyThread, x, y, z, \"a\"\n"; "DiskIo, x, y, D\n"; "DiskIo, x, -5, D, y\n";
      "DiskIo, x, 5, D, y\n"; "Mark, x, S, y, Start\n"; "Thread, x, n\n" ]

let prop_oracle name base readers =
  QCheck.Test.make ~name ~count:300 (mutated base) (agree readers)

let prop_dpt_oracle =
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.005) in
  prop_oracle ".dpt reader agrees with the list-splitting oracle"
    (Fixtures.corpus_to_string corpus) dpt

let prop_etw_oracle =
  let st = (Dpworkload.Motivating_case.build ()).Dpworkload.Motivating_case.stream in
  prop_oracle "ETW importer agrees with the list-splitting oracle" (Etw_dump.to_dump st) etw

(* --- binary codec --- *)

let text_of c = Fixtures.corpus_to_string c
let roundtrip c = fst (V2_frames.decode (V2_frames.encode c))

let test_binary_roundtrip_small () =
  let case = Dpworkload.Motivating_case.build () in
  let corpus =
    Corpus.create
      ~streams:[ case.Dpworkload.Motivating_case.stream ]
      ~specs:case.Dpworkload.Motivating_case.specs
  in
  check Alcotest.string "text-identical after roundtrip" (text_of corpus)
    (text_of (roundtrip corpus))

let test_binary_roundtrip_generated () =
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.03) in
  check Alcotest.string "text-identical after roundtrip" (text_of corpus)
    (text_of (roundtrip corpus))

let test_binary_smaller_than_text () =
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.03) in
  let bin = String.length (V2_frames.encode corpus) in
  let text = String.length (text_of corpus) in
  check Alcotest.bool "at least 3x smaller" true (bin * 3 < text)

let expect_corrupt data =
  match V2_frames.decode data with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt"

let test_binary_corruption () =
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.01) in
  let good = V2_frames.encode corpus in
  expect_corrupt "";
  expect_corrupt "XXXX\x01";
  expect_corrupt "DPTB\x01";
  expect_corrupt (String.sub good 0 (String.length good / 2));
  expect_corrupt (good ^ "trailing");
  (* Preserve the header but clobber the middle. *)
  let clobbered = Bytes.of_string good in
  for i = String.length good / 2 to (String.length good / 2) + 64 do
    if i < Bytes.length clobbered then Bytes.set clobbered i '\xff'
  done;
  expect_corrupt (Bytes.to_string clobbered)

(* One byte of one stream payload rewritten and the frame's CRC fixed up,
   so the stream decoder itself meets the damage: strict may only raise
   [Wire.Corrupt], recovery never raises. *)
let prop_binary_mutation_safety =
  let base =
    V2_frames.encode (Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.01))
  in
  let streams =
    match V2_frames.frame_spans base with
    | _header :: rest -> List.filteri (fun i _ -> i < List.length rest - 1) rest
    | [] -> []
  in
  QCheck.Test.make ~name:"mutated binary corpus never crashes" ~count:150
    QCheck.(triple small_nat (int_bound 1_000_000) (int_range 0 255))
    (fun (frame_seed, pos_seed, byte) ->
      let _, payload, len =
        List.nth streams (frame_seed mod List.length streams)
      in
      let b = Bytes.of_string base in
      Bytes.set b (payload + (pos_seed mod len)) (Char.chr byte);
      V2_frames.reseal b ~payload ~len;
      let data = Bytes.to_string b in
      (match V2_frames.decode data with _ -> true | exception Wire.Corrupt _ -> true)
      && (ignore (V2_frames.decode ~mode:`Recover data); true))

(* The binary v1 container is retired: its magic is no corpus magic, and
   its extension no corpus name. *)
let test_retired_v1_refused () =
  let dir = Filename.temp_dir "driveperf" "" in
  let old = Filename.concat dir "old.dpb" in
  Fun.protect ~finally:(fun () ->
      Sys.remove old;
      Sys.rmdir dir)
  @@ fun () ->
  let oc = open_out_bin old in
  output_string oc ("DPTB\x01" ^ String.make 400 '\x00');
  close_out oc;
  (match Dptrace.Corpus_dir.load old with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a binary v1 file");
  check Alcotest.int "scan skips it" 0
    (List.length (Dptrace.Corpus_dir.scan dir))

(* [Corpus_dir.reload]: the wanted streams come back whole, in file
   order, each once, equal to what a full load gives, from a file whose
   other frames it never parses: one of them carries a valid CRC around
   an unparsable payload, which fails a full load. *)
let test_keyed_reload () =
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.01) in
  let s0, s1, s2 =
    match corpus.Corpus.streams with
    | s0 :: s1 :: s2 :: _ -> (s0, s1, s2)
    | _ -> Alcotest.fail "corpus too small"
  in
  (* s1 twice: one key, repeated. *)
  let streams = [ s0; s1; s2; s1 ] in
  let clean = V2_frames.encode (Corpus.create ~streams ~specs:corpus.Corpus.specs) in
  let damaged =
    let b = Bytes.of_string clean in
    let _, payload, len = List.nth (V2_frames.frame_spans clean) 3 in
    Bytes.fill b payload len '\xff';
    V2_frames.reseal b ~payload ~len;
    Bytes.to_string b
  in
  let dir = Filename.temp_dir "driveperf" "" in
  let write name data =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc data);
    path
  in
  let clean = write "clean.dpf" clean and damaged = write "damaged.dpf" damaged in
  Fun.protect ~finally:(fun () ->
      List.iter Sys.remove [ clean; damaged ];
      Sys.rmdir dir)
  @@ fun () ->
  let text streams =
    Fixtures.corpus_to_string (Corpus.create ~streams ~specs:corpus.Corpus.specs)
  in
  let loaded =
    match Dptrace.Corpus_dir.load clean with
    | Ok l -> l.Dptrace.Corpus_dir.l_corpus.Corpus.streams
    | Error m -> Alcotest.fail m
  in
  check Alcotest.bool "a full load refuses the damaged file" true
    (Result.is_error (Dptrace.Corpus_dir.load damaged));
  let key = V2.stream_key in
  match Dptrace.Corpus_dir.reload damaged [ key s1; key s0; key s1 ] with
  | Error m -> Alcotest.fail m
  | Ok got ->
    check Alcotest.string "s0 and s1, once each, in file order, as loaded"
      (text (List.filteri (fun i _ -> i < 2) loaded))
      (text got);
    check Alcotest.bool "a missing key is an error" true
      (Dptrace.Corpus_dir.reload clean [ key s0; "00000000-0" ]
      = Error (clean ^ " changed since it was read"))

(* A text file folds a stream at a time: every stream before a malformed
   last one is stepped, in file order, and then the parse error comes
   back naming the file and line. *)
let test_text_fold_steps_before_error () =
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.01) in
  let text = Fixtures.corpus_to_string corpus in
  (* The last stream's [end] line becomes a bad directive before it. *)
  let line = List.length (String.split_on_char '\n' text) - 1 in
  let text = String.sub text 0 (String.length text - 4) ^ "bogus\nend\n" in
  let path = Filename.temp_file "driveperf_cut" ".dpt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let stepped = ref [] in
  let step _ f = stepped := (V2.frame_stream f).Stream.id :: !stepped in
  match Dptrace.Corpus_dir.fold ~step ~consume:(fun () -> None) path with
  | Ok _ -> Alcotest.fail "folded a malformed file"
  | Error m ->
    check Alcotest.string "file, line and message"
      (Printf.sprintf "%s:%d: unrecognised directive \"bogus\"" path line)
      m;
    let ids = List.map (fun (st : Stream.t) -> st.Stream.id) corpus.Corpus.streams in
    check Alcotest.(list int) "every stream before it stepped, in file order"
      (List.filteri (fun i _ -> i < List.length ids - 1) ids)
      (List.rev !stepped)

(* --- anonymiser --- *)

let small_corpus () = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.02)

let test_anonymize_preserves_analysis () =
  let corpus = small_corpus () in
  let anon, _ = Dptrace.Anonymize.corpus corpus in
  let a = driver_impact corpus in
  let b = driver_impact anon in
  check Alcotest.int "d_scn" a.Dpcore.Impact.d_scn b.Dpcore.Impact.d_scn;
  check Alcotest.int "d_wait" a.Dpcore.Impact.d_wait b.Dpcore.Impact.d_wait;
  check Alcotest.int "d_waitdist" a.Dpcore.Impact.d_waitdist b.Dpcore.Impact.d_waitdist;
  check Alcotest.int "d_run" a.Dpcore.Impact.d_run b.Dpcore.Impact.d_run

let all_signatures corpus =
  List.concat_map
    (fun (st : Stream.t) ->
      Array.to_list st.Stream.events
      |> List.concat_map (fun (e : Event.t) ->
             Array.to_list (Dptrace.Callstack.frames e.Event.stack)))
    corpus.Corpus.streams
  |> List.sort_uniq Dptrace.Signature.compare

let test_anonymize_scrubs_names () =
  let corpus = small_corpus () in
  let anon, mapping = Dptrace.Anonymize.corpus corpus in
  let names = List.map Dptrace.Signature.name (all_signatures anon) in
  (* No original driver names survive... *)
  List.iter
    (fun forbidden ->
      check Alcotest.bool (forbidden ^ " scrubbed") false
        (List.exists
           (fun n ->
             String.length n >= String.length forbidden
             && String.sub n 0 (String.length forbidden) = forbidden)
           names))
    [ "fv.sys"; "fs.sys"; "se.sys"; "av.sys"; "Browser"; "AntiVirus" ];
  (* ...but the .sys structure does, so component filters still work. *)
  check Alcotest.bool "drvN.sys present" true
    (List.exists
       (fun n ->
         Dputil.Wildcard.matches_any [ Dputil.Wildcard.compile "drv*.sys" ]
           (Dptrace.Signature.module_part (Dptrace.Signature.of_string n)))
       names);
  (* Kernel frames and hardware dummies are infrastructure: untouched. *)
  check Alcotest.bool "kernel kept" true
    (List.exists (fun n -> n = "kernel!AcquireLock" || n = "kernel!WaitForObject") names);
  check Alcotest.bool "DiskService kept" true (List.mem "DiskService" names);
  check Alcotest.bool "mapping non-empty" true (mapping <> [])

let test_anonymize_deterministic_and_consistent () =
  let corpus = small_corpus () in
  let a, _ = Dptrace.Anonymize.corpus corpus in
  let b, _ = Dptrace.Anonymize.corpus corpus in
  check Alcotest.string "deterministic" (text_of a) (text_of b)

let test_anonymize_scenarios () =
  let corpus = small_corpus () in
  let anon, _ = Dptrace.Anonymize.corpus corpus in
  check Alcotest.bool "scenario names scrubbed" false
    (List.mem "BrowserTabCreate" (Corpus.scenario_names anon));
  let kept, _ = Dptrace.Anonymize.corpus ~keep_scenarios:true corpus in
  check Alcotest.bool "scenario names kept on demand" true
    (List.mem "BrowserTabCreate" (Corpus.scenario_names kept));
  (* Specs follow the instances so classification still works. *)
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " has spec") true
        (Corpus.find_spec anon name <> None))
    (Corpus.scenario_names anon)

let () =
  Alcotest.run "formats"
    [
      ( "etw import",
        [
          Alcotest.test_case "sample coalescing" `Quick test_etw_sample_coalescing;
          Alcotest.test_case "gap breaks coalescing" `Quick test_etw_gap_breaks_coalescing;
          Alcotest.test_case "wait reconstruction" `Quick test_etw_wait_reconstruction;
          Alcotest.test_case "open wait dropped" `Quick test_etw_open_wait_dropped;
          Alcotest.test_case "disk io / threads" `Quick test_etw_diskio_and_threads;
          Alcotest.test_case "marks" `Quick test_etw_marks;
          Alcotest.test_case "parse errors" `Quick test_etw_errors;
          Alcotest.test_case "error lines" `Quick test_etw_error_line_number;
          Alcotest.test_case "end-to-end analysis" `Quick test_etw_end_to_end_analysis;
          Alcotest.test_case "export/import roundtrip (case)" `Quick
            test_etw_roundtrip_motivating_case;
          Alcotest.test_case "export/import roundtrip (corpus)" `Quick
            test_etw_roundtrip_generated;
          QCheck_alcotest.to_alcotest prop_etw_mutation_safety;
          Alcotest.test_case "words per line" `Quick test_etw_words_per_line;
        ] );
      ( "tokenizer",
        [
          Alcotest.test_case "edge cases" `Quick test_tokenizer_edges;
          Alcotest.test_case "first bad field named" `Quick test_first_bad_field;
          QCheck_alcotest.to_alcotest prop_dpt_oracle;
          QCheck_alcotest.to_alcotest prop_etw_oracle;
        ] );
      ( "binary codec",
        [
          Alcotest.test_case "roundtrip (case)" `Quick test_binary_roundtrip_small;
          Alcotest.test_case "roundtrip (generated)" `Quick
            test_binary_roundtrip_generated;
          Alcotest.test_case "smaller than text" `Quick test_binary_smaller_than_text;
          Alcotest.test_case "corruption handling" `Quick test_binary_corruption;
          QCheck_alcotest.to_alcotest prop_binary_mutation_safety;
          Alcotest.test_case "keyed reload parses only wanted frames" `Quick
            test_keyed_reload;
          Alcotest.test_case "retired v1 container refused" `Quick
            test_retired_v1_refused;
          Alcotest.test_case "text file folds a stream at a time" `Quick
            test_text_fold_steps_before_error;
        ] );
      ( "anonymize",
        [
          Alcotest.test_case "analysis preserved" `Quick test_anonymize_preserves_analysis;
          Alcotest.test_case "names scrubbed" `Quick test_anonymize_scrubs_names;
          Alcotest.test_case "deterministic" `Quick
            test_anonymize_deterministic_and_consistent;
          Alcotest.test_case "scenario handling" `Quick test_anonymize_scenarios;
        ] );
    ]
