(* Tests for the Aggregated Wait Graph (Definitions 2-3, Algorithm 1). *)

module P = Dpsim.Program
module Engine = Dpsim.Engine
module Time = Dputil.Time
module Awg = Dpcore.Awg
module WG = Dpwaitgraph.Wait_graph

let check = Alcotest.check
let sig_ = Dptrace.Signature.of_string
let drivers = Dpcore.Component.drivers

(* One contention episode: victim (instance) blocks on a driver lock whose
   holder performs a served disk read. *)
let episode ~stream_id ~hold_ms =
  let engine = Engine.create ~stream_id () in
  let lock = Engine.new_lock engine ~name:"L" in
  let disk = Engine.new_device engine ~name:"D" ~signature:(sig_ "DiskService") in
  let svc = Engine.new_service engine ~name:"W" ~worker_stack:[ P.kernel_worker ] in
  let _holder =
    Engine.spawn engine ~start_at:0 ~name:"h" ~base_stack:[ sig_ "bg!w" ]
      [
        P.call (sig_ "d.sys!Route")
          [
            P.locked lock
              [
                P.request svc
                  [ P.call (sig_ "e.sys!Read") [ P.hw disk (Time.ms hold_ms) ] ];
              ];
          ];
      ]
  in
  let _victim =
    Engine.spawn engine ~scenario:"S" ~start_at:(Time.ms 1) ~name:"v"
      ~base_stack:[ sig_ "app!op" ]
      [ P.call (sig_ "d.sys!Route") [ P.locked lock [ P.compute (Time.ms 1) ] ] ]
  in
  Engine.run engine

let graphs_of st =
  let index = Dptrace.Stream.index st in
  List.map (WG.build ~index st) st.Dptrace.Stream.instances

let waiting_root awg =
  List.find
    (fun n -> match n.Awg.status with Awg.Waiting _ -> true | _ -> false)
    (Awg.roots awg)

let test_structure_and_signatures () =
  let awg = Awg.build drivers (graphs_of (episode ~stream_id:0 ~hold_ms:30)) in
  (* Roots: the victim's driver wait plus its own driver compute. *)
  check Alcotest.int "two roots" 2 (List.length (Awg.roots awg));
  let root = waiting_root awg in
  (match root.Awg.status with
  | Awg.Waiting { wait_sig; unwait_sig } ->
    check Alcotest.string "wait sig" "d.sys!Route" (Dptrace.Signature.name wait_sig);
    check Alcotest.string "unwait sig" "d.sys!Route"
      (Dptrace.Signature.name unwait_sig)
  | _ -> Alcotest.fail "expected a waiting root");
  check Alcotest.int "root count" 1 root.Awg.count;
  (* Child: the holder's wait on its worker (d.sys!Route → kernel). *)
  check Alcotest.bool "has children" true (Hashtbl.length root.Awg.children > 0)

let test_merging_accumulates () =
  let g1 = graphs_of (episode ~stream_id:0 ~hold_ms:30) in
  let g2 = graphs_of (episode ~stream_id:1 ~hold_ms:50) in
  let awg = Awg.build drivers (g1 @ g2) in
  check Alcotest.int "merged roots" 2 (List.length (Awg.roots awg));
  let root = waiting_root awg in
  check Alcotest.int "N accumulates" 2 root.Awg.count;
  check Alcotest.bool "C sums" true (root.Awg.cost > Time.ms 70);
  check Alcotest.bool "max_cost tracks biggest" true
    (root.Awg.max_cost >= Time.ms 49 && root.Awg.max_cost < Time.ms 52)

let test_irrelevant_nodes_promoted () =
  (* Victim waits with app-only frames: its wait node must be eliminated
     and the holder's driver activity promoted to the roots. *)
  let engine = Engine.create ~stream_id:0 () in
  let q = Engine.new_lock engine ~name:"Q" in
  let _holder =
    Engine.spawn engine ~start_at:0 ~name:"h" ~base_stack:[ sig_ "bg!w" ]
      [
        P.locked
          ~acquire_frames:[ sig_ "App!Queue" ]
          q
          [ P.compute ~frame:(sig_ "d.sys!Busy") (Time.ms 10) ];
      ]
  in
  let _victim =
    Engine.spawn engine ~scenario:"S" ~start_at:(Time.ms 1) ~name:"v"
      ~base_stack:[ sig_ "app!op" ]
      [ P.locked ~acquire_frames:[ sig_ "App!Queue" ] q [ P.compute (Time.ms 1) ] ]
  in
  let st = Engine.run engine in
  let awg = Awg.build drivers (graphs_of st) in
  match Awg.roots awg with
  | [ root ] ->
    (match root.Awg.status with
    | Awg.Running s ->
      check Alcotest.string "promoted driver running" "d.sys!Busy"
        (Dptrace.Signature.name s)
    | _ -> Alcotest.fail "expected a running root after promotion")
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let direct_hw_episode () =
  let engine = Engine.create ~stream_id:0 () in
  let disk = Engine.new_device engine ~name:"D" ~signature:(sig_ "DiskService") in
  let _victim =
    Engine.spawn engine ~scenario:"S" ~start_at:0 ~name:"v"
      ~base_stack:[ sig_ "app!op" ]
      [ P.call (sig_ "d.sys!Read") [ P.hw disk (Time.ms 25) ] ]
  in
  Engine.run engine

let test_reduction_prunes_direct_hw () =
  let graphs = graphs_of (direct_hw_episode ()) in
  let reduced = Awg.build ~reduce:true drivers graphs in
  check Alcotest.int "pruned away" 0 (List.length (Awg.roots reduced));
  let red = Awg.reduction reduced in
  check Alcotest.int "one pruned root" 1 red.Awg.pruned_roots;
  check Alcotest.int "pruned cost is the wait" (Time.ms 25) red.Awg.pruned_cost;
  check (Alcotest.float 1e-9) "fully non-optimisable" 1.0
    (Awg.non_optimizable_fraction reduced);
  let unreduced = Awg.build ~reduce:false drivers graphs in
  check Alcotest.int "kept without reduction" 1 (List.length (Awg.roots unreduced))

let test_reduction_keeps_propagated () =
  (* A wait with a hardware leaf AND a running child survives. *)
  let engine = Engine.create ~stream_id:0 () in
  let disk = Engine.new_device engine ~name:"D" ~signature:(sig_ "DiskService") in
  let svc = Engine.new_service engine ~name:"W" ~worker_stack:[ P.kernel_worker ] in
  let _victim =
    Engine.spawn engine ~scenario:"S" ~start_at:0 ~name:"v"
      ~base_stack:[ sig_ "app!op" ]
      [
        P.call (sig_ "d.sys!Read")
          [
            P.request svc
              [
                P.call (sig_ "e.sys!Srv")
                  [ P.hw disk (Time.ms 10); P.compute ~frame:(sig_ "e.sys!Cpu") (Time.ms 5) ];
              ];
          ];
      ]
  in
  let st = Engine.run engine in
  let awg = Awg.build ~reduce:true drivers (graphs_of st) in
  check Alcotest.bool "survives reduction" true (Awg.roots awg <> [])

let test_segments_and_paths () =
  let awg = Awg.build drivers (graphs_of (episode ~stream_id:0 ~hold_ms:30)) in
  let n = Awg.node_count awg in
  (* k=1 segments are exactly the nodes. *)
  let k1 = ref 0 in
  Mining_reference.iter_segments awg ~k:1 ~f:(fun seg ->
      check Alcotest.int "length 1" 1 (List.length seg);
      incr k1);
  check Alcotest.int "one segment per node" n !k1;
  (* Larger k yields strictly more segments on a chain. *)
  let k3 = ref 0 in
  Mining_reference.iter_segments awg ~k:3 ~f:(fun seg ->
      check Alcotest.bool "bounded" true (List.length seg <= 3);
      incr k3);
  check Alcotest.bool "more segments with larger k" true (!k3 > !k1);
  (* Full paths end at leaves. *)
  List.iter
    (fun path ->
      let leaf = List.nth path (List.length path - 1) in
      check Alcotest.int "leaf has no children" 0 (Hashtbl.length leaf.Awg.children))
    (Awg.full_paths awg)

let test_segment_count_formula () =
  (* A linear chain of n nodes has sum_{i=1..n} min(k, n-i+1) downward
     segments. Build one via nested service requests. *)
  let engine = Engine.create ~stream_id:0 () in
  let svc = Engine.new_service engine ~name:"W" ~worker_stack:[ P.kernel_worker ] in
  let _v =
    Engine.spawn engine ~scenario:"S" ~start_at:0 ~name:"v"
      ~base_stack:[ sig_ "app!op" ]
      [
        P.call (sig_ "a.sys!L1")
          [
            P.request svc
              [
                P.call (sig_ "b.sys!L2")
                  [
                    P.request svc
                      [ P.compute ~frame:(sig_ "c.sys!Leaf") (Time.ms 5) ];
                  ];
              ];
          ];
      ]
  in
  let st = Engine.run engine in
  let awg = Awg.build ~reduce:false drivers (graphs_of st) in
  (* Chain: Waiting(a.sys) -> Waiting(b.sys) -> Running(c.sys): n = 3. *)
  check Alcotest.int "three nodes" 3 (Awg.node_count awg);
  check Alcotest.int "one full path" 1 (List.length (Awg.full_paths awg));
  let count k =
    let n = ref 0 in
    Mining_reference.iter_segments awg ~k ~f:(fun _ -> incr n);
    !n
  in
  check Alcotest.int "k=1: 3 segments" 3 (count 1);
  check Alcotest.int "k=2: 3+2 segments" 5 (count 2);
  check Alcotest.int "k=3: 3+2+1 segments" 6 (count 3);
  check Alcotest.int "k=4 saturates" 6 (count 4)

let test_costs_consistency () =
  let awg = Awg.build drivers (graphs_of (episode ~stream_id:0 ~hold_ms:30)) in
  check Alcotest.bool "leaf cost <= total cost" true
    (Awg.total_leaf_cost awg <= Awg.total_cost awg);
  check Alcotest.bool "positive" true (Awg.total_cost awg > 0)

let test_empty_awg () =
  let awg = Awg.build drivers [] in
  check Alcotest.int "no nodes" 0 (Awg.node_count awg);
  check (Alcotest.list Alcotest.string) "no paths" []
    (List.map (fun _ -> "p") (Awg.full_paths awg));
  check (Alcotest.float 1e-9) "fraction 0" 0.0 (Awg.non_optimizable_fraction awg)

let test_render_smoke () =
  let awg = Awg.build drivers (graphs_of (episode ~stream_id:0 ~hold_ms:30)) in
  let s = Awg.render awg in
  check Alcotest.bool "mentions d.sys" true
    (String.length s > 0
    &&
    let rec contains i =
      i + 5 <= String.length s && (String.sub s i 5 = "d.sys" || contains (i + 1))
    in
    contains 0)

(* A partial's root count above the bytes left is refused as an element
   count before any root is read: every root takes at least one byte. *)
let test_partial_count_bounded () =
  let module Wire = Dptrace.Wire in
  let st = episode ~stream_id:0 ~hold_ms:30 in
  let tables = Fixtures.with_tables st (fun _ _ -> ()) in
  let encoded =
    Fixtures.with_tables st (fun tabs buf ->
        Awg.Partial.write tabs buf (Awg.Partial.build drivers (graphs_of st)))
  in
  let body = String.sub encoded (String.length tables) (String.length encoded - String.length tables) in
  let cur = Wire.cursor body in
  ignore (Wire.rv cur : int);
  let rest = String.sub body cur.Wire.pos (String.length body - cur.Wire.pos) in
  let forged = Buffer.create 256 in
  Buffer.add_string forged tables;
  Wire.wv forged (String.length rest + 1);
  Buffer.add_string forged rest;
  let names_count m =
    let pat = "element count" in
    let rec at i =
      i + String.length pat <= String.length m
      && (String.sub m i (String.length pat) = pat || at (i + 1))
    in
    at 0
  in
  match Fixtures.read_tabled Awg.Partial.read (Buffer.contents forged) with
  | exception Wire.Corrupt m ->
    check Alcotest.bool ("count refused: " ^ m) true (names_count m)
  | _ -> Alcotest.fail "accepted a root count above the bytes left"

(* Root and child sibling sets over the names [name 0 .. name 7]: the
   holder runs three computes (children of the victim's wait) under the
   lock the victim waits on, and the victim runs three more computes
   (roots beside its wait). [name] is called in index order, so a fresh
   name is interned in that order. *)
let named_episode name =
  let engine = Engine.create ~stream_id:0 () in
  let lock = Engine.new_lock engine ~name:"L" in
  let computes lo = List.init 3 (fun i -> P.compute ~frame:(name (lo + i)) (Time.ms (i + 1))) in
  let _holder =
    Engine.spawn engine ~start_at:0 ~name:"h" ~base_stack:[ sig_ "bg!w" ]
      [ P.call (name 0) [ P.locked lock (computes 1) ] ]
  in
  let _victim =
    Engine.spawn engine ~scenario:"S" ~start_at:(Time.ms 1) ~name:"v"
      ~base_stack:[ sig_ "app!op" ]
      (P.call (name 4) [ P.locked lock [ P.compute (Time.ms 1) ] ] :: computes 5)
  in
  Engine.run engine

let substitute ~from ~into s =
  let n = String.length from in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i >= String.length s then ()
    else if i + n <= String.length s && String.sub s i n = from then begin
      Buffer.add_string b into;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* A partial's bytes depend on its names, not on the order they were
   interned in. The renamed copy swaps a module name for another of the
   same length, which keeps every name's length and relative byte order;
   its names are interned in reverse order before anything is built. *)
let test_partial_bytes_ignore_interning () =
  let fresh i = sig_ (Printf.sprintf "ordp.sys!f%d" i)
  and renamed i = Printf.sprintf "ordq.sys!f%d" i in
  for i = 7 downto 0 do
    ignore (sig_ (renamed i))
  done;
  let bytes name =
    let st = named_episode name in
    Fixtures.with_tables st (fun tabs buf ->
        Awg.Partial.write tabs buf (Awg.Partial.build drivers (graphs_of st)))
  in
  let original = bytes fresh and copy = bytes (fun i -> sig_ (renamed i)) in
  check Alcotest.bool "several sibling statuses" true (String.length original > 100);
  check Alcotest.string "equal modulo the renaming"
    (substitute ~from:"ordp.sys" ~into:"ordq.sys" original)
    copy

(* --- merge-while-walking ≡ the convert-then-merge reference --- *)

let component_sets =
  [|
    drivers;
    Dpcore.Component.of_patterns [ "*" ];
    Dpcore.Component.of_patterns [ "*s*"; "app*" ];
  |]

(* Each stream's partial over all its graphs, as bytes, built both ways. *)
let partials_agree components (corpus : Dptrace.Corpus.t) =
  List.for_all
    (fun st ->
      let graphs = graphs_of st in
      Fixtures.with_tables st (fun tabs buf ->
          Awg.Partial.write tabs buf (Awg.Partial.build components graphs))
      = Awg_reference.partial_bytes components st graphs)
    corpus.Dptrace.Corpus.streams

let with_provenance on f =
  if on then Dpcore.Provenance.enable ();
  Fun.protect ~finally:Dpcore.Provenance.disable f

let prop_partial_equals_reference =
  QCheck.Test.make ~name:"Partial.build bytes = convert/merge reference" ~count:8
    QCheck.(triple (int_range 1 10_000) (int_range 0 2) bool)
    (fun (seed, which, prov) ->
      let corpus = Graph_inputs.corpus seed in
      with_provenance prov @@ fun () -> partials_agree component_sets.(which) corpus)

let test_adversarial_partials () =
  let corpus = Graph_inputs.adversarial () in
  Array.iter
    (fun components ->
      List.iter
        (fun prov ->
          check Alcotest.bool "same bytes" true
            (with_provenance prov @@ fun () -> partials_agree components corpus))
        [ false; true ])
    component_sets

(* --- witnesses: sealed chunks against the hash-table oracle --- *)

module Prov = Dpcore.Provenance
module Wire = Dptrace.Wire

(* 48 refs over 24 identities — 4 stream ids, 3 starts, 2 names — each
   identity with two ends, so refs that differ only in [t1] meet. *)
let ref_pool =
  Array.of_list
    (List.concat_map
       (fun stream_id ->
         List.concat_map
           (fun t0 ->
             List.concat_map
               (fun scenario ->
                 List.map (fun t1 -> { Prov.stream_id; scenario; tid = 1; t0; t1 }) [ 100; 101 ])
               [ "A"; "B" ])
           [ 0; 5; 9 ])
       [ 0; 1; 2; 3 ])

let caps = QCheck.Gen.oneofl [ 1; 2; 3; 8; 100 ]

(* Chunks, each one stream's, as a merge supports: a distinct stream id
   per chunk, drawn in shuffled order (so not monotone in absorb order),
   and adds [(pool index, cost)] over the pool's refs moved to that id,
   so pool refs of other ids become equal refs of this one. An index
   past the pool repeats the chunk's previous ref, the same value, as
   one graph's adds do. Then a cap of at most [default_k]. *)
let gen_wacc_case =
  QCheck.Gen.(
    let* chunks = int_range 1 40 in
    let* ids = shuffle_l (List.init chunks (fun i -> 3 * i)) in
    let* adds =
      list_repeat chunks (list_size (int_range 0 12) (pair (int_bound 71) (int_bound 30)))
    in
    let* cap = oneofl [ 1; 2; 3; 8 ] in
    return (List.combine ids adds, cap))

(* The chunks built by adds into a partial's cells, sealed and merged
   in order, as an AWG merger node takes them, and by the oracle; with
   each chunk and its stream id. *)
let accumulate chunks =
  let into = Prov.Wacc.create () and oracle = Provenance_reference.Wacc.create () in
  let chunk (stream_id, adds) =
    let refs = Array.map (fun r -> { r with Prov.stream_id }) ref_pool in
    let cells = ref [||] and last = ref 0 in
    List.iter
      (fun (i, cost) ->
        let i = if i < Array.length refs then i else !last in
        last := i;
        cells := Prov.Wacc.add_cell !cells i ~cost;
        Provenance_reference.Wacc.add oracle refs.(i) ~cost)
      adds;
    let chunk = Prov.Wacc.chunk refs !cells in
    Prov.Wacc.merge_chunk ~into chunk;
    (stream_id, chunk)
  in
  let chunks = List.map chunk chunks in
  (into, oracle, chunks)

let take n l = List.filteri (fun i _ -> i < n) l

(* The chunks' entries together are the oracle's, and each chunk's wire
   form reads back under its stream id. A merge keeps a node's best, so
   its buffer holds exactly the oracle's best [default_k]. *)
let prop_wacc_equals_reference =
  QCheck.Test.make ~name:"Wacc to_wset/entries/wire = hash-table oracle" ~count:500
    (QCheck.make gen_wacc_case) (fun (chunks, cap) ->
      let acc, oracle, chunks = accumulate chunks in
      let expect = Provenance_reference.Wacc.entries oracle in
      let reread (id, chunk) =
        let st = Fixtures.stream_of_refs id (Array.to_list ref_pool) in
        let data = Fixtures.with_tables st (fun tabs buf -> Prov.Wset.write tabs buf chunk) in
        Prov.Wset.entries (Fixtures.read_tabled ~id Prov.Wset.read data) = Prov.Wset.entries chunk
      in
      List.sort Provenance_reference.order (List.concat_map (fun (_, c) -> Prov.Wset.entries c) chunks)
      = expect
      && List.for_all reread chunks
      && Prov.Wset.entries (Prov.Wacc.to_wset ~cap acc)
         = Provenance_reference.Wacc.to_entries ~cap oracle
      && Prov.Wset.entries (Prov.Wacc.to_wset acc) = take Prov.default_k expect)

(* Two sides, each folded from single entries by [union], so a side's
   draw repeats refs (and their [t1] twins), which the other side shares. *)
let prop_union_equals_reference =
  let side = QCheck.Gen.(list_size (int_range 0 12) (pair (int_bound 47) (int_bound 30))) in
  QCheck.Test.make ~name:"Wset.union = hash-table oracle" ~count:500
    (QCheck.make QCheck.Gen.(triple side side caps))
    (fun (a, b, cap) ->
      let entry (i, cost) = (ref_pool.(i), cost, 1 + (cost mod 3)) in
      let fold l =
        List.fold_left
          (fun acc x -> Prov.Wset.union ~cap acc (Provenance_reference.wset_of_entries [ entry x ]))
          Prov.Wset.empty l
      and ofold l =
        List.fold_left (fun acc x -> Provenance_reference.union_entries ~cap acc [ entry x ]) [] l
      in
      Prov.Wset.entries (Prov.Wset.union ~cap (fold a) (fold b))
      = Provenance_reference.union_entries ~cap (ofold a) (ofold b))

(* A partial of one root [Running m!f] whose witnesses are [entries],
   written as given, after the tables of a stream of the entries' id
   whose instances are the entries' distinct refs. *)
let one_node_partial entries =
  let refs = List.sort_uniq compare (List.map (fun (r, _, _) -> r) entries) in
  let id = match refs with r :: _ -> r.Prov.stream_id | [] -> 0 in
  Fixtures.with_tables (Fixtures.stream_of_refs id refs) (fun tabs b ->
      Wire.wv b 1;
      Wire.w8 b 1;
      Prov.Tables.wname tabs b "m!f";
      for _ = 1 to 3 do Wire.wv b 0 done;
      Wire.wv b (List.length entries);
      List.iter
        (fun (r, cost, count) ->
          Prov.Tables.wref tabs b r;
          Wire.wv b cost;
          Wire.wv b count)
        entries;
      Wire.wv b 0)

let read_partial ?build ?id s = Fixtures.read_tabled ?build ?id Awg.Partial.read s

(* Witness entries are stored canonical, so the reader, and the walk
   alike, refuse two swapped, a duplicate, and a duplicate differing
   only in [t1]; entries in order pass both. *)
let test_witness_order_checked () =
  let e i cost = (ref_pool.(i), cost, 1) in
  let verdict build s =
    match read_partial ~build s with _ -> Ok () | exception Wire.Corrupt m -> Error m
  in
  let refused = Error "witnesses: entries not strictly increasing" in
  List.iter
    (fun (case, entries, expect) ->
      let s = one_node_partial entries in
      check Alcotest.(result unit string) (case ^ ": read") expect (verdict true s);
      check Alcotest.(result unit string) (case ^ ": walk") expect (verdict false s))
    [
      ("in order", [ e 0 9; e 2 9; e 4 3 ], Ok ());
      ("swapped", [ e 1 3; e 0 9 ], refused);
      ("swapped on a cost tie", [ e 2 9; e 0 9 ], refused);
      ("duplicate", [ e 0 9; e 0 9 ], refused);
      ("t1 twins", [ e 0 9; e 1 9 ], refused);
    ]

(* Absorbing a one-node partial conses its sealed chunk: the words it
   allocates do not depend on how many witnesses the node carries. *)
let test_absorb_words_constant () =
  let words n =
    let entries =
      List.init n (fun t0 -> ({ Prov.stream_id = 0; scenario = "S"; tid = 1; t0; t1 = t0 + 1 }, 5, 1))
    in
    let p = read_partial (one_node_partial entries) in
    let m = Awg.Partial.merger () in
    let (), words = Fixtures.words_allocated (fun () -> Awg.Partial.absorb m p) in
    match Awg.roots (Awg.Partial.merged ~reduce:false m) with
    | [ root ] ->
      check Alcotest.int "the costliest cap survive" (min n Prov.default_k)
        (List.length (Prov.Wset.entries root.Awg.witnesses));
      words
    | _ -> Alcotest.fail "one root expected"
  in
  check (Alcotest.float 0.) "10 vs 10k witness entries" (words 10) (words 10_000)

(* --- mergers over distinct stream ids: the best K kept while absorbing --- *)

(* Every node of a finished AWG: status, aggregates and witnesses. *)
let forest_repr awg =
  let b = Buffer.create 4096 in
  let rec go depth (n : Awg.node) =
    Buffer.add_string b
      (Format.asprintf "%d %a C=%d N=%d max=%d" depth Awg.status_pp n.Awg.status n.Awg.cost
         n.Awg.count n.Awg.max_cost);
    List.iter
      (fun (r, cost, count) ->
        Buffer.add_string b (Format.asprintf " [%a %d %d]" Prov.pp_ref r cost count))
      (Prov.Wset.entries n.Awg.witnesses);
    Buffer.add_char b '\n';
    Array.iter (go (depth + 1)) (Awg.sorted_children n)
  in
  List.iter (go 0) (Awg.roots awg);
  let r = Awg.reduction awg in
  Buffer.add_string b (Printf.sprintf "pruned %d %d of %d\n" r.Awg.pruned_roots
    r.Awg.pruned_cost r.Awg.total_root_cost);
  Buffer.contents b

(* A generated corpus's streams under distinct ids in shuffled order,
   each stream's partial absorbed by a merger and by the reference
   accumulator: the frozen forest is the one [Awg.build] makes of every
   graph in one pass, byte for byte, and each node's witnesses are the
   oracle's. *)
let prop_merger_equals_reference =
  QCheck.Test.make ~name:"merger over distinct stream ids = hash-table oracle" ~count:6
    QCheck.(triple (int_range 1 10_000) (int_range 0 2) (int_range 0 1_000))
    (fun (seed, which, shuffle) ->
      let components = component_sets.(which) in
      let streams = (Graph_inputs.corpus seed).Dptrace.Corpus.streams in
      let ids =
        QCheck.Gen.generate1 ~rand:(Random.State.make [| shuffle |])
          (QCheck.Gen.shuffle_l (List.mapi (fun i _ -> 5 * i) streams))
      in
      let streams =
        List.map2
          (fun id (st : Dptrace.Stream.t) ->
            Dptrace.Stream.create ~id ~events:st.Dptrace.Stream.events
              ~instances:st.Dptrace.Stream.instances ~threads:st.Dptrace.Stream.threads)
          ids streams
      in
      with_provenance true @@ fun () ->
      let merger = Awg.Partial.merger () and oracle = Hashtbl.create 64 in
      List.iter
        (fun st ->
          let graphs = graphs_of st in
          Awg.Partial.absorb merger (Awg.Partial.build components graphs);
          Awg_reference.absorb oracle (Awg_reference.partial components graphs))
        streams;
      let merged = Awg.Partial.merged merger in
      let table = Awg_reference.witness_table merged oracle in
      forest_repr merged = forest_repr (Awg.build components (List.concat_map graphs_of streams))
      && Awg_reference.Nodes.fold
           (fun (n : Awg.node) w ok ->
             ok && Prov.Wset.entries n.Awg.witnesses = Prov.Wset.entries w)
           table true
      && Awg_reference.Nodes.length table = Awg.node_count merged)

(* One node absorbing one stream's three witnesses per partial, each
   stream costlier than the last, so the kept set keeps changing: the
   merger's words after 2,000 streams stay under the most it held over
   the first 100, and it keeps the costliest 8, from the last three
   streams. *)
let test_distinct_retention () =
  let part i =
    let w t0 cost = ({ Prov.stream_id = i; scenario = "S"; tid = 1; t0; t1 = 9 }, cost, 1) in
    read_partial ~id:i (one_node_partial [ w 0 ((3 * i) + 2); w 1 ((3 * i) + 1); w 2 (3 * i) ])
  in
  let merger = Awg.Partial.merger () in
  let words m = Obj.reachable_words (Obj.repr m) in
  let bound = ref 0 in
  for i = 0 to 1_999 do
    Awg.Partial.absorb merger (part i);
    if i < 100 then bound := max !bound (words merger)
    else if words merger > !bound then
      Alcotest.failf "after %d streams the merger holds %d words, above %d" (i + 1)
        (words merger) !bound
  done;
  match Awg.roots (Awg.Partial.merged ~reduce:false merger) with
  | [ root ] ->
    check
      Alcotest.(list int)
      "the costliest 8"
      (List.init 8 (fun j -> (3 * 1_999) + 2 - j))
      (List.map (fun (_, cost, _) -> cost) (Prov.Wset.entries root.Awg.witnesses))
  | _ -> Alcotest.fail "one root expected"

(* [Awg.Partial.build] over each fast and slow class of each stream of
   a scale-0.2 corpus, as the step builds them, allocates with
   provenance on at most 1.4 times its words with it off (1.27 here;
   1.69 when each node's witnesses were consed cells sealed through
   sorts that allocate). Off, it allocates no more than the 578,735
   words it took then. *)
let test_partial_words () =
  let corpus, streams = Graph_inputs.words_corpus () in
  let instance (g : Dpwaitgraph.Wait_graph.t) = g.Dpwaitgraph.Wait_graph.instance in
  let classes graphs =
    List.sort_uniq compare (List.map (fun g -> (instance g).Dptrace.Scenario.scenario) graphs)
    |> List.filter_map (Dptrace.Corpus.find_spec corpus)
    |> List.concat_map (fun (spec : Dptrace.Scenario.spec) ->
           List.map
             (fun cls ->
               List.filter
                 (fun g ->
                   (instance g).Dptrace.Scenario.scenario = spec.Dptrace.Scenario.name
                   && Dptrace.Scenario.classify spec (instance g) = cls)
                 graphs)
             [ Dptrace.Scenario.Fast; Dptrace.Scenario.Slow ])
  in
  let off, on =
    Graph_inputs.words_off_on (Awg.Partial.build drivers) (List.concat_map classes streams)
  in
  Printf.printf "partial words: off %.0f, on %.0f (%.2fx)\n" off on (on /. off);
  if on > 1.4 *. off then Alcotest.failf "provenance on: %.0f words, %.2fx off's" on (on /. off);
  if off > 578_735. then Alcotest.failf "provenance off: %.0f words" off

let () =
  Alcotest.run "dpcore-awg"
    [
      ( "awg",
        [
          Alcotest.test_case "structure/signatures" `Quick test_structure_and_signatures;
          Alcotest.test_case "merging accumulates" `Quick test_merging_accumulates;
          Alcotest.test_case "irrelevant promoted" `Quick test_irrelevant_nodes_promoted;
          Alcotest.test_case "reduction prunes direct hw" `Quick
            test_reduction_prunes_direct_hw;
          Alcotest.test_case "reduction keeps propagated" `Quick
            test_reduction_keeps_propagated;
          Alcotest.test_case "segments and paths" `Quick test_segments_and_paths;
          Alcotest.test_case "segment count formula" `Quick test_segment_count_formula;
          Alcotest.test_case "cost consistency" `Quick test_costs_consistency;
          Alcotest.test_case "empty" `Quick test_empty_awg;
          Alcotest.test_case "render smoke" `Quick test_render_smoke;
          Alcotest.test_case "partial count bounded by the bytes left" `Quick
            test_partial_count_bounded;
          Alcotest.test_case "partial bytes do not depend on interning order" `Quick
            test_partial_bytes_ignore_interning;
          QCheck_alcotest.to_alcotest prop_partial_equals_reference;
          Alcotest.test_case "adversarial streams = reference" `Quick
            test_adversarial_partials;
          QCheck_alcotest.to_alcotest prop_wacc_equals_reference;
          QCheck_alcotest.to_alcotest prop_union_equals_reference;
          Alcotest.test_case "wire order checked by read and walk" `Quick
            test_witness_order_checked;
          Alcotest.test_case "absorb allocation independent of witness count" `Quick
            test_absorb_words_constant;
          QCheck_alcotest.to_alcotest prop_merger_equals_reference;
          Alcotest.test_case "distinct merger keeps at most K witnesses per node" `Quick
            test_distinct_retention;
          Alcotest.test_case "partial build words with witnesses" `Quick test_partial_words;
        ] );
    ]
