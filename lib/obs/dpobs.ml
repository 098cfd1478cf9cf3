(* Self-telemetry: spans, metrics registry, export, logging, progress.
   See dpobs.mli for the contract. Design invariants:

   - Disabled sites cost one atomic load + branch and allocate nothing.
   - Span recording is per-domain: each domain appends to its own buffer
     (registered globally on first use), so recording takes no lock and
     the pool's workers never contend on telemetry.
   - Merging (export, durations) is only done at quiescence. *)

let now_ns = Monotonic_clock.now

let spans_flag = Atomic.make false
let metrics_flag = Atomic.make false
let metrics_on () = Atomic.get metrics_flag

let enable ?(spans = true) ?(metrics = true) () =
  if spans then Atomic.set spans_flag true;
  if metrics then Atomic.set metrics_flag true

let disable () =
  Atomic.set spans_flag false;
  Atomic.set metrics_flag false

(* --- logging --- *)

module Log = struct
  type level = Dputil.Logf.level = Error | Warn | Info | Debug

  let set_level = Dputil.Logf.set_level

  let level_of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "error" -> Ok Error
    | "warn" | "warning" -> Ok Warn
    | "info" -> Ok Info
    | "debug" -> Ok Debug
    | other -> Error (Printf.sprintf "unknown log level %S" other)

  let init_from_env () =
    match Sys.getenv_opt "DRIVEPERF_LOG" with
    | None -> ()
    | Some s -> (
      match level_of_string s with
      | Ok l -> set_level l
      | Error msg -> Dputil.Logf.warn "DRIVEPERF_LOG: %s" msg)

  let error fmt = Dputil.Logf.logf Dputil.Logf.Error fmt
  let warn fmt = Dputil.Logf.logf Dputil.Logf.Warn fmt
  let info fmt = Dputil.Logf.logf Dputil.Logf.Info fmt
  let debug fmt = Dputil.Logf.logf Dputil.Logf.Debug fmt
end

(* --- metrics --- *)

module Metrics = struct
  type counter = {
    c_name : string;
    cell : int Atomic.t;
    mutable watcher : (int -> unit) option;
  }

  type gauge = { g_name : string; g_cell : int Atomic.t }

  let sample_cap = 65536

  type histogram = {
    h_name : string;
    h_mutex : Mutex.t;
    mutable kept : float array;
    mutable kept_len : int;
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
  }

  type metric = C of counter | G of gauge | H of histogram

  let table : (string, metric) Hashtbl.t = Hashtbl.create 64
  let table_mutex = Mutex.create ()

  (* Idempotent get-or-create; the registry survives enable/disable. *)
  let intern name mk unpack =
    Mutex.lock table_mutex;
    let m =
      match Hashtbl.find_opt table name with
      | Some m -> m
      | None ->
        let m = mk () in
        Hashtbl.replace table name m;
        m
    in
    Mutex.unlock table_mutex;
    match unpack m with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Dpobs.Metrics: %S already registered as another kind"
           name)

  let counter name =
    intern name
      (fun () -> C { c_name = name; cell = Atomic.make 0; watcher = None })
      (function C c -> Some c | _ -> None)

  let gauge name =
    intern name
      (fun () -> G { g_name = name; g_cell = Atomic.make 0 })
      (function G g -> Some g | _ -> None)

  (* A [lazy] forced by two domains at once raises [Lazy.Undefined];
     racing first uses here both intern the same name instead. *)
  let on_first_use register name =
    let cell = Atomic.make None in
    fun () ->
      match Atomic.get cell with
      | Some m -> m
      | None ->
        let m = register name in
        Atomic.set cell (Some m);
        m

  let lazy_counter name = on_first_use counter name
  let lazy_gauge name = on_first_use gauge name

  let histogram name =
    intern name
      (fun () ->
        H
          {
            h_name = name;
            h_mutex = Mutex.create ();
            kept = [||];
            kept_len = 0;
            h_count = 0;
            h_sum = 0.0;
            h_min = infinity;
            h_max = neg_infinity;
          })
      (function H h -> Some h | _ -> None)

  let add c n =
    if Atomic.get metrics_flag then begin
      let v = Atomic.fetch_and_add c.cell n + n in
      match c.watcher with Some f -> f v | None -> ()
    end

  let incr c = add c 1

  let set g v = if Atomic.get metrics_flag then Atomic.set g.g_cell v

  let rec set_max g v =
    if Atomic.get metrics_flag then begin
      let cur = Atomic.get g.g_cell in
      if v > cur && not (Atomic.compare_and_set g.g_cell cur v) then set_max g v
    end

  let observe h x =
    if Atomic.get metrics_flag then begin
      Mutex.lock h.h_mutex;
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. x;
      if x < h.h_min then h.h_min <- x;
      if x > h.h_max then h.h_max <- x;
      if h.kept_len < sample_cap then begin
        if h.kept_len = Array.length h.kept then begin
          let fresh = Array.make (max 64 (2 * h.kept_len)) 0.0 in
          Array.blit h.kept 0 fresh 0 h.kept_len;
          h.kept <- fresh
        end;
        h.kept.(h.kept_len) <- x;
        h.kept_len <- h.kept_len + 1
      end;
      Mutex.unlock h.h_mutex
    end

  let counter_value c = Atomic.get c.cell
  let gauge_value g = Atomic.get g.g_cell

  type hstats = {
    count : int;
    sum : float;
    min : float;
    max : float;
    samples : float array;
  }

  type value = Counter of int | Gauge of int | Histogram of hstats

  let snapshot_h h =
    Mutex.lock h.h_mutex;
    let s =
      {
        count = h.h_count;
        sum = h.h_sum;
        min = (if h.h_count = 0 then 0.0 else h.h_min);
        max = (if h.h_count = 0 then 0.0 else h.h_max);
        samples = Array.sub h.kept 0 h.kept_len;
      }
    in
    Mutex.unlock h.h_mutex;
    s

  let dump ?(prefix = "") () =
    let starts_with s = String.length s >= String.length prefix
      && String.sub s 0 (String.length prefix) = prefix
    in
    Mutex.lock table_mutex;
    let entries = Hashtbl.fold (fun k m acc -> (k, m) :: acc) table [] in
    Mutex.unlock table_mutex;
    entries
    |> List.filter (fun (k, _) -> starts_with k)
    |> List.map (fun (k, m) ->
           ( k,
             match m with
             | C c -> Counter (counter_value c)
             | G g -> Gauge (gauge_value g)
             | H h -> Histogram (snapshot_h h) ))
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let render ?prefix () =
    let buf = Buffer.create 1024 in
    List.iter
      (fun (name, v) ->
        match v with
        | Counter n | Gauge n ->
          Buffer.add_string buf (Printf.sprintf "%s = %d\n" name n)
        | Histogram h ->
          Buffer.add_string buf
            (Printf.sprintf "%s: count=%d sum=%.3f min=%.3f mean=%.3f max=%.3f\n"
               name h.count h.sum h.min
               (Dputil.Stats.ratio h.sum (float_of_int h.count))
               h.max);
          (* Percentile estimates over the kept reservoir — the same
             p50/p90/p99 the JSON export reports. *)
          if Array.length h.samples > 0 then begin
            let p q = Dputil.Stats.percentile h.samples q in
            Buffer.add_string buf
              (Printf.sprintf "  p50=%.3f p90=%.3f p99=%.3f\n" (p 50.0)
                 (p 90.0) (p 99.0))
          end;
          if Array.length h.samples > 1 then
            String.split_on_char '\n'
              (Dputil.Histogram.render ~width:40
                 (Dputil.Histogram.create ~buckets:8 h.samples))
            |> List.iter (fun line ->
                   if line <> "" then
                     Buffer.add_string buf ("  " ^ line ^ "\n")))
      (dump ?prefix ());
    Buffer.contents buf

  let watch c f = c.watcher <- Some f
  let unwatch c = c.watcher <- None

  (* Help strings, keyed by the metric name *before* any label block, so
     one description covers every labelled series of a family. *)
  let help_table : (string, string) Hashtbl.t = Hashtbl.create 16
  let help_mutex = Mutex.create ()

  let describe name text =
    Mutex.lock help_mutex;
    Hashtbl.replace help_table name text;
    Mutex.unlock help_mutex

  let help name =
    Mutex.lock help_mutex;
    let h = Hashtbl.find_opt help_table name in
    Mutex.unlock help_mutex;
    h

  (* OpenMetrics-style label escaping: backslash, double quote, newline.
     The label block is baked into the registry name, so two label sets
     are two independent series of the same family. *)
  let escape_label_value v =
    let buf = Buffer.create (String.length v + 2) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let labelled name labels =
    match labels with
    | [] -> name
    | labels ->
      let buf = Buffer.create 64 in
      Buffer.add_string buf name;
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_label_value v);
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}';
      Buffer.contents buf

  let reset () =
    Mutex.lock table_mutex;
    let entries = Hashtbl.fold (fun _ m acc -> m :: acc) table [] in
    Mutex.unlock table_mutex;
    List.iter
      (function
        | C c -> Atomic.set c.cell 0
        | G g -> Atomic.set g.g_cell 0
        | H h ->
          Mutex.lock h.h_mutex;
          h.kept <- [||];
          h.kept_len <- 0;
          h.h_count <- 0;
          h.h_sum <- 0.0;
          h.h_min <- infinity;
          h.h_max <- neg_infinity;
          Mutex.unlock h.h_mutex)
      entries
end

(* --- spans --- *)

module Span = struct
  type phase = B | E

  type event = {
    name : string;
    phase : phase;
    tid : int;
    ts_ns : int64;
    args : (string * string) list;
  }

  let dummy = { name = ""; phase = E; tid = 0; ts_ns = 0L; args = [] }

  type buf = { tid : int; mutable evs : event array; mutable len : int }

  (* Buffers of every domain that ever recorded, registration order.
     Buffers outlive their domain (pool workers are joined long before
     export); merging reads them only at quiescence. *)
  let registry : buf list ref = ref []
  let registry_mutex = Mutex.create ()

  let key : buf option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

  let buffer () =
    match Domain.DLS.get key with
    | Some b -> b
    | None ->
      let b =
        { tid = (Domain.self () :> int); evs = Array.make 1024 dummy; len = 0 }
      in
      Mutex.lock registry_mutex;
      registry := b :: !registry;
      Mutex.unlock registry_mutex;
      Domain.DLS.set key (Some b);
      b

  let push b ev =
    if b.len = Array.length b.evs then begin
      let fresh = Array.make (2 * b.len) dummy in
      Array.blit b.evs 0 fresh 0 b.len;
      b.evs <- fresh
    end;
    b.evs.(b.len) <- ev;
    b.len <- b.len + 1

  let with_span ?args name f =
    if not (Atomic.get spans_flag) then f ()
    else begin
      let b = buffer () in
      push b
        {
          name;
          phase = B;
          tid = b.tid;
          ts_ns = now_ns ();
          args = (match args with None -> [] | Some a -> a);
        };
      Fun.protect
        ~finally:(fun () ->
          (* [f] returns on the domain it started on; [buffer] re-fetches
             the DLS in case [f] itself recorded and grew the buffer. *)
          let b = buffer () in
          push b { name; phase = E; tid = b.tid; ts_ns = now_ns (); args = [] })
        f
    end

  let buffers () =
    Mutex.lock registry_mutex;
    let bufs = !registry in
    Mutex.unlock registry_mutex;
    bufs

  let buffer_count () = List.length (buffers ())

  let events () =
    (* Tag each event with (buffer index, position) so that ties on the
       timestamp preserve every domain's own recording order. *)
    let tagged = ref [] in
    List.iteri
      (fun bi b ->
        for i = b.len - 1 downto 0 do
          tagged := (b.evs.(i).ts_ns, bi, i, b.evs.(i)) :: !tagged
        done)
      (buffers ());
    List.sort
      (fun (ta, ba, ia, _) (tb, bb, ib, _) ->
        match Int64.compare ta tb with
        | 0 -> ( match compare ba bb with 0 -> compare ia ib | c -> c)
        | c -> c)
      !tagged
    |> List.map (fun (_, _, _, e) -> e)

  let clear () = List.iter (fun b -> b.len <- 0) (buffers ())

  let durations () =
    let totals : (string, int ref * int64 ref) Hashtbl.t = Hashtbl.create 32 in
    let stacks : (int, (string * int64) list ref) Hashtbl.t = Hashtbl.create 8 in
    let stack_of tid =
      match Hashtbl.find_opt stacks tid with
      | Some s -> s
      | None ->
        let s = ref [] in
        Hashtbl.replace stacks tid s;
        s
    in
    List.iter
      (fun (ev : event) ->
        let stack = stack_of ev.tid in
        match ev.phase with
        | B -> stack := (ev.name, ev.ts_ns) :: !stack
        | E -> (
          match !stack with
          | (name, t0) :: rest when name = ev.name ->
            stack := rest;
            let count, total =
              match Hashtbl.find_opt totals name with
              | Some cell -> cell
              | None ->
                let cell = (ref 0, ref 0L) in
                Hashtbl.replace totals name cell;
                cell
            in
            Stdlib.incr count;
            total := Int64.add !total (Int64.sub ev.ts_ns t0)
          | _ -> (* unmatched close: drop *) ()))
      (events ());
    Hashtbl.fold (fun name (c, t) acc -> (name, !c, !t) :: acc) totals []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
end

(* --- shared Chrome trace-event writer --- *)

module Trace_writer = struct
  (* One incremental writer behind every Chrome-trace artifact the tool
     emits — the engine's own spans (self-telemetry, below) and the
     corpus exports of dpviz. Field order is fixed per record kind and
     the timestamp rendering is a pure function of the input, so equal
     event sequences always serialise to equal bytes. *)

  type t = { buf : Buffer.t; mutable written : int }

  let create ?(initial_size = 65536) () =
    let buf = Buffer.create initial_size in
    Buffer.add_string buf "{\"traceEvents\":[";
    { buf; written = 0 }

  let add_args buf args =
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Dputil.Jsonw.escape buf k;
        Buffer.add_char buf ':';
        Buffer.add_string buf (Dputil.Jsonw.to_string ~minify:true v))
      args;
    Buffer.add_char buf '}'

  let sep t =
    if t.written > 0 then Buffer.add_char t.buf ',';
    t.written <- t.written + 1

  (* Metadata records keep their historical exact shape (integral ts). *)
  let meta t ~pid ~tid ~kind name =
    sep t;
    Buffer.add_string t.buf
      (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
                       \"ts\":0,\"args\":{\"name\":"
         kind pid tid);
    Dputil.Jsonw.escape t.buf name;
    Buffer.add_string t.buf "}}"

  let process_name t ~pid name = meta t ~pid ~tid:0 ~kind:"process_name" name
  let thread_name t ~pid ~tid name = meta t ~pid ~tid ~kind:"thread_name" name

  let event t ?cat ?(args = []) ?id ?(bind_enclosing = false) ?dur_us ~ph
      ~pid ~tid ~ts_us name =
    sep t;
    let buf = t.buf in
    Buffer.add_string buf "{\"name\":";
    Dputil.Jsonw.escape buf name;
    (match cat with
    | Some c ->
      Buffer.add_string buf ",\"cat\":";
      Dputil.Jsonw.escape buf c
    | None -> ());
    Buffer.add_string buf
      (Printf.sprintf ",\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f" ph
         pid tid ts_us);
    (match dur_us with
    | Some d -> Buffer.add_string buf (Printf.sprintf ",\"dur\":%.3f" d)
    | None -> ());
    (match id with
    | Some i -> Buffer.add_string buf (Printf.sprintf ",\"id\":%d" i)
    | None -> ());
    if bind_enclosing then Buffer.add_string buf ",\"bp\":\"e\"";
    (match args with
    | [] -> ()
    | args ->
      Buffer.add_string buf ",\"args\":";
      add_args buf args);
    Buffer.add_char buf '}'

  let contents t = Buffer.contents t.buf ^ "],\"displayTimeUnit\":\"ms\"}"
end

(* --- export --- *)

module Export = struct
  let chrome_trace () =
    let events = Span.events () in
    let t0 = match events with [] -> 0L | e :: _ -> e.Span.ts_ns in
    let w = Trace_writer.create () in
    Trace_writer.process_name w ~pid:1 "driveperf";
    let tids = Hashtbl.create 8 in
    List.iter
      (fun (e : Span.event) ->
        if not (Hashtbl.mem tids e.Span.tid) then begin
          Hashtbl.replace tids e.Span.tid ();
          Trace_writer.thread_name w ~pid:1 ~tid:e.Span.tid
            (Printf.sprintf "domain %d" e.Span.tid)
        end)
      events;
    List.iter
      (fun (e : Span.event) ->
        Trace_writer.event w ~cat:"driveperf"
          ~args:
            (List.map (fun (k, v) -> (k, Dputil.Jsonw.Str v)) e.Span.args)
          ~ph:(match e.Span.phase with Span.B -> 'B' | Span.E -> 'E')
          ~pid:1 ~tid:e.Span.tid
          ~ts_us:(Int64.to_float (Int64.sub e.Span.ts_ns t0) /. 1000.0)
          e.Span.name)
      events;
    Trace_writer.contents w

  let write_chrome_trace path = Dputil.Fs.write_file path output_string (chrome_trace ())

  let metrics_json () =
    let entries = Metrics.dump () in
    let buf = Buffer.create 4096 in
    let section kind pick =
      let first = ref true in
      Buffer.add_char buf '{';
      List.iter
        (fun (name, v) ->
          match pick v with
          | None -> ()
          | Some text ->
            if not !first then Buffer.add_char buf ',';
            first := false;
            Dputil.Jsonw.escape buf name;
            Buffer.add_char buf ':';
            Buffer.add_string buf text)
        entries;
      Buffer.add_char buf '}';
      ignore kind
    in
    Buffer.add_string buf "{\"counters\":";
    section "counters" (function
      | Metrics.Counter n -> Some (string_of_int n)
      | _ -> None);
    Buffer.add_string buf ",\"gauges\":";
    section "gauges" (function
      | Metrics.Gauge n -> Some (string_of_int n)
      | _ -> None);
    Buffer.add_string buf ",\"histograms\":";
    section "histograms" (function
      | Metrics.Histogram h ->
        Some
          (Printf.sprintf
             "{\"count\":%d,\"sum\":%.6f,\"min\":%.6f,\"max\":%.6f,\
              \"mean\":%.6f,\"p50\":%.6f,\"p90\":%.6f,\"p99\":%.6f}"
             h.Metrics.count h.Metrics.sum h.Metrics.min h.Metrics.max
             (Dputil.Stats.ratio h.Metrics.sum (float_of_int h.Metrics.count))
             (Dputil.Stats.percentile h.Metrics.samples 50.0)
             (Dputil.Stats.percentile h.Metrics.samples 90.0)
             (Dputil.Stats.percentile h.Metrics.samples 99.0))
      | _ -> None);
    Buffer.add_char buf '}';
    Buffer.contents buf

  let write_metrics path = Dputil.Fs.write_file path output_string (metrics_json ())

  (* --- OpenMetrics text exposition --- *)

  (* Shortest-roundtrip float, as in Dputil.Jsonw: a 12-significant-digit
     rendering when it reparses exactly, the 17-digit one otherwise. *)
  let om_float x =
    if Float.is_integer x && Float.abs x < 1e15 then
      Printf.sprintf "%.1f" x
    else
      let s = Printf.sprintf "%.12g" x in
      if float_of_string s = x then s else Printf.sprintf "%.17g" x

  (* A registry name [monitor.alerts{rule="x"}] splits into the family
     [monitor.alerts] (sanitised to the OpenMetrics charset) and the
     label block, kept verbatim — Metrics.labelled already escaped it. *)
  let split_labels name =
    match String.index_opt name '{' with
    | None -> (name, "")
    | Some i ->
      let family = String.sub name 0 i in
      let rest = String.sub name i (String.length name - i) in
      (family, rest)

  let sanitize_family name =
    let buf = Buffer.create (String.length name) in
    String.iteri
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | ':' | '_' -> Buffer.add_char buf c
        | '0' .. '9' ->
          if i = 0 then Buffer.add_char buf '_';
          Buffer.add_char buf c
        | _ -> Buffer.add_char buf '_')
      name;
    Buffer.contents buf

  let escape_help text =
    let buf = Buffer.create (String.length text) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      text;
    Buffer.contents buf

  let kind_of = function
    | Metrics.Counter _ -> "counter"
    | Metrics.Gauge _ -> "gauge"
    | Metrics.Histogram _ -> "summary"

  let openmetrics () =
    let entries = Metrics.dump () in
    let buf = Buffer.create 8192 in
    (* Entries arrive name-sorted; every series of a family shares the
       raw prefix so one pass with a current-family watermark groups the
       exposition correctly (TYPE/HELP once, then the samples). *)
    let current = ref ("", "") in
    List.iter
      (fun (name, v) ->
        let raw_family, labels = split_labels name in
        let family = sanitize_family raw_family in
        let kind = kind_of v in
        if !current <> (family, kind) then begin
          current := (family, kind);
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" family kind);
          match Metrics.help raw_family with
          | Some text ->
            Buffer.add_string buf
              (Printf.sprintf "# HELP %s %s\n" family (escape_help text))
          | None -> ()
        end;
        let with_extra extra =
          (* Merge an extra label into an existing (or absent) block. *)
          match (labels, extra) with
          | "", "" -> ""
          | "", e -> "{" ^ e ^ "}"
          | l, "" -> l
          | l, e ->
            "{" ^ String.sub l 1 (String.length l - 2) ^ "," ^ e ^ "}"
        in
        match v with
        | Metrics.Counter n ->
          Buffer.add_string buf
            (Printf.sprintf "%s_total%s %d\n" family (with_extra "") n)
        | Metrics.Gauge n ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" family (with_extra "") n)
        | Metrics.Histogram h ->
          let q p =
            if Array.length h.Metrics.samples = 0 then 0.0
            else Dputil.Stats.percentile h.Metrics.samples p
          in
          List.iter
            (fun (quant, value) ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" family
                   (with_extra (Printf.sprintf "quantile=\"%s\"" quant))
                   (om_float value)))
            [ ("0.5", q 50.0); ("0.9", q 90.0); ("0.99", q 99.0) ];
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" family (with_extra "")
               h.Metrics.count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" family (with_extra "")
               (om_float h.Metrics.sum)))
      entries;
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf

end

(* --- progress --- *)

module Progress = struct
  type t = {
    label : string;
    total : int;
    counter : Metrics.counter;
    start_ns : int64;
    render_mutex : Mutex.t;  (* one domain draws at a time *)
    mutable last_render_ns : int64;
    mutable last_width : int;
  }

  let is_tty () = Unix.isatty Unix.stderr

  let draw t v ~final =
    let now = now_ns () in
    let due =
      final || Int64.sub now t.last_render_ns >= 100_000_000L (* 10 Hz *)
    in
    if due then begin
      t.last_render_ns <- now;
      let elapsed = Int64.to_float (Int64.sub now t.start_ns) /. 1e9 in
      let rate = if elapsed > 0.0 then float_of_int v /. elapsed else 0.0 in
      let eta =
        if rate > 0.0 && v < t.total then
          Printf.sprintf "ETA %.1fs" (float_of_int (t.total - v) /. rate)
        else "ETA -"
      in
      let line =
        Printf.sprintf "%s: %d/%d (%.1f/s, %s)" t.label v t.total rate eta
      in
      let pad = max 0 (t.last_width - String.length line) in
      t.last_width <- String.length line;
      Printf.eprintf "\r%s%s%!" line (String.make pad ' ')
    end

  let on_update t v =
    (* Watchers fire from whichever domain bumps the counter; never block
       a worker on the terminal. *)
    if Mutex.try_lock t.render_mutex then begin
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.render_mutex)
        (fun () -> draw t v ~final:false)
    end

  let start ~label ~total counter =
    if not (is_tty ()) then None
    else begin
      enable ~spans:false ~metrics:true ();
      let t =
        {
          label;
          total;
          counter;
          start_ns = now_ns ();
          render_mutex = Mutex.create ();
          last_render_ns = 0L;
          last_width = 0;
        }
      in
      Metrics.watch counter (on_update t);
      Some t
    end

  let finish t =
    Metrics.unwatch t.counter;
    Mutex.lock t.render_mutex;
    draw t (Metrics.counter_value t.counter) ~final:true;
    Printf.eprintf "\r%s\r%!" (String.make t.last_width ' ');
    Mutex.unlock t.render_mutex

  (* Free-form status line for long-running modes (the monitor
     dashboard): same tty gating, but the caller pushes whole lines
     instead of watching a counter. *)
  type line = { l_mutex : Mutex.t; mutable l_last_width : int }

  let line_start () =
    if not (is_tty ()) then None
    else Some { l_mutex = Mutex.create (); l_last_width = 0 }

  let line_set l text =
    Mutex.lock l.l_mutex;
    let pad = max 0 (l.l_last_width - String.length text) in
    l.l_last_width <- String.length text;
    Printf.eprintf "\r%s%s%!" text (String.make pad ' ');
    Mutex.unlock l.l_mutex

  let line_finish l =
    Mutex.lock l.l_mutex;
    Printf.eprintf "\r%s\r%!" (String.make l.l_last_width ' ');
    l.l_last_width <- 0;
    Mutex.unlock l.l_mutex
end
