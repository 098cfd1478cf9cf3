(** Importer for xperf-style ETW dump files.

    Real ETW sessions don't record the paper's wait events directly; wait
    intervals are {e reconstructed} from context-switch and ready-thread
    events, exactly as this importer does. The accepted format is a
    line-oriented rendition of the relevant `xperf -a dumper` rows:

    {v
    # comment
    SampledProfile, <ts_us>, <tid>, "frame1;frame2;..."
    CSwitch,        <ts_us>, <new_tid>, <old_tid>, <old_state>, "old stack"
    ReadyThread,    <ts_us>, <readying_tid>, <readied_tid>, "readying stack"
    DiskIo,         <start_us>, <dur_us>, "service name"[, <device_tid>]
    Mark,           <ts_us>, <scenario>, <tid>, Start|Stop
    Thread,         <tid>, <name>
    v}

    Semantics:
    - a [CSwitch] whose [old_state] is [Waiting] marks [old_tid] blocked
      from [ts] with the given callstack; the next [ReadyThread] targeting
      it closes the interval, yielding one wait event paired with an
      unwait event from the readying thread;
    - consecutive [SampledProfile] rows of one thread with an identical
      stack coalesce into a single running event ([cost] = samples ×
      sampling period);
    - [DiskIo] rows become hardware-service events on a synthetic device
      pseudo-thread (one per service name);
    - [Mark] Start/Stop pairs delimit scenario instances.

    Timestamps are microseconds; fields are comma-separated; stacks are
    double-quoted, frames topmost-first and [';']-separated. *)

val load : ?stream_id:int -> string -> Stream.t
(** [load path] reads a dump a line at a time into the stream
    [stream_id] (default 0), its samples 1 ms apart. Waits still open at
    the end are dropped (a truncated trace), as are [Stop]-less instances.
    @raise Fields.Parse_error on malformed input, unbalanced [Mark]s too
    @raise Sys_error if the file cannot be read. *)
