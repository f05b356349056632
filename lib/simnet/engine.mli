(** Discrete-event simulation engine.

    Time is in integer microseconds. Events fire in
    (time, insertion-order): ties break FIFO, so models are
    deterministic. *)

type time = int64
(** Event times must fit an OCaml [int] (below 2{^62} µs, some 146 000
    years): the queue stores them unboxed. *)

type t

val create : unit -> t
val now : t -> time
val events_processed : t -> int

val schedule_at : t -> time -> (unit -> unit) -> unit
(** Times in the past are clamped to now. *)

val schedule : t -> delay:time -> (unit -> unit) -> unit

(** {1 Cancellable timers} *)

type timer
(** A handle on one queued event, for {!cancel}. *)

val timer : t -> delay:time -> (unit -> unit) -> timer
(** [timer t ~delay fn] queues [fn] exactly as [schedule t ~delay fn]
    does — same clamping, same place in the firing order — and returns
    a handle on it. *)

val cancel : t -> timer -> unit
(** Take the timer's event out of the queue, in O(log n), and drop its
    closure. It does nothing if the event already fired (its handler is
    running counts) or was cancelled, and a stale handle never cancels
    a later event that took over the queue slot its event left: each
    handle also carries its event's unique insertion sequence number.
    A cancelled event never fires and does not count in
    {!events_processed}. The handle must come from [t]. *)

val run : ?until:time -> t -> unit
(** Process events until the queue drains (or past the horizon).

    With telemetry on, the engine counts [simnet.events.scheduled],
    [simnet.events.processed] and [simnet.events.cancelled] and adds
    the change in its queue depth to the [simnet.queue.depth] gauge,
    which so sums every engine's queued events; inside a run they are
    batched and written once as it returns. Every event scheduled is
    processed, cancelled or still queued, so over all engines counted
    since the registry's last reset, scheduled = processed + cancelled
    + the gauge. *)

(** {1 Deterministic event traces}

    Models call {!record} at the points they consider observable (a
    request served, a shard chosen); determinism tests compare whole
    traces across runs. Recording is off by default and free when
    off. *)

val set_tracing : t -> bool -> unit
(** Enable or disable recording; either way the buffer is cleared. *)

val record : t -> string -> unit
(** Append [(now, label)] to the trace when tracing is on. *)

val trace : t -> (time * string) list
(** The recorded trace, in chronological (firing) order. *)

val set_trace_cap : t -> int option -> unit
(** Bound the trace buffer: once it holds that many records, further
    {!record} calls count into {!trace_dropped} instead of growing the
    buffer. [None] (the default) is unbounded. The cap applies from
    now on — an already-larger buffer is left intact.
    @raise Invalid_argument on a negative cap. *)

val trace_dropped : t -> int
(** Records dropped by the cap since tracing was last (re)enabled. *)

(** Time constructors and conversions. *)

val us : int -> time
val ms : int -> time
val sec : int -> time
val to_sec : time -> float
