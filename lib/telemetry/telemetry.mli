(** System telemetry: spans, counters and log-scale latency histograms.

    A registry collects three kinds of signal:

    - {e spans} — nested timed regions keyed to both the wall clock and
      (when one is injected) the simulation's virtual clock;
    - {e counters} and {e gauges} — monotonic / last-value integers;
    - {e histograms} — log₂-bucketed latency distributions in µs.

    Registries are disabled by default; every operation on a disabled
    registry returns after a single flag check, so instrumentation can
    stay in hot paths permanently. Two exporters: Chrome
    [trace_event] JSON (one event per line, loads in Perfetto and
    chrome://tracing) and a plain-text metrics snapshot.

    Most call sites use {!Global}, the shortcuts over the process-wide
    {!default} registry. *)

type t

type clock = unit -> int64  (** Microseconds. *)

val create : ?max_spans:int -> unit -> t
(** A fresh, disabled registry. [max_spans] (default 200 000, small in
    [test_telemetry]'s "max_spans cap") bounds span memory; completions
    past the cap are counted in {!dropped_spans}. *)

val default : t
(** The process-wide registry used by {!Global} and by the library
    instrumentation call sites. *)

val enabled : t -> bool
val enable : t -> unit
val disable : t -> unit

val reset : t -> unit
(** Drop all recorded data (keeps clocks and the enabled flag). *)

val set_wall_clock : t -> clock -> unit
val set_sim_clock : t -> clock option -> unit
(** Inject the simulation's virtual clock ([Simnet.Engine.run] does
    this for the duration of a run); [None] detaches it. *)

val sim_clock : t -> clock option

(** {1 Counters, gauges, histograms} *)

val incr : t -> string -> unit
val add : t -> string -> int64 -> unit
val set_gauge : t -> string -> int64 -> unit
val observe : t -> string -> int64 -> unit
(** Record one histogram observation (µs). *)

val counter_value : t -> string -> int64
val gauge_value : t -> string -> int64
val counters : t -> (string * int64) list
(** Sorted by name. *)

val gauges : t -> (string * int64) list

type hist_stats = {
  count : int;
  sum_us : int64;
  min_us : int64;
  max_us : int64;
  p50_us : int64;  (** approximate: bucket upper bound *)
  p95_us : int64;
  p99_us : int64;
}

val histogram_stats : t -> string -> hist_stats option
val histograms : t -> (string * hist_stats) list

(** {1 Spans} *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_cat : string;  (** subsystem, e.g. "simnet", "pipeline", "cache" *)
  sp_depth : int;  (** nesting depth at entry; 0 = top level *)
  sp_wall_start : int64;
  sp_wall_end : int64;
  sp_sim_start : int64 option;
  sp_sim_end : int64 option;
  sp_args : (string * string) list;
}

val with_span :
  ?cat:string ->
  ?args:(string * string) list ->
  ?observe_hist:string ->
  t ->
  string ->
  (unit -> 'a) ->
  'a
(** Run the thunk inside a span; the span is recorded even if the
    thunk raises. [observe_hist] additionally records the duration
    into that histogram — the {e simulated} duration when a sim clock
    is attached (so bench histograms never mix virtual and host time),
    the wall duration otherwise. If a {!Trace} scope is ambient the
    span is also attached as a leaf of that distributed trace. On a
    disabled registry this is exactly [f ()]. *)

(** {1 Capture and replay}

    Memoization support: a [tape] is the recorded sequence of
    telemetry effects (counter adds, gauge sets, histogram
    observations, span brackets) a computation performed. Replaying
    the tape re-performs those effects against the registry's live
    state — fresh span ids and clock readings, the currently ambient
    {!Trace} scope — so a caller that cached the computation's result
    can skip the work while every aggregate a bench pins (counter and
    histogram values, span counts, trace leaves) comes out exactly as
    a real re-run would have produced. Counter/gauge/observation
    values are re-applied verbatim; under a simulation clock this is
    exact, because the captured computation was synchronous and both
    runs elapse zero virtual time. *)

type tape

val capture : t -> (unit -> 'a) -> 'a * tape option
(** Run the thunk while recording its telemetry effects. Returns
    [None] for the tape when a capture was already active (the outer
    capture owns the ops — the caller must not memoize). A disabled
    registry yields an empty tape, matching its zero effects; callers
    memoizing against it must check {!enabled} parity before
    replaying. *)

val replay : t -> tape -> unit
(** Re-perform a captured tape's effects. A no-op on a disabled
    registry. *)

val spans : t -> span list
(** In completion order (inner spans precede the spans that contain
    them). *)

val span_count : t -> int
val dropped_spans : t -> int

(** {1 Exporters} *)

val chrome_trace : t -> string
(** The whole registry as Chrome [trace_event] JSON: spans as complete
    ("X") events on pid 1 (wall clock) and pid 2 (simulated time),
    counters as trailing "C" samples. One event per line. *)

val metrics_snapshot : t -> string
(** Human-readable table of counters, gauges and histograms. *)

val histograms_json : t -> string
(** The latency histograms as a JSON array of
    [{"name", "count", "sum_us", "min_us", "p50_us", "p95_us",
    "p99_us", "max_us"}] objects — what benches embed in their JSON
    output. *)

val metrics_json : t -> string
(** Counters, gauges and histograms as one JSON object
    [{"counters":{...},"gauges":{...},"histograms":[...]}] — the
    machine-readable twin of {!metrics_snapshot}, shared by
    [dvmctl metrics --json] and the [BENCH_*.json] writer. *)

(** {1 Global shortcuts} over {!default} — the form instrumentation
    call sites use. *)
module Global : sig
  val on : unit -> bool
  val incr : string -> unit
  val add : string -> int64 -> unit
  val set_gauge : string -> int64 -> unit
  val observe : string -> int64 -> unit

  val with_span :
    ?cat:string ->
    ?args:(string * string) list ->
    ?observe_hist:string ->
    string ->
    (unit -> 'a) ->
    'a
end

(** {1 Distributed observability} — sibling modules re-exported. *)

module Trace : module type of Trace
module Flight : module type of Flight
module Slo : module type of Slo
