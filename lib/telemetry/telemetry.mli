(** System telemetry: spans, counters and log-scale latency histograms.

    The module is the process's one registry. It collects three kinds
    of signal:

    - {e spans} — nested timed regions keyed to both the wall clock and
      (when one is injected) the simulation's virtual clock;
    - {e counters} and {e gauges} — monotonic / last-value integers;
    - {e histograms} — log₂-bucketed latency distributions in µs.

    The registry starts disabled; every operation on it while disabled
    returns after a single flag check, so instrumentation can stay in
    hot paths permanently (a call site that builds a string for it
    still guards with {!enabled}). Two exporters: Chrome
    [trace_event] JSON (one event per line, loads in Perfetto and
    chrome://tracing) and a plain-text metrics snapshot. *)

type clock = unit -> int64  (** Microseconds. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded data (keeps clocks and the enabled flag). *)

val set_wall_clock : clock -> unit
(** Test-only: [test_telemetry] swaps in a deterministic clock. *)

val set_sim_clock : clock option -> unit
(** Inject the simulation's virtual clock ([Simnet.Engine.run] does
    this for the duration of a run); [None] detaches it. *)

val sim_clock : unit -> clock option

(** {1 Counters, gauges, histograms} *)

val incr : string -> unit
val add : string -> int64 -> unit
val set_gauge : string -> int64 -> unit
val observe : string -> int64 -> unit
(** Record one histogram observation (µs). *)

val counter_value : string -> int64
val gauge_value : string -> int64
val counters : unit -> (string * int64) list
(** Sorted by name. *)

val gauges : unit -> (string * int64) list

type hist_stats = {
  count : int;
  sum_us : int64;
  min_us : int64;
  max_us : int64;
  p50_us : int64;  (** approximate: bucket upper bound *)
  p95_us : int64;
  p99_us : int64;
}

val histogram_stats : string -> hist_stats option
(** Test-only outside this module: [test_telemetry]'s histogram and
    span cases read one histogram through it. *)

val histograms : unit -> (string * hist_stats) list
(** Test-only outside this module (the exporters read it here):
    [test_telemetry]'s replay cases and [test_proxy]'s "memo
    transparent" compare every histogram through it. *)

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

val max_spans : int
(** 200 000: the spans kept in memory. A completion past the cap is
    counted in {!dropped_spans} instead. Test-only as a name:
    [test_telemetry]'s "max_spans cap" and "replay into a full
    buffer" fill the buffer to it. *)

val with_span :
  ?cat:string ->
  ?args:(string * string) list ->
  ?observe_hist:string ->
  string ->
  (unit -> 'a) ->
  'a
(** Run the thunk inside a span; the span is recorded even if the
    thunk raises. [observe_hist] additionally records the duration
    into that histogram — the {e simulated} duration when a sim clock
    is attached (so bench histograms never mix virtual and host time),
    the wall duration otherwise. If a {!Trace} scope is ambient the
    span is also attached as a leaf of that distributed trace. While
    the registry is disabled this is exactly [f ()]. *)

(** {1 Capture and replay}

    Memoization support: a [tape] is the recorded sequence of
    telemetry effects (counter adds, gauge sets, histogram
    observations, span brackets) a computation performed. Replaying
    the tape re-performs those effects against the registry's live
    state — each span bracket through {!with_span}, so it gets a fresh
    span id, live clock readings, the buffer cap and the currently
    ambient {!Trace} scope — so a caller that cached the computation's
    result can skip the work while every aggregate a bench pins
    (counter and histogram values, span counts, trace leaves) comes
    out exactly as a real re-run would have produced. Counter, gauge
    and observation values are re-applied verbatim (a span's
    [observe_hist] observation among them); under a simulation clock
    this is exact, because the captured computation was synchronous
    and both runs elapse zero virtual time. *)

type tape

val capture : (unit -> 'a) -> 'a * tape option
(** Run the thunk while recording its telemetry effects. Returns
    [None] for the tape when a capture was already active (the outer
    capture owns the ops — the caller must not memoize). While the
    registry is disabled the tape is empty, matching its zero effects;
    callers memoizing across that must check {!enabled} parity before
    replaying. *)

val replay : tape -> unit
(** Re-perform a captured tape's effects. A no-op while the registry
    is disabled. *)

val spans : unit -> span list
(** In completion order (inner spans precede the spans that contain
    them). *)

val span_count : unit -> int

val dropped_spans : unit -> int
(** Test-only: [test_telemetry]'s "max_spans cap" and "replay into a
    full buffer" read it. *)

(** {1 Exporters} *)

val chrome_trace : unit -> string
(** The whole registry as Chrome [trace_event] JSON: spans as complete
    ("X") events on pid 1 (wall clock) and pid 2 (simulated time),
    counters as trailing "C" samples. One event per line. *)

val metrics_snapshot : unit -> string
(** Human-readable table of counters, gauges and histograms. *)

val histograms_json : unit -> string
(** The latency histograms as a JSON array of
    [{"name", "count", "sum_us", "min_us", "p50_us", "p95_us",
    "p99_us", "max_us"}] objects — what benches embed in their JSON
    output. *)

val metrics_json : unit -> string
(** Counters, gauges and histograms as one JSON object
    [{"counters":{...},"gauges":{...},"histograms":[...]}] — the
    machine-readable twin of {!metrics_snapshot}, shared by
    [dvmctl metrics --json] and the [BENCH_*.json] writer. *)

(** {1 Distributed observability} — sibling modules re-exported. *)

module Trace : module type of Trace
module Flight : module type of Flight
module Slo : module type of Slo
