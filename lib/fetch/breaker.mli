(** Per-shard circuit breaker with hysteresis.

    Closed / Open / Half_open, driven by timestamps the caller passes
    (no engine reference — testable with bare numbers). Trips on
    either [fail_threshold] {e consecutive} failures or
    [window_threshold] failures inside a sliding [window_us] — the
    windowed condition is what catches a {e flapping} host, whose
    successes keep resetting the consecutive counter but do not clear
    the window. While Open, {!allow} refuses traffic; after the
    cooldown it admits probes in Half_open, where
    [success_threshold] successes close it and one failure re-opens
    it with the cooldown doubled (capped at [max_cooldown_us]).
    Counter: [breaker.trips]. *)

type state = Closed | Open | Half_open

type t

val create :
  ?fail_threshold:int ->
  ?window_threshold:int ->
  ?window_us:int64 ->
  ?cooldown_us:int64 ->
  ?max_cooldown_us:int64 ->
  ?success_threshold:int ->
  unit ->
  t
(** Defaults: 3 consecutive or 4-in-10s failures trip; 500 ms cooldown
    doubling to a 4 s cap; 2 probe successes close. Every farm uses the
    defaults; the settings are there for [test_proxy]'s breaker group,
    whose "breaker matches its reference model" property sweeps them,
    and for [test_fetch]'s explorer, whose breakers trip on one failure
    and cool down in 40 ms so that small scopes reach skips and probes. *)

val allow : t -> now:int64 -> bool
(** May traffic be sent now? [true] in Closed, [false] in Open.
    In Half_open each grant counts as a probe and at most
    [success_threshold] probes may be outstanding at once — further
    callers get [false] until a probe resolves through
    {!record_success} or {!record_failure}, so a thundering herd
    cannot pile onto a still-sick shard. Advances Open→Half_open
    when the cooldown has expired. *)

val record_success : t -> now:int64 -> unit
val record_failure : t -> now:int64 -> unit

val state : t -> now:int64 -> state
(** The state an {!allow} at [now] would see (cooldown expiry
    applied), without counting a probe. *)

val trips : t -> int
