(** Seedable deterministic fault models.

    A fault plan owns a private splitmix64 stream: two simulations
    built from the same seed draw identical loss/jitter decisions and
    produce identical traces. Attach a plan to a link with
    {!Link.set_faults} and to a host with {!schedule_host_faults};
    every injected fault is appended to a replayable trace. *)

type t

val create : seed:int -> t

(** {1 Deterministic draws} *)

val flip : t -> p:float -> bool
(** One Bernoulli draw. Threshold form: a draw that fires at
    probability [p] also fires at any higher probability while the
    streams stay aligned, keeping loss-rate sweeps monotone. *)

val jitter_us : t -> max_us:int -> int64
(** Uniform in [\[0, max_us)]; [0] when [max_us <= 0]. *)

val range : t -> max:int -> int
(** Uniform int in [\[0, max)]; [0] when [max <= 0]. Chaos schedules
    draw crash times, victim shards and spike offsets from this. *)

(** {1 Fault trace} *)

val record : t -> at:Engine.time -> string -> unit
val trace : t -> string list
(** Injected faults in order, each ["<virtual µs> <description>"]. *)

val crashes : t -> int
val restarts : t -> int

val count_drop : t -> at:Engine.time -> string -> unit
(** Used by {!Link}: append a lost transfer to the trace. *)

(** {1 Host crash/restart schedules} *)

val schedule_host_faults :
  t ->
  Host.t ->
  ?on_restart:(unit -> unit) ->
  schedule:(Engine.time * Engine.time) list ->
  unit ->
  unit
(** For each [(crash_at, down_for)]: crash the host at [crash_at] and
    restart it [down_for] later. The restart is cold — none of the
    host's working memory is kept — and then runs [on_restart], where
    the owner clears warm state the crash
    lost (e.g. a class cache). Counters: [simnet.crashes],
    [simnet.restarts]. *)

(** {1 Network-partition schedules} *)

val schedule_partition :
  t ->
  Engine.t ->
  what:string ->
  set:(bool -> unit) ->
  schedule:(Engine.time * Engine.time) list ->
  unit ->
  unit
(** For each [(start, len)]: call [set true] at [start] and [set false]
    at [start + len]. [set] is a closure — typically
    [Link.set_partitioned link], or a function severing a whole bundle
    of links at once — so a schedule can partition any cut of the
    network atomically. Each window appends ["partition <what>"] /
    ["heal <what>"] to the trace and bumps [simnet.partitions]. *)
