(** A sharded proxy farm behind one facade.

    Class keys are spread across N independent proxy shards by
    consistent hashing (FNV-1a over a ring with virtual nodes). Each
    shard is a full {!Node.t} with its own host, CPU accounting and L1
    cache; an optional shared L2 is wired per-shard at
    {!Node.create}. Failover walks the ring to the next distinct live
    shard. Counters: [farm.failovers], [farm.unavailable]. *)

type t = {
  engine : Simnet.Engine.t;
  shards : Node.t array;
  ring : (int * int) array;  (** (point, shard index), sorted *)
  prefs : int list array;
      (** per ring slot, the distinct shards clockwise from it: the
          slot's failover order, built once at {!create} *)
  health : bool array;  (** last observed per-shard state *)
  breakers : Breaker.t array;  (** per-shard circuit breaker, ruling routing *)
  mutable requests : int;
  mutable failovers : int;  (** requests served by a non-owner shard *)
  mutable unavailable : int;  (** requests no shard could serve *)
  mutable overloaded : int;  (** requests a shard shed at admission *)
  mutable breaker_skips : int;  (** dispatch candidates skipped open-breaker *)
}

val hash_key : string -> int
(** FNV-1a 64-bit, truncated to a nonnegative OCaml int. Stable
    across runs (no randomization), so ownership is reproducible. *)

val default_vnodes : int

val create :
  ?vnodes:int -> ?breaker:(int -> Breaker.t) -> Simnet.Engine.t ->
  Node.t array -> t
(** The shard pool must be non-empty. [vnodes] (default 64) virtual
    ring points per shard keep ownership balanced at small counts.
    [breaker] builds shard [i]'s circuit breaker (default
    [Breaker.create ()] for every shard). *)

val size : t -> int
val shard : t -> int -> Node.t

val owner : t -> string -> int
(** The shard index owning a key — a pure function of
    (key, shard count, vnodes), independent of health. *)

val preference_order : t -> string -> int list
(** Distinct shards in ring order starting at the key's owner: the
    failover order {!request} walks. *)

val health : t -> bool array
(** Probe every shard host and return the raw up/down view — no
    hysteresis; a flapping host flips this every probe. Routing and
    {!probe} go through the breakers instead. *)

val breaker : t -> int -> Breaker.t

val probe : t -> bool array
(** Health with hysteresis: feed each shard's current host state
    through its breaker and report whether routing would use it. A
    flapping host stops flipping this view once its breaker's failure
    window fills — it reads [false] until the cooldown expires and
    probes prove it stable. *)

val pipeline_runs : t -> int
val coalesced : t -> int
val l2_hits : t -> int
val origin_fetches : t -> int
val bytes_served : t -> int
val cpu_us : t -> int64

val request :
  ?deadline:int64 -> ?offset:int -> ?trace:Telemetry.Trace.ctx -> t ->
  cls:string -> (Node.reply -> unit) -> unit
(** [trace] nests the routing hop (an "edge" span, plus failover /
    breaker / shed reason events) under the caller's distributed
    trace. Route to the key's owner with ring-order failover; replies
    [Unavailable] (after one simulated-time hop) when every candidate
    is down or breaker-barred. Open-breaker shards are skipped without
    probing; a dispatch-time-down or mid-flight crash feeds the
    shard's breaker a failure. [deadline] (absolute virtual µs) is
    handed to the shard's admission control; an [Overloaded] shed
    propagates with no failover — bouncing shed work to neighbours
    would amplify the overload. [offset] starts the walk [offset]
    places past the owner in the key's preference order — how a hedged
    request targets the next shard in ring order. *)
