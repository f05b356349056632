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
  breakers : Fetch_core.Breaker.t array;
      (** per-shard circuit breaker, ruling routing *)
  up : int -> bool;  (** is the shard's host up? what the core reads *)
  mutable requests : int;
  mutable failovers : int;  (** requests served by a non-owner shard *)
  mutable unavailable : int;  (** requests no shard could serve *)
  mutable breaker_skips : int;  (** dispatch candidates skipped open-breaker *)
}

val hash_key : string -> int
(** FNV-1a 64-bit, truncated to a nonnegative OCaml int. Stable
    across runs (no randomization), so ownership is reproducible. *)

val create : ?vnodes:int -> Simnet.Engine.t -> Node.t array -> t
(** The shard pool must be non-empty. Each shard gets [vnodes]
    (default 64) ring points and a [Breaker.create ()] circuit breaker.
    [vnodes] is there for [test_farm]'s "matches the ring walk", which
    compares failover orders at 1 and 3 vnodes, where they differ more
    often than at 64.

    The points do not balance ownership: FNV-1a puts one shard's
    labels next to each other on the ring. Over 100 000 keys, 2 shards
    own 0.91 and 0.09 (one run of the ring each), 4 shards 0.31, 0.09,
    0.25 and 0.35, and 8 shards from 0.04 to 0.23. ROADMAP's "The
    ring's virtual nodes do not spread" item fixes the placement. *)

val owner : t -> string -> int
(** The shard index owning a key — a pure function of
    (key, shard count, vnodes), independent of health. *)

val preference_order : t -> string -> int list
(** Distinct shards in ring order starting at the key's owner: the
    failover order {!request} walks. *)

val pipeline_runs : t -> int
val coalesced : t -> int
val l2_hits : t -> int

val request : t -> cls:string -> (Node.reply -> unit) -> unit
(** A bare request, with no deadline and no trace: route to the key's
    owner with ring-order failover, and pass the reply on. Replies
    [Unavailable] (after one simulated-time hop) when every candidate
    is down or breaker-barred. Open-breaker shards are skipped without
    probing; a shard down at dispatch, or one replying [Unavailable]
    (crashed in flight, or fenced), feeds its breaker a failure and
    the walk moves on. An [Overloaded] shed propagates with no
    failover — bouncing shed work to neighbours would amplify the
    overload. The decisions are {!Fetch_core.step}'s; this is its
    shell. *)

val route :
  t -> cls:string -> deadline:int64 option -> trace:Telemetry.Trace.ctx ->
  Fetch_core.attempt -> ('o -> Fetch_core.output -> unit) -> 'o -> unit
(** [route t ~cls ~deadline ~trace attempt perform owner] is how the
    client session routes each attempt, so that one core step takes a
    shard's reply through the edge and on into the fetch. It counts the
    request, opens its routing span under [trace] (with a
    [hedge_offset] argument for a hedge) and steps the core with the
    key's preference order. The edge performs its own effects and hands
    every other one, in order, to [perform owner] — the [Answer] after
    closing the span. [cls] and [deadline] are the request's as it
    reached the edge; the deadline goes to shard admission. *)
