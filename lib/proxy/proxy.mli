(** The transparent network proxy hosting the static service
    components (§2–§3).

    Intercepts class requests from clients, fetches from the origin,
    runs the filter pipeline once per class, signs the result, caches
    it, and leaves an audit trail. The proxy CPU serializes pipeline
    work and its memory holds per-request working state — the resource
    model behind Figure 10.

    The single-node implementation lives in [Node] and is re-exported
    here; {!Farm} shards class keys across several nodes by consistent
    hashing and fails over along the ring — the replication of §2/§5. *)

module Cache = Serve_core.Cache
module Pipeline : module type of Pipeline

module Breaker = Fetch_core.Breaker
(** Per-shard circuit breaker (closed/open/half-open with hysteresis)
    consulted by the farm edge's core before routing. *)

module Admission = Serve_core.Admission
(** Deadline-aware admission control: each node sheds requests whose
    remaining budget cannot cover estimated service cost. *)

type reply = Serve_core.reply =
  | Bytes of string
  | Not_found
  | Unavailable
  | Overloaded
      (** Shed by admission control: the shard could not finish the
          request inside its deadline (or its queue is full). Distinct
          from [Unavailable] so clients retry-with-budget instead of
          failing over. *)

type origin = string -> string option

type t = Node.t = {
  engine : Simnet.Engine.t;
  host : Simnet.Host.t;
  cache : Cache.t;  (** the shard's own L1 *)
  mutable filters : Rewrite.Filter.t list;
  mutable policy_version : int;
      (** security-policy version this shard rewrites under; stamped
          onto pipeline runs and every L1/L2 entry (0 = unversioned).
          The control plane's apply hook swaps [filters] and bumps
          this together. *)
  mutable serving_allowed : unit -> bool;
      (** control-plane fence: when it returns [false] the node
          refuses to serve (counter and same-named trace event
          [control.fenced_rejects]) and requests reply [Unavailable]
          like on a crashed host, so the farm fails over. Wire to
          {!Control.member_ok}; defaults to always-true. *)
  origin : origin;
  origin_latency : string -> Simnet.Engine.time;
  signer : Dsig.Sign.key option;
  memo : Pipeline.Memo.t option;  (** optional host-CPU outcome memo *)
  audit : Monitor.Audit.t option;
  core : Serve_core.t;
      (** the serve decision over [cache], the shared L2 and
          [admission]: its [flights] table maps each (class, policy
          version) with a pipeline run in flight to that flight — its
          leader, the request ids that joined it, and the host epoch it
          started in. The version is in the key, as in L1 and L2: a
          request arriving after a bump leads its own run, not one
          under the revoked stack. *)
  parked : (int, reply -> unit) Hashtbl.t;
      (** the continuations of requests that joined a flight, by
          request id, until the flight settles *)
  admission : Admission.t;
  mutable requests : int;
  mutable bytes_served : int;
  mutable origin_fetches : int;
  mutable pipeline_runs : int;  (** full parse/rewrite/generate passes *)
  mutable coalesced : int;  (** requests that joined an in-flight run *)
  mutable l2_hits : int;  (** misses served by the shared tier *)
  mutable fenced_rejects : int;
      (** requests refused by the control-plane fence *)
  mutable cpu_us : int64;  (** total pipeline + cache-service CPU *)
}

val create :
  ?cache_capacity:int ->
  ?mem_capacity:int ->
  ?signer:Dsig.Sign.key ->
  ?audit:Monitor.Audit.t ->
  ?cpu_factor:float ->
  ?host_name:string ->
  ?l2:Cache.t ->
  ?memo:Pipeline.Memo.t ->
  Simnet.Engine.t ->
  origin:origin ->
  origin_latency:(string -> Simnet.Engine.time) ->
  filters:Rewrite.Filter.t list ->
  unit ->
  t
(** Defaults: 48 MB cache, 64 MB memory (the paper's proxy); the
    origin uplink is fixed at 100 Mb/s, and each in-flight request
    holds 12x the class's bytes of working memory.
    [cache_capacity:0] disables caching. Passing the same [l2] cache
    instance to every shard of a farm gives them a shared second tier:
    a miss found there costs a fixed 1.5 ms lookup plus the transfer
    at 100 Mb/s instead of a pipeline run, and a cache-cold restarted
    shard rewarms from its peers' work. [memo] (also shareable pool-wide)
    memoizes pipeline outcomes on the host CPU — see
    {!Pipeline.Memo}; simulated costs and served bytes are unchanged,
    the wall-clock work of re-running identical inputs is skipped. *)

val request :
  ?deadline:int64 -> ?trace:Telemetry.Trace.ctx ->
  t -> cls:string -> (reply -> unit) -> unit
(** Simulated-time request; the callback fires exactly once: with the
    response when it is ready for the client's wire, or [Unavailable]
    — after a zero-delay hop if the host is down or the fence refuses,
    when the abandoned CPU job would have finished if the host crashes
    under it, and after a zero-delay hop when the origin's bytes
    arrive if the host crashed during the fetch.

    The serve decision is {!Serve_core}'s [step]; this is its simnet
    shell, which performs each step's effects in the order returned.

    [trace] nests this hop under the caller's distributed trace: a
    per-shard span, reason events for sheds / coalesce joins / L2
    hits, and the pipeline's telemetry spans as leaves.

    [deadline] (absolute virtual µs) engages admission control: if the
    CPU backlog plus the estimated hit/miss service cost cannot land
    inside it, the request is shed with [Overloaded] after one
    zero-delay hop, before any work is scheduled. Without a deadline,
    admission is passive bookkeeping.

    Misses are single-flight: the first request for a (class, policy
    version) key leads and runs the pipeline; concurrent requests for
    the same key join it (counter [coalesced]) and settle — success or
    failure — with the leader, even if the node bumps its version
    meanwhile. No flight outlives a crash: from the first request or
    completion under the host's new epoch, a request leads a fresh
    flight, and a flight that the crash caught replies [Unavailable] to
    every joined request at once, the leader first, then the joiners
    in join order, without running the pipeline if its bytes had not
    arrived. *)

val request_sync : t -> cls:string -> reply
(** {!request} run to completion: it drains the node's engine
    ([Simnet.Engine.run]), so use it only on an engine nothing else is
    driving — unit tests, the CLI, a classloader. Cache, version,
    fence, admission, audit and single-flight rules are those of
    {!request}. A refusal (fence down, host crashed) returns
    [Unavailable]. *)

val provider : t -> Jvm.Classreg.provider
(** A classloading provider backed by {!request_sync} — what a DVM
    client plugs into its registry; it drains the engine the same way.
    Anything but [Bytes] is a missing class. *)

module Farm : module type of Farm
(** Sharded proxy farm: consistent-hash routing over independent
    shards, ring-order failover, farm-wide counter aggregation. The
    farm is the edge's simnet shell: the walk, the breakers and the
    failover decisions are {!Fetch_core.step}'s. *)

module Control : module type of Control
(** The farm's control plane: a leader-based replication log with
    lease fencing that propagates security-policy versions and
    rewrite-cache invalidations to every shard over simnet links. *)
