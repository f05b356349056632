(** Availability under injected faults (§5's replication argument,
    evaluated): jlex startup through an N-shard {!Proxy.Farm} with link
    loss, latency jitter, and an optional shard crash mid-startup. Each
    attempt at a class is one {!Client.Session.fetch}; the client backs
    off between attempts. Fully deterministic for a fixed seed. *)

(** Fixed in every run: seed 23 unless given, a 500 ms per-attempt
    timeout (the session's deadline budget), 4 attempts per class, and
    a backoff between attempts that starts at 100 ms and doubles up to
    800 ms. *)

val default_seed : int
val timeout_us : int
val max_attempts : int
val base_backoff_us : int
val max_backoff_us : int

type point = {
  av_loss_pct : float;
  av_replicas : int;  (** farm shards *)
  av_classes : int;
  av_startup_us : int64;  (** virtual time to fetch every class *)
  av_requests : int;  (** attempts issued *)
  av_retries : int;
  av_drops : int;  (** transfers lost on the client LAN *)
  av_failovers : int;  (** requests served by a non-owner shard *)
  av_degraded : int;  (** classes that exhausted their attempts *)
  av_trace : string list;  (** the fault plan's injected-fault trace *)
}

val run :
  ?slo:Telemetry.Slo.t ->
  ?seed:int ->
  ?crash:bool ->
  loss_pct:float ->
  replicas:int ->
  unit ->
  point
(** [seed] (default {!default_seed}) drives the fault plan. [crash]
    (default false) crashes shard 0 at t=400 ms for 2.5 s; it restarts
    cache-cold. [slo] receives one outcome per settled class fetch
    (served bytes as fresh, exhausted attempts as failed) on the run's
    virtual clock, so a sweep can be summarized by the SLO monitor. *)

val sweep :
  ?slo:Telemetry.Slo.t ->
  ?seed:int ->
  ?crash:bool ->
  loss_pcts:float list ->
  replica_counts:int list ->
  unit ->
  point list
(** One {!run} per (replica count, loss) pair, replica-major. *)

val points_json : point list -> string
(** The sweep as the JSON array [BENCH_faults.json] pins. *)

val print_table : point list -> unit
