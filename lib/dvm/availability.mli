(** Availability under injected faults (§5's replication argument,
    evaluated): application startup through an N-shard {!Proxy.Farm}
    with link loss, latency jitter, and an optional shard crash
    mid-startup. Fully deterministic for a fixed scenario seed. *)

type scenario = {
  sc_seed : int;
  sc_spec : Workloads.Appgen.spec;
  sc_timeout_us : int;  (** per-attempt timeout *)
  sc_max_attempts : int;
  sc_base_backoff_us : int;
  sc_max_backoff_us : int;
  sc_jitter_max_us : int;
  sc_crash_primary : (Simnet.Engine.time * Simnet.Engine.time) option;
      (** crash shard 0 at [fst] for [snd] µs *)
  sc_cache_retained : float;
      (** fraction of the crashed proxy's cache surviving restart *)
  sc_wan_latency : Simnet.Engine.time;
}

val default_scenario : scenario
(** jlex (small build), 500 ms timeout, 4 attempts, 100 ms base
    backoff, 5 ms jitter, no crash. *)

val crash_scenario : scenario
(** [default_scenario] plus a crash of shard 0 at t=400 ms lasting
    2.5 s with a cold-cache restart. *)

type point = {
  av_loss_pct : float;
  av_replicas : int;  (** farm shards *)
  av_classes : int;
  av_startup_us : int64;  (** virtual time to fetch every class *)
  av_requests : int;  (** attempts issued *)
  av_retries : int;
  av_drops : int;  (** transfers lost on the client LAN *)
  av_failovers : int;  (** requests served by a non-owner shard *)
  av_degraded : int;  (** classes that exhausted the retry budget *)
  av_trace : string list;  (** the fault plan's injected-fault trace *)
}

val run :
  ?slo:Telemetry.Slo.t ->
  ?scenario:scenario ->
  loss_pct:float ->
  replicas:int ->
  unit ->
  point
(** [slo] receives one outcome per settled class fetch (served bytes
    as fresh, retry-budget exhaustion as failed) on the run's virtual
    clock, so a sweep can be summarized by the SLO monitor. *)

val sweep :
  ?slo:Telemetry.Slo.t ->
  ?scenario:scenario ->
  loss_pcts:float list ->
  replica_counts:int list ->
  unit ->
  point list

val print_table : point list -> unit
