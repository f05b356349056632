(** The scaling experiment of §4.2 (Figure 10): hundreds of clients
    fetch different applets through the proxy farm with caching
    disabled — at one shard, the paper's single proxy. See the
    implementation header for the resource model behind the 64 MB
    knee. *)

val applet_workload :
  applet_count:int ->
  seed:int ->
  (string -> string option) * (string -> Simnet.Engine.time)
(** The workload plumbing shared with the farm and chaos experiments:
    [(origin, origin_latency)] over realized applet bodies. Request
    names are ["a<k>/<uniq>"], [k] a non-negative decimal: serve body
    [k mod applet_count]. The origin has nothing for any other name,
    and its latency is then 2 s. *)

val filters_for : Security.Policy.t -> Rewrite.Filter.t list
(** The standard pipeline — static verification, security rewriting
    under the given policy, audit instrumentation. The control-plane
    chaos scenario builds one stack per policy version from this. *)

val standard_filters : unit -> Rewrite.Filter.t list
(** [filters_for Experiment.standard_policy] — the stack every
    experiment runs. *)

(** {1 Shared scenario setup}

    What every multi-shard experiment (the farm experiment,
    {!Chaos.run}, {!Chaos.run_control}, {!Availability.run}) builds the
    same way. *)

val shard_name : int -> string
(** Host name of shard [i]: ["shard<i>"]. *)

val spread_client_state : Proxy.t array -> clients:int -> unit
(** Allocate [clients × per_client_state_bytes] of connected-client
    service state, split as evenly as possible over the shard hosts
    (lower indices take the remainder). *)

val population :
  ?start:Simnet.Engine.time ->
  ?first_id:int ->
  ?gate:(Simnet.Engine.time -> bool) ->
  Simnet.Engine.t ->
  clients:int ->
  applets:int ->
  think:Simnet.Engine.time ->
  (id:int -> iter:int -> applet:int -> (unit -> unit) -> unit) ->
  unit
(** The one client loop of every experiment: [clients] clients, ids
    from [first_id] (default 0), arrive staggered over one second from
    [start] (default 0). Client [id]'s [iter]-th fetch is [fetch ~id
    ~iter ~applet next] with [applet = (id + 37·iter) mod applets];
    [next ()] fetches again [think] later, not calling it stops the
    client, and so does a false [gate now] before a fetch. Raises
    [Invalid_argument] when [applets <= 0]. *)

val traced_engine : unit -> Simnet.Engine.t
(** A fresh engine recording its event trace, capped at one million
    records. *)

val trace_digest : Simnet.Engine.t -> string
(** MD5 over the engine's trace, one ["<time> <label>"] line per
    record. *)

val note_served : (string, string) Hashtbl.t -> string -> string -> unit
(** [note_served tbl key bytes] records the MD5 of bytes served for
    applet [key]; raises [Failure] if the key was already served
    different bytes in this run. *)

val served_digests : (string, string) Hashtbl.t -> (string * string) list
(** The table's [(key, digest)] pairs, sorted by key. *)

(** {1 The farm experiment}

    Clients fetch through a consistent-hash {!Proxy.Farm}: each shard
    owns a stable slice of the key space and its share of the
    per-client memory load, so the Figure-10 knee moves right with
    shard count. One shard is Figure 10 itself. *)

type farm_point = {
  f_shards : int;
  f_clients : int;
  f_throughput_bytes_per_s : float;
  f_mean_latency_us : float;
  f_mean_latency_s_per_kb : float;
      (** mean over completions of latency (s) per kB served — the
          paper's Figure-10 latency unit *)
  f_requests_completed : int;
  f_pipeline_runs : int;
  f_coalesced : int;
  f_l2_hits : int;
  f_utilization : float;  (** mean shard CPU utilization *)
  f_served : (string * string) list;
      (** applet key → MD5 of the served rewritten bytes, sorted by
          key. Identical across shard counts: the farm changes who
          does the work, never the work. *)
  f_trace_digest : string;
      (** MD5 of the engine's (time, label) event trace — same seed
          and configuration ⇒ same digest. *)
}

val run_farm :
  ?slo:Telemetry.Slo.t ->
  ?duration_s:int ->
  ?seed:int ->
  ?applet_count:int ->
  ?mem_capacity:int ->
  ?cache_capacity:int ->
  ?l2_capacity:int ->
  shards:int ->
  clients:int ->
  unit ->
  farm_point
(** [cache_capacity] sizes each shard's own L1 (0 disables it, every
    request unique — the worst case); [l2_capacity] > 0 adds one
    shared L2 instance across all shards. With any cache tier on,
    clients share the popular applet set so hits and single-flight
    coalescing can happen (the paper's stated mitigation). Clients
    send raw farm requests (no deadline, retry or hedge) and a refused
    one stops. [slo] receives one outcome per settled
    request (in-horizon serves as fresh, farm refusals as failed) on
    the run's virtual clock. [mem_capacity] (default 64 MB) is there
    for [test_farm]'s "3x past the knee", which reaches the Figure 10
    knee with 48 clients on 4 MB shards. *)

(** The JSON the bench pins: the Figure-10 series in
    [BENCH_paper.json], the shard sweep and the coalescing run in
    [BENCH_farm.json]. [json_list f l] is the JSON array of [f] over
    [l], for every experiment's renderings. *)

val json_list : ('a -> string) -> 'a list -> string
val fig10_json : farm_point list -> string
val shard_sweep_json : farm_point list -> string
val coalesce_json : farm_point -> string
