(* Seeded chaos harness for the proxy farm's overload-control layer.

   One [run] drives a 4-shard-style farm with overload-aware client
   sessions while a seeded schedule composes the failure modes the
   overload layer exists for: shard crash/restart windows, client-LAN
   loss and jitter, and a scripted load spike — a flash crowd of burst
   clients that triples the offered client population for the spike
   window. Every random choice — crash victims, crash times, loss
   decisions — comes from one [Simnet.Fault] splitmix64 stream, so a
   run is replayable bit-for-bit from its seed.

   [verify] runs the same configuration fault-free and checks the
   three invariants the ISSUE pins:

   1. integrity — every applet digest served under chaos equals the
      fault-free run's digest for that applet (faults may lose
      requests, never corrupt them);
   2. deadlines — no session served a response past its deadline
      (the sessions' [deadline_violations] tripwires stay 0);
   3. recovery — once faults clear, throughput in the tail window
      returns to at least [recovery_frac] of the fault-free run's.

   [spike_comparison] is the acceptance experiment: the same spiked
   run with the overload controls on (deadlines on the wire, admission
   shedding, breakers, hedging, retry budget) and off (deadline kept
   client-side only, so the farm works on doomed requests), compared
   by goodput — bytes served inside their deadlines per second. *)

type config = {
  ch_seed : int;
  ch_shards : int;
  ch_clients : int;
  ch_duration_s : int;
  ch_budget_us : int64; (* per-fetch deadline budget *)
  ch_spike_factor : int; (* total offered clients ×this inside the window *)
  ch_spike_start_s : int;
  ch_spike_len_s : int; (* 0 = no spike *)
  ch_crashes : int; (* crash/restart windows drawn from the seed *)
  ch_loss_pct : float; (* client-LAN loss, whole run *)
  ch_jitter_us : int; (* client-LAN propagation jitter bound *)
  ch_control : bool; (* overload controls on? *)
  ch_trace : bool; (* reset + enable distributed tracing for the run? *)
}

(* Sized so the fault-free run is healthy (p95 well inside the
   deadline budget at ~70% utilization) while the 3× flash crowd
   offers more than the farm's pipeline capacity for the whole spike:
   without admission control, queueing delay blows through every
   deadline and the shards burn their CPU on doomed requests; with it,
   shedding keeps admitted requests inside budget. *)
let default_config =
  {
    ch_seed = 42;
    ch_shards = 4;
    ch_clients = 40;
    ch_duration_s = 40;
    ch_budget_us = 800_000L;
    ch_spike_factor = 3;
    ch_spike_start_s = 6;
    ch_spike_len_s = 22;
    ch_crashes = 2;
    ch_loss_pct = 0.5;
    ch_jitter_us = 2_000;
    ch_control = true;
    ch_trace = false;
  }

(* Fixed for every chaos run. *)
let applets = 12
let think_us = 1_000_000L (* per-client gap between fetches *)
let hedge_after_us = 300_000L
let retry_budget = 8 (* per-session retry+hedge token pool *)

type outcome = {
  co_seed : int;
  co_clients : Client.Session.tally; (* served = fresh, in-deadline *)
  co_goodput_bps : float; (* in-deadline bytes/s over the whole run *)
  co_breaker_trips : int;
  co_tail_served : int; (* fresh serves in the final quarter *)
  co_digests : (string * string) list; (* applet key -> MD5, sorted *)
  co_fault_trace : string list;
  co_trace_digest : string; (* MD5 over the engine event trace *)
  co_p50_us : int64; (* exact quantiles over fresh-serve latencies *)
  co_p95_us : int64;
  co_p99_us : int64;
  co_slo : Telemetry.Slo.report; (* SLO monitor state at the horizon *)
}

(* Exact quantile over the collected latencies (unlike the log₂
   histogram's bucket bounds): sort and index. *)
let exact_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0L
  else
    let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let stale_key cls =
  match String.index_opt cls '/' with
  | Some i -> String.sub cls 0 i
  | None -> cls

let run (cfg : config) : outcome =
  if cfg.ch_shards <= 0 then invalid_arg "Chaos.run: shards must be positive";
  if cfg.ch_trace then begin
    (* Fresh collector per run so trace/span ids (and thus exports)
       are a pure function of the seed. *)
    Telemetry.Trace.reset ();
    Telemetry.Trace.enable ()
  end;
  let engine = Scaling.traced_engine () in
  let plan = Simnet.Fault.create ~seed:cfg.ch_seed in
  let origin, _wan = Scaling.applet_workload ~applet_count:applets ~seed:cfg.ch_seed in
  (* Intranet deployment: the origin is the organization's file store a
     few ms away, so request latency is dominated by farm queueing and
     pipeline work — the regime overload control governs. The WAN
     applet latencies would put most fetches past any reasonable
     deadline before the farm even saw them. *)
  let origin_latency _ = Simnet.Engine.ms 10 in
  let filters = Scaling.standard_filters () in
  (* Unique per-fetch class names keep the *simulated* cache out of the
     picture — every fetch is real pipeline work in the cost model —
     but the host CPU shares one outcome memo across the pool: the
     standard stack is effect-free apart from telemetry, so identical
     applet bytes replay the first run's tape instead of re-verifying.
     Digests, costs and counters are byte-identical either way. *)
  let memo = Proxy.Pipeline.Memo.create () in
  let pool =
    Array.init cfg.ch_shards (fun i ->
        Proxy.create engine ~cache_capacity:0 ~memo
          ~host_name:(Scaling.shard_name i) ~origin ~origin_latency ~filters ())
  in
  let farm = Proxy.Farm.create engine pool in
  Scaling.spread_client_state pool ~clients:cfg.ch_clients;
  let lan = Simnet.Link.ethernet_10mb engine in
  if cfg.ch_loss_pct > 0.0 || cfg.ch_jitter_us > 0 then
    Simnet.Link.set_faults lan ~plan ~drop_prob:(cfg.ch_loss_pct /. 100.0)
      ~jitter_max_us:cfg.ch_jitter_us ();
  let horizon = Simnet.Engine.sec cfg.ch_duration_s in
  (* Crash windows: [ch_crashes] victims and times drawn from the
     seed, confined to the middle half of the run so the tail window
     is fault-free and recovery is measurable. *)
  let mid_start = Int64.div horizon 4L and mid_len = Int64.div horizon 2L in
  for _ = 1 to cfg.ch_crashes do
    let victim = Simnet.Fault.range plan ~max:cfg.ch_shards in
    let crash_at =
      Int64.add mid_start
        (Int64.of_int (Simnet.Fault.range plan ~max:(Int64.to_int mid_len)))
    in
    let down_for =
      Int64.of_int (1_000_000 + Simnet.Fault.range plan ~max:2_000_000)
    in
    Simnet.Fault.schedule_host_faults plan pool.(victim).Proxy.host
      ~schedule:[ (crash_at, down_for) ]
      ()
  done;
  let spike_start = Simnet.Engine.sec cfg.ch_spike_start_s in
  let spike_end =
    Int64.add spike_start (Simnet.Engine.sec cfg.ch_spike_len_s)
  in
  let in_spike now =
    Int64.compare now spike_start >= 0 && Int64.compare now spike_end < 0
  in
  (* The flash crowd: (spike_factor - 1) × clients extra burst
     sessions that fetch only inside the spike window, so offered
     client population is spike_factor × the base during the spike. *)
  let burst =
    if cfg.ch_spike_len_s > 0 && cfg.ch_spike_factor > 1 then
      (cfg.ch_spike_factor - 1) * cfg.ch_clients
    else 0
  in
  (* One SLO monitor for the whole client population; its window is
     the recovery tail, so the report shows steady-state health. *)
  let slo =
    Telemetry.Slo.create
      ~window_s:(max 1 (cfg.ch_duration_s / 4))
      ~objective:0.99 ()
  in
  let sessions =
    Array.init (cfg.ch_clients + burst) (fun _ ->
        Client.Session.create ~budget_us:cfg.ch_budget_us
          ?hedge_after_us:(if cfg.ch_control then Some hedge_after_us else None)
          ~advertise_deadline:cfg.ch_control
          ~retry_budget:(if cfg.ch_control then retry_budget else 0)
          ~deliver:(fun ~bytes k -> Simnet.Link.transfer lan ~bytes k)
          ~slo ~stale_key engine farm)
  in
  let served : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let latencies = ref [] in
  let tail_start = Int64.sub horizon (Int64.div horizon 4L) in
  let tail_served = ref 0 in
  let fetch ~id ~iter ~applet next =
    let applet_key = Printf.sprintf "a%d" applet in
    (* Unique names: caching off, every fetch is real pipeline work. *)
    let name = Printf.sprintf "%s/c%d-i%d" applet_key id iter in
    let started = Simnet.Engine.now engine in
    Client.Session.fetch sessions.(id) ~cls:name (fun outcome ->
        let now = Simnet.Engine.now engine in
        (match outcome with
        | Client.Session.Fresh b ->
          Simnet.Engine.record engine
            (Printf.sprintf "serve %s -> c%d" name id);
          Scaling.note_served served applet_key b;
          latencies := Int64.sub now started :: !latencies;
          if Int64.compare now tail_start >= 0 then incr tail_served
        | Client.Session.Stale _ | Client.Session.Failed -> ());
        next ())
  in
  Scaling.population engine ~clients:cfg.ch_clients ~applets ~think:think_us
    fetch;
  (* The flash crowd floods in over the spike's first second and lives
     only inside the spike window. *)
  Scaling.population engine ~start:spike_start ~first_id:cfg.ch_clients
    ~gate:in_spike ~clients:burst ~applets ~think:think_us fetch;
  Simnet.Engine.run ~until:horizon engine;
  let clients = Client.Session.tally sessions in
  let lat = Array.of_list !latencies in
  Array.sort Int64.compare lat;
  {
    co_seed = cfg.ch_seed;
    co_clients = clients;
    co_goodput_bps =
      Float.of_int clients.Client.Session.tl_bytes_served
      /. Float.max 1e-9 (Simnet.Engine.to_sec horizon);
    co_breaker_trips =
      (let n = ref 0 in
       for i = 0 to cfg.ch_shards - 1 do
         n := !n + Proxy.Breaker.trips (Proxy.Farm.breaker farm i)
       done;
       !n);
    co_tail_served = !tail_served;
    co_digests = Scaling.served_digests served;
    co_fault_trace = Simnet.Fault.trace plan;
    co_trace_digest = Scaling.trace_digest engine;
    co_p50_us = exact_quantile lat 0.50;
    co_p95_us = exact_quantile lat 0.95;
    co_p99_us = exact_quantile lat 0.99;
    co_slo = Telemetry.Slo.report slo ~now_us:horizon;
  }

(* --- The three invariants. --- *)

type verdict = {
  v_reference : outcome; (* fault-free, spike-free *)
  v_chaotic : outcome;
  v_digests_ok : bool;
  v_no_late_serves : bool;
  v_recovered : bool;
}

let ok v = v.v_digests_ok && v.v_no_late_serves && v.v_recovered

let fault_free cfg =
  { cfg with ch_crashes = 0; ch_loss_pct = 0.0; ch_jitter_us = 0; ch_spike_len_s = 0 }

let verify ?(recovery_frac = 0.5) (cfg : config) : verdict =
  let reference = run (fault_free cfg) in
  let chaotic = run cfg in
  (* Integrity: compare on the applet keys both runs served — the
     bytes are a pure function of the applet, so any mismatch is
     corruption, not coverage. *)
  let digests_ok =
    List.for_all
      (fun (key, digest) ->
        match List.assoc_opt key reference.co_digests with
        | Some d -> String.equal d digest
        | None -> true)
      chaotic.co_digests
  in
  {
    v_reference = reference;
    v_chaotic = chaotic;
    v_digests_ok = digests_ok;
    v_no_late_serves =
      chaotic.co_clients.Client.Session.tl_deadline_violations = 0
      && reference.co_clients.Client.Session.tl_deadline_violations = 0;
    v_recovered =
      Float.of_int chaotic.co_tail_served
      >= recovery_frac *. Float.of_int reference.co_tail_served;
  }

(* --- The acceptance experiment: overload control on vs off under the
   same spike. --- *)

type comparison = {
  cmp_control : outcome;
  cmp_baseline : outcome;
  cmp_goodput_ratio : float; (* control / baseline *)
}

let spike_comparison (cfg : config) : comparison =
  let control = run { cfg with ch_control = true } in
  let baseline = run { cfg with ch_control = false } in
  {
    cmp_control = control;
    cmp_baseline = baseline;
    cmp_goodput_ratio =
      control.co_goodput_bps /. Float.max 1e-9 baseline.co_goodput_bps;
  }

(* --- The control-plane scenario: policy bumps under partition and
   split brain. ---

   A farm with warm caches (per-shard L1 plus the shared L2) serves a
   fixed applet set while the control plane replicates a security-
   policy bump and its cache invalidations to every shard. The seeded
   schedule cuts the victim shard's *control* links — its data path
   stays up, the split-brain case: the farm keeps routing to a shard
   that can no longer hear the leader — and optionally crash/restarts
   another shard so it must recover the current version and pending
   invalidations from the leader's log rather than the stale L2.

   The machine-checked invariant: no fetch *issued after* the bump
   committed is served bytes rewritten under the revoked version.
   (Fetches already in flight at the commit are exempt — the lease
   bound is about when a shard stops accepting new work.) It is
   checked offline against pure pipeline runs: each applet's body is
   rewritten under every version's stack, so each served digest maps
   to the set of versions that produce it, and a violation is a fresh
   serve, issued when [committed_version >= v2], whose digest only old
   stacks produce. *)

type control_config = {
  cc_seed : int;
  cc_shards : int;
  cc_clients : int;
  cc_duration_s : int;
  cc_applets : int;
  cc_cache_mb : int; (* per-shard L1 and shared L2 capacity *)
  cc_partitions : int; (* control-link partition windows; the first spans the bump *)
  cc_partition_len_s : int;
  cc_bump_at_s : int; (* when the leader proposes the new policy version *)
  cc_restart_shard : bool; (* crash/restart one shard, drawn from the seed *)
  cc_lease_us : int64;
  cc_churn_s : int; (* propose an invalidation every N s (0 = off) *)
  cc_snapshot_every : int; (* committed entries per snapshot fold *)
  cc_leader_crash : bool; (* crash the leased leader just after the bump *)
  cc_leader_partition : bool; (* partition the leader late; stale-term wake-up *)
  cc_trace : bool;
}

let default_control_config =
  {
    cc_seed = 7;
    cc_shards = 4;
    cc_clients = 24;
    cc_duration_s = 30;
    cc_applets = 8;
    cc_cache_mb = 16;
    cc_partitions = 2;
    cc_partition_len_s = 3;
    cc_bump_at_s = 12;
    cc_restart_shard = true;
    cc_lease_us = 1_000_000L;
    cc_churn_s = 1;
    cc_snapshot_every = 4;
    cc_leader_crash = true;
    cc_leader_partition = true;
    cc_trace = false;
  }

(* Fixed for every control-plane run. *)
let control_think_us = 500_000L
let control_budget_us = 2_000_000L

type control_outcome = {
  cn_seed : int;
  cn_clients : Client.Session.tally; (* served = fresh serves *)
  cn_base_version : int;
  cn_new_version : int;
  cn_commit_us : int64; (* when the bump committed (0 = never) *)
  cn_revoked_serves : int; (* fresh serves of revoked bytes issued after commit — must be 0 *)
  cn_inflight_exempt : int; (* old-version serves issued before the commit *)
  cn_fence_rejects : int;
  cn_resyncs : int;
  cn_stale_drops : int; (* versioned cache lookups that dropped a stale entry *)
  cn_invalidations : int; (* explicit Cache.remove hits *)
  cn_heartbeats : int;
  cn_commits : int;
  cn_term : int; (* highest term reached *)
  cn_member_terms : int list;
  cn_elections : int;
  cn_leader_changes : int;
  cn_stepdowns : int;
  cn_redrives : int;
  cn_compactions : int;
  cn_snapshot_installs : int;
  cn_max_leased : int; (* max simultaneous leased leaders seen — must be <= 1 *)
  cn_term_regressions : int; (* per-member term decreases seen — must be 0 *)
  cn_replay_ok : bool;
      (* converged, and every member's state digest equals a full-log
         replay of the authoritative log — snapshot catch-up invariant *)
  cn_converged : bool; (* every member applied the full log, at the new version, leased *)
  cn_member_versions : int list;
  cn_changed_applets : string list; (* applets whose bytes differ across versions *)
  cn_digests : (string * string list) list; (* applet -> sorted distinct served digests *)
  cn_fault_trace : string list;
  cn_trace_digest : string;
}

let run_control (cfg : control_config) : control_outcome =
  if cfg.cc_shards <= 0 then
    invalid_arg "Chaos.run_control: shards must be positive";
  if cfg.cc_trace then begin
    Telemetry.Trace.reset ();
    Telemetry.Trace.enable ()
  end;
  let engine = Scaling.traced_engine () in
  let plan = Simnet.Fault.create ~seed:cfg.cc_seed in
  let origin, _wan =
    Scaling.applet_workload ~applet_count:cfg.cc_applets ~seed:cfg.cc_seed
  in
  let origin_latency _ = Simnet.Engine.ms 10 in
  (* Two policy versions: the standard policy, and the same policy
     tightened with audited operations on two specific applets' kernel
     entry points — an operation-map change, so the rewriter starts
     instrumenting those call sites and the rewritten bytes genuinely
     differ for exactly those applets. The rest exercise the
     unchanged-digest half of the invariant: partitions may change who
     serves them, never the bytes. *)
  let policy_v1 = Experiment.standard_policy in
  let tightened = List.filter (fun k -> k < cfg.cc_applets) [ 1; 4 ] in
  let policy_v2 =
    List.fold_left
      (fun p k ->
        Security.Policy.with_operation p
          {
            Security.Policy.op_permission = "applet.step";
            op_class = Printf.sprintf "applet/A%03d/Kernel" k;
            op_method = "step";
            op_resource_arg = false;
          })
      policy_v1 tightened
  in
  let v1 = policy_v1.Security.Policy.version
  and v2 = policy_v2.Security.Policy.version in
  let stack_v1 = Scaling.filters_for policy_v1
  and stack_v2 = Scaling.filters_for policy_v2 in
  let stack_of v = if v >= v2 then stack_v2 else stack_v1 in
  (* Warm-cache serving: per-shard L1s plus one shared L2, fixed
     request names, no memo — stale hits must actually recompute. *)
  let l2 = Proxy.Cache.create ~capacity:(cfg.cc_cache_mb * 1024 * 1024) in
  let pool =
    Array.init cfg.cc_shards (fun i ->
        Proxy.create engine
          ~cache_capacity:(cfg.cc_cache_mb * 1024 * 1024)
          ~l2 ~host_name:(Scaling.shard_name i) ~origin ~origin_latency
          ~filters:stack_v1 ())
  in
  Array.iter (fun p -> p.Proxy.policy_version <- v1) pool;
  let farm = Proxy.Farm.create engine pool in
  Scaling.spread_client_state pool ~clients:cfg.cc_clients;
  let horizon = Simnet.Engine.sec cfg.cc_duration_s in
  (* The control plane: per-member heartbeat/ack links over the farm
     LAN fabric. Applying an entry swaps the shard's filter stack and
     version, or drops the named class from its L1 and the shared L2. *)
  let ctl =
    Proxy.Control.create engine ~lease_us:cfg.cc_lease_us
      ~snapshot_threshold:(max 1 cfg.cc_snapshot_every) ~initial_version:v1 ()
  in
  let ctl_links =
    Array.mapi
      (fun i p ->
        let link name =
          Simnet.Link.create engine
            ~name:(Printf.sprintf "ctl-%s-shard%d" name i)
            ~bandwidth_bps:10_000_000 ~latency:(Simnet.Engine.us 500)
        in
        let lto = link "to" and lfrom = link "from" in
        let mid =
          Proxy.Control.add_member ctl
            ~name:p.Proxy.host.Simnet.Host.name ~host:p.Proxy.host
            ~link_to:lto ~link_from:lfrom
            ~apply:(fun entry ->
              match entry with
              | Proxy.Control.Set_version v ->
                p.Proxy.filters <- stack_of v;
                p.Proxy.policy_version <- v
              | Proxy.Control.Invalidate key ->
                ignore (Proxy.Cache.remove p.Proxy.cache key);
                ignore (Proxy.Cache.remove l2 key))
        in
        p.Proxy.serving_allowed <- (fun () -> Proxy.Control.member_ok ctl mid);
        (lto, lfrom, mid))
      pool
  in
  Proxy.Control.start ctl ~until:horizon;
  let bump_at = Simnet.Engine.sec cfg.cc_bump_at_s in
  let mid_start = Int64.div horizon 4L and mid_len = Int64.div horizon 2L in
  (* Partition windows on the victim's control links only — the data
     path stays up, so the farm keeps routing to a shard that cannot
     hear the leader until its lease lapses and the fence trips. The
     first window is pinned to span the bump (the interesting
     interleaving); the rest are drawn from the seed inside the middle
     half. *)
  for w = 0 to cfg.cc_partitions - 1 do
    let victim = Simnet.Fault.range plan ~max:cfg.cc_shards in
    let lto, lfrom, _ = ctl_links.(victim) in
    let len = Simnet.Engine.sec cfg.cc_partition_len_s in
    let start =
      if w = 0 then Int64.sub bump_at (Simnet.Engine.sec 1)
      else
        Int64.add mid_start
          (Int64.of_int (Simnet.Fault.range plan ~max:(Int64.to_int mid_len)))
    in
    Simnet.Fault.schedule_partition plan engine
      ~what:(Printf.sprintf "ctl shard%d" victim)
      ~set:(fun v ->
        Simnet.Link.set_partitioned lto v;
        Simnet.Link.set_partitioned lfrom v)
      ~schedule:[ (start, len) ]
      ()
  done;
  (* A restarted shard reboots with its L1 gone and its policy state
     back at the base version — everything it knows again it must
     re-learn from the leader's log before the control plane lets it
     serve. The shared L2 deliberately survives: the version stamps are
     what keep its old entries from being resurrected. *)
  let restart_cold i =
    let p = pool.(i) and _, _, mid = ctl_links.(i) in
    Proxy.Cache.clear p.Proxy.cache;
    p.Proxy.filters <- stack_v1;
    p.Proxy.policy_version <- v1;
    Proxy.Control.mark_restarted ctl mid
  in
  (* One crash/restart window. *)
  if cfg.cc_restart_shard then begin
    let victim = Simnet.Fault.range plan ~max:cfg.cc_shards in
    let crash_at =
      Int64.add mid_start
        (Int64.of_int (Simnet.Fault.range plan ~max:(Int64.to_int mid_len)))
    in
    let down_for =
      Int64.of_int (1_000_000 + Simnet.Fault.range plan ~max:2_000_000)
    in
    Simnet.Fault.schedule_host_faults plan pool.(victim).Proxy.host
      ~on_restart:(fun () -> restart_cold victim)
      ~schedule:[ (crash_at, down_for) ]
      ()
  end;
  (* The bump itself: the new version plus explicit invalidations for
     the keys whose bytes the bump changes, replicated through the
     log. The other applets' cached entries are left to the version
     stamps — their first post-bump touch is a stale drop and a
     recompute that regenerates identical bytes. *)
  (* Proposals go to whichever member holds the leadership lease; with
     elections in play there may transiently be none (mid-campaign,
     leader partitioned), so every proposer retries until a leased
     leader accepts. Retrying a lost entry is safe: both entry kinds
     are idempotent joins, so a duplicate is invisible in the final
     state. *)
  let rec propose_until entry k =
    match Proxy.Control.propose ctl entry with
    | Some id -> k id
    | None ->
      Simnet.Engine.schedule engine ~delay:200_000L (fun () ->
          propose_until entry k)
  in
  let bump_id = ref 0 in
  Simnet.Engine.schedule_at engine bump_at (fun () ->
      Simnet.Engine.record engine (Printf.sprintf "propose set-version %d" v2);
      propose_until (Proxy.Control.Set_version v2) (fun id ->
          bump_id := id);
      List.iter
        (fun k ->
          propose_until
            (Proxy.Control.Invalidate (Printf.sprintf "a%d/s" k))
            (fun _ -> ()))
        tightened);
  (* Background invalidation churn keeps the log growing so compaction
     actually triggers mid-run: rotating keys of *unchanged* applets,
     whose recompute regenerates identical bytes — the log history
     gets folded away while the serving invariant stays checkable. *)
  if cfg.cc_churn_s > 0 then begin
    let period = Simnet.Engine.sec cfg.cc_churn_s in
    let rec churn i at =
      if Int64.compare at horizon < 0 then
        Simnet.Engine.schedule_at engine at (fun () ->
            propose_until
              (Proxy.Control.Invalidate
                 (Printf.sprintf "a%d/s" (i mod cfg.cc_applets)))
              (fun _ -> ());
            churn (i + 1) (Int64.add at period))
    in
    churn 0 (Simnet.Engine.sec (min 2 cfg.cc_duration_s))
  end;
  (* Leader crash just after the bump: whoever holds the lease when the
     proposal is still working toward commit goes down mid-commit, and
     the new leader must re-drive the uncommitted suffix under its own
     term. The victim restarts cold (L1 gone, base policy) and rejoins
     through the snapshot + suffix path: by the time it returns the
     survivors' churn commits have carried the snapshot fold past its
     crash position. *)
  if cfg.cc_leader_crash then begin
    let crash_at = Int64.add bump_at 200_000L in
    let down_for =
      Int64.of_int (6_000_000 + Simnet.Fault.range plan ~max:2_000_000)
    in
    Simnet.Engine.schedule_at engine crash_at (fun () ->
        match Proxy.Control.leader ctl with
        | None -> ()
        | Some lid ->
          let host = pool.(lid).Proxy.host in
          Simnet.Fault.record plan ~at:crash_at
            (Printf.sprintf "leader-crash shard%d for %Ldus" lid down_for);
          Simnet.Host.crash host;
          Simnet.Engine.schedule engine ~delay:down_for (fun () ->
              Simnet.Host.restart host;
              restart_cold lid))
  end;
  (* Leader partition late in the run: the leased leader is cut off,
     loses its lease, the rest elect over it — and when the window
     heals the old leader wakes up with a stale term and must step
     down rather than split the brain. *)
  if cfg.cc_leader_partition then begin
    let at = Int64.add bump_at (Simnet.Engine.sec 6) in
    let len = Simnet.Engine.sec 2 in
    Simnet.Engine.schedule_at engine at (fun () ->
        match Proxy.Control.leader ctl with
        | None -> ()
        | Some lid ->
          let lto, lfrom, _ = ctl_links.(lid) in
          Simnet.Fault.record plan ~at
            (Printf.sprintf "leader-partition shard%d for %Ldus" lid len);
          Simnet.Link.set_partitioned lto true;
          Simnet.Link.set_partitioned lfrom true;
          Simnet.Engine.schedule engine ~delay:len (fun () ->
              Simnet.Fault.record plan ~at:(Int64.add at len)
                (Printf.sprintf "leader-partition shard%d healed" lid);
              Simnet.Link.set_partitioned lto false;
              Simnet.Link.set_partitioned lfrom false))
  end;
  (* Election-safety probes: sample every 100 ms of virtual time. The
     lease arithmetic guarantees disjointness continuously; the probe
     machine-checks it at every sampled instant, along with per-member
     term monotonicity. *)
  let max_leased = ref 0 and term_regressions = ref 0 in
  let last_terms = Array.make cfg.cc_shards 0 in
  let rec probe at =
    if Int64.compare at horizon <= 0 then
      Simnet.Engine.schedule_at engine at (fun () ->
          let n = List.length (Proxy.Control.leased_leaders ctl) in
          if n > !max_leased then max_leased := n;
          Array.iteri
            (fun i (_, _, mid) ->
              let tm = Proxy.Control.member_term ctl mid in
              if tm < last_terms.(i) then incr term_regressions;
              last_terms.(i) <- tm)
            ctl_links;
          probe (Int64.add at 100_000L))
  in
  probe 0L;
  let lan = Simnet.Link.ethernet_10mb engine in
  let sessions =
    Array.init cfg.cc_clients (fun _ ->
        Client.Session.create ~budget_us:control_budget_us
          ~advertise_deadline:true ~retry_budget
          ~deliver:(fun ~bytes k -> Simnet.Link.transfer lan ~bytes k)
          ~stale_key engine farm)
  in
  (* Fixed shared names keep the caches hot: [a<k>/s] for applet k.
     Each fresh serve is recorded with the committed version at issue
     time; the invariant is evaluated offline after the run. *)
  let records = ref [] in
  Scaling.population engine ~clients:cfg.cc_clients ~applets:cfg.cc_applets
    ~think:control_think_us (fun ~id ~iter:_ ~applet next ->
      let applet_key = Printf.sprintf "a%d" applet in
      let name = Printf.sprintf "%s/s" applet_key in
      let v_at_issue = Proxy.Control.committed_version ctl in
      Client.Session.fetch sessions.(id) ~cls:name (fun outcome ->
          (match outcome with
          | Client.Session.Fresh b ->
            Simnet.Engine.record engine
              (Printf.sprintf "serve %s @v%d -> c%d" name v_at_issue id);
            records := (applet_key, Dsig.Md5.digest b, v_at_issue) :: !records
          | Client.Session.Stale _ | Client.Session.Failed -> ());
          next ()));
  Simnet.Engine.run ~until:horizon engine;
  (* Offline invariant check against pure pipeline runs: map each
     applet to its rewritten digest under every version's stack. *)
  let expected =
    Array.init cfg.cc_applets (fun k ->
        let body =
          match origin (Printf.sprintf "a%d/s" k) with
          | Some b -> b
          | None -> failwith "Chaos.run_control: origin lost an applet"
        in
        let d stack = Proxy.Pipeline.digest (Proxy.Pipeline.run stack body) in
        (d stack_v1, d stack_v2))
  in
  let changed =
    List.filter_map
      (fun k ->
        let d1, d2 = expected.(k) in
        if String.equal d1 d2 then None else Some (Printf.sprintf "a%d" k))
      (List.init cfg.cc_applets (fun k -> k))
  in
  let revoked = ref 0 and exempt = ref 0 in
  List.iter
    (fun (applet_key, digest, v_at_issue) ->
      let k = int_of_string (String.sub applet_key 1 (String.length applet_key - 1)) in
      let d1, d2 = expected.(k) in
      if not (String.equal d1 d2) && String.equal digest d1 then
        if v_at_issue >= v2 then incr revoked else incr exempt)
    !records;
  let digests =
    let tbl : (string, string list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (applet_key, digest, _) ->
        let ds = Option.value ~default:[] (Hashtbl.find_opt tbl applet_key) in
        if not (List.mem digest ds) then Hashtbl.replace tbl applet_key (digest :: ds))
      !records;
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold
         (fun k ds acc -> (k, List.sort String.compare ds) :: acc)
         tbl [])
  in
  let mids = List.map (fun (_, _, mid) -> mid) (Array.to_list ctl_links) in
  let member_versions = List.map (Proxy.Control.member_version ctl) mids in
  let member_terms = List.map (Proxy.Control.member_term ctl) mids in
  let converged =
    Proxy.Control.converged ctl
    && List.for_all (fun v -> v = v2) member_versions
  in
  (* Snapshot catch-up invariant: a converged farm's members — some of
     whom got there through snapshot installs and restart replays —
     must hold state byte-identical to a from-scratch replay of the
     authoritative log. *)
  let replay_ok =
    converged
    &&
    let want = Proxy.Control.replay_digest ctl in
    List.for_all
      (fun mid -> String.equal (Proxy.Control.member_state_digest ctl mid) want)
      mids
  in
  {
    cn_seed = cfg.cc_seed;
    cn_clients = Client.Session.tally sessions;
    cn_base_version = v1;
    cn_new_version = v2;
    cn_commit_us =
      Option.value ~default:0L (Proxy.Control.commit_us ctl ~id:!bump_id);
    cn_revoked_serves = !revoked;
    cn_inflight_exempt = !exempt;
    cn_fence_rejects =
      Array.fold_left (fun acc p -> acc + p.Proxy.fenced_rejects) 0 pool;
    cn_resyncs = Proxy.Control.resyncs ctl;
    cn_stale_drops =
      l2.Proxy.Cache.stale_drops
      + Array.fold_left
          (fun acc p -> acc + p.Proxy.cache.Proxy.Cache.stale_drops)
          0 pool;
    cn_invalidations =
      l2.Proxy.Cache.invalidations
      + Array.fold_left
          (fun acc p -> acc + p.Proxy.cache.Proxy.Cache.invalidations)
          0 pool;
    cn_heartbeats = Proxy.Control.heartbeats ctl;
    cn_commits = Proxy.Control.commits ctl;
    cn_term = Proxy.Control.term ctl;
    cn_member_terms = member_terms;
    cn_elections = Proxy.Control.elections ctl;
    cn_leader_changes = Proxy.Control.leader_changes ctl;
    cn_stepdowns = Proxy.Control.stepdowns ctl;
    cn_redrives = Proxy.Control.redrives ctl;
    cn_compactions = Proxy.Control.compactions ctl;
    cn_snapshot_installs = Proxy.Control.snapshot_installs ctl;
    cn_max_leased = !max_leased;
    cn_term_regressions = !term_regressions;
    cn_replay_ok = replay_ok;
    cn_converged = converged;
    cn_member_versions = member_versions;
    cn_changed_applets = changed;
    cn_digests = digests;
    cn_fault_trace = Simnet.Fault.trace plan;
    cn_trace_digest = Scaling.trace_digest engine;
  }

(* Control-plane invariants: the chaotic run against its partition-free
   reference. *)
type control_verdict = {
  w_reference : control_outcome; (* partitions and all faults removed; bump kept *)
  w_chaotic : control_outcome;
  w_no_revoked_serves : bool; (* zero in both runs *)
  w_single_leader : bool;
      (* never two leased leaders at a sampled instant, and terms are
         monotone per member — the election-safety invariant *)
  w_replay_ok : bool;
      (* snapshot catch-up state-identical to full-log replay, both runs *)
  w_converged : bool; (* the chaotic run's members all reached the new version *)
  w_digests_ok : bool;
      (* applets the bump does not affect serve identical digest sets
         in both runs *)
}

let control_ok w =
  w.w_no_revoked_serves && w.w_single_leader && w.w_replay_ok && w.w_converged
  && w.w_digests_ok

let partition_free (cfg : control_config) =
  {
    cfg with
    cc_partitions = 0;
    cc_restart_shard = false;
    cc_leader_crash = false;
    cc_leader_partition = false;
  }

let verify_control (cfg : control_config) : control_verdict =
  let reference = run_control (partition_free cfg) in
  let chaotic = run_control cfg in
  let digests_ok =
    List.for_all
      (fun (key, ds) ->
        List.mem key chaotic.cn_changed_applets
        ||
        match List.assoc_opt key reference.cn_digests with
        | Some ds' -> ds = ds'
        | None -> true)
      chaotic.cn_digests
  in
  {
    w_reference = reference;
    w_chaotic = chaotic;
    w_no_revoked_serves =
      chaotic.cn_revoked_serves = 0 && reference.cn_revoked_serves = 0;
    w_single_leader =
      chaotic.cn_max_leased <= 1 && reference.cn_max_leased <= 1
      && chaotic.cn_term_regressions = 0
      && reference.cn_term_regressions = 0;
    w_replay_ok = chaotic.cn_replay_ok && reference.cn_replay_ok;
    w_converged = chaotic.cn_converged && reference.cn_converged;
    w_digests_ok = digests_ok;
  }

(* The counters both outcome lines open with. *)
let tally_text (t : Client.Session.tally) =
  Printf.sprintf "fetches=%d served=%d stale=%d failed=%d shed=%d"
    t.tl_fetches t.tl_served t.tl_stale_served t.tl_failed
    t.tl_overloaded_seen

let print_control_outcome ?(label = "control") o =
  Printf.printf
    "%-10s seed=%d %s \
     v%d->v%d commit=%Ldus revoked=%d exempt=%d fenced=%d resyncs=%d \
     stale_drops=%d invalidations=%d term=%d elections=%d \
     leader_changes=%d stepdowns=%d redrives=%d compactions=%d \
     snap_installs=%d max_leased=%d term_regr=%d replay_ok=%b \
     converged=%b\n"
    label o.cn_seed (tally_text o.cn_clients) o.cn_base_version
    o.cn_new_version o.cn_commit_us o.cn_revoked_serves o.cn_inflight_exempt
    o.cn_fence_rejects o.cn_resyncs o.cn_stale_drops o.cn_invalidations
    o.cn_term o.cn_elections o.cn_leader_changes o.cn_stepdowns o.cn_redrives
    o.cn_compactions o.cn_snapshot_installs o.cn_max_leased
    o.cn_term_regressions o.cn_replay_ok o.cn_converged

let print_outcome ?(label = "chaos") o =
  let t = o.co_clients in
  Printf.printf
    "%-10s seed=%d %s \
     retries=%d hedges=%d/%d trips=%d late=%d tail=%d goodput=%.0f B/s \
     p50=%Ldus p95=%Ldus p99=%Ldus\n"
    label o.co_seed (tally_text t) t.tl_retries t.tl_hedge_wins t.tl_hedges
    o.co_breaker_trips t.tl_deadline_violations o.co_tail_served
    o.co_goodput_bps o.co_p50_us o.co_p95_us o.co_p99_us

(* --- Reports: the one rendering of each outcome, banner and verdict
   that the bench pins and dvmctl prints. Strings reach JSON only
   through [Telemetry.Flight.esc]. --- *)

let json_string s = "\"" ^ Telemetry.Flight.esc s ^ "\""
let hex_string d = json_string (Dsig.Md5.to_hex d)

(* The keys both outcome objects open with. *)
let tally_json (t : Client.Session.tally) =
  Printf.sprintf
    "\"fetches\":%d,\"served\":%d,\"stale\":%d,\"failed\":%d,\"shed\":%d"
    t.tl_fetches t.tl_served t.tl_stale_served t.tl_failed t.tl_overloaded_seen

let outcome_json o =
  let t = o.co_clients in
  Printf.sprintf
    "{%s,\"hedges\":%d,\"hedge_wins\":%d,\"retries\":%d,\"breaker_trips\":%d,\"deadline_violations\":%d,\"goodput_bps\":%.1f,\"p50_us\":%Ld,\"p95_us\":%Ld,\"p99_us\":%Ld,\"trace_digest\":%s,\"slo\":%s}"
    (tally_json t) t.tl_hedges t.tl_hedge_wins t.tl_retries o.co_breaker_trips
    t.tl_deadline_violations o.co_goodput_bps o.co_p50_us o.co_p95_us
    o.co_p99_us (hex_string o.co_trace_digest)
    (Telemetry.Slo.report_json o.co_slo)

let invariants_json v =
  Printf.sprintf "{\"digests_ok\":%b,\"no_late_serves\":%b,\"recovered\":%b}"
    v.v_digests_ok v.v_no_late_serves v.v_recovered

let config_banner cfg =
  Printf.sprintf
    "%d shards, %d clients (x%d flash crowd at %d..%ds), %d crash windows,\n\
     %.1f%% LAN loss, %.0f ms deadline budget, overload control %s, seed %d\n"
    cfg.ch_shards cfg.ch_clients cfg.ch_spike_factor cfg.ch_spike_start_s
    (cfg.ch_spike_start_s + cfg.ch_spike_len_s)
    cfg.ch_crashes cfg.ch_loss_pct
    (Int64.to_float cfg.ch_budget_us /. 1e3)
    (if cfg.ch_control then "on" else "OFF")
    cfg.ch_seed

let verdict_text v =
  Printf.sprintf
    "served bytes digest-identical: %b\n\
     zero serves past deadline:     %b\n\
     steady-state recovery:         %b (tail serves %d vs reference %d)\n"
    v.v_digests_ok v.v_no_late_serves v.v_recovered v.v_chaotic.co_tail_served
    v.v_reference.co_tail_served

let control_outcome_json o =
  Printf.sprintf
    "{%s,\"base_version\":%d,\"new_version\":%d,\"commit_us\":%Ld,\"revoked_serves\":%d,\"inflight_exempt\":%d,\"fence_rejects\":%d,\"resyncs\":%d,\"stale_drops\":%d,\"invalidations\":%d,\"heartbeats\":%d,\"commits\":%d,\"term\":%d,\"member_terms\":%s,\"elections\":%d,\"leader_changes\":%d,\"stepdowns\":%d,\"redrives\":%d,\"compactions\":%d,\"snapshot_installs\":%d,\"max_leased\":%d,\"term_regressions\":%d,\"replay_ok\":%b,\"converged\":%b,\"changed_applets\":%s,\"digests\":{%s},\"trace_digest\":%s}"
    (tally_json o.cn_clients) o.cn_base_version o.cn_new_version
    o.cn_commit_us o.cn_revoked_serves o.cn_inflight_exempt
    o.cn_fence_rejects o.cn_resyncs o.cn_stale_drops
    o.cn_invalidations o.cn_heartbeats o.cn_commits o.cn_term
    (Scaling.json_list string_of_int o.cn_member_terms)
    o.cn_elections o.cn_leader_changes o.cn_stepdowns o.cn_redrives
    o.cn_compactions o.cn_snapshot_installs o.cn_max_leased
    o.cn_term_regressions o.cn_replay_ok o.cn_converged
    (Scaling.json_list json_string o.cn_changed_applets)
    (String.concat ","
       (List.map
          (fun (k, ds) ->
            json_string k ^ ":" ^ Scaling.json_list hex_string ds)
          o.cn_digests))
    (hex_string o.cn_trace_digest)

let control_invariants_json w =
  Printf.sprintf
    "{\"no_revoked_serves\":%b,\"single_leader\":%b,\"replay_ok\":%b,\"converged\":%b,\"digests_ok\":%b}"
    w.w_no_revoked_serves w.w_single_leader w.w_replay_ok w.w_converged
    w.w_digests_ok

let control_config_banner cfg =
  Printf.sprintf
    "%d shards, %d clients, %d applets, policy bump at %ds,\n\
     %d control-link partition windows of %ds (first spans the bump), \
     restart %s,\n\
     leader crash %s, leader partition %s, churn every %ds, snapshot \
     every %d,\n\
     %.0f ms lease, seed %d\n"
    cfg.cc_shards cfg.cc_clients cfg.cc_applets cfg.cc_bump_at_s
    cfg.cc_partitions cfg.cc_partition_len_s
    (if cfg.cc_restart_shard then "on" else "off")
    (if cfg.cc_leader_crash then "on" else "off")
    (if cfg.cc_leader_partition then "on" else "off")
    cfg.cc_churn_s cfg.cc_snapshot_every
    (Int64.to_float cfg.cc_lease_us /. 1e3)
    cfg.cc_seed

let control_verdict_text w =
  let c = w.w_chaotic in
  let ints l = String.concat " " (List.map string_of_int l) in
  Printf.sprintf
    "bump v%d -> v%d committed at %Ld us; %d applets change bytes: %s\n\n\
     no serves under revoked version: %b (in-flight exempt: %d)\n\
     at most one leased leader:      %b (max sampled %d, term regressions \
     %d)\n\
     snapshot catch-up = replay:     %b (%d compactions, %d installs)\n\
     every shard converged:          %b (versions %s, terms %s)\n\
     unaffected digests identical:   %b\n"
    c.cn_base_version c.cn_new_version c.cn_commit_us
    (List.length c.cn_changed_applets)
    (String.concat ", " c.cn_changed_applets)
    w.w_no_revoked_serves c.cn_inflight_exempt w.w_single_leader
    c.cn_max_leased c.cn_term_regressions w.w_replay_ok c.cn_compactions
    c.cn_snapshot_installs w.w_converged (ints c.cn_member_versions)
    (ints c.cn_member_terms) w.w_digests_ok
