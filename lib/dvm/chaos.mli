(** Seeded chaos harness for the overload-control layer.

    A chaos run drives a sharded farm with overload-aware client
    sessions while a seeded schedule composes shard crash/restart
    windows, client-LAN loss and jitter, and a scripted load spike — a
    flash crowd of burst clients that multiplies the offered client
    population by [ch_spike_factor] for the spike window.
    Every random choice comes from one {!Simnet.Fault} stream, so a
    run replays bit-for-bit from its seed — [co_fault_trace] and
    [co_trace_digest] make that checkable. *)

type config = {
  ch_seed : int;
  ch_shards : int;
  ch_clients : int;
  ch_duration_s : int;
  ch_budget_us : int64;  (** per-fetch deadline budget *)
  ch_spike_factor : int;
      (** flash crowd: total offered clients ×this inside the window *)
  ch_spike_start_s : int;
  ch_spike_len_s : int;  (** 0 = no spike *)
  ch_crashes : int;  (** crash/restart windows drawn from the seed *)
  ch_loss_pct : float;  (** client-LAN loss percentage, whole run *)
  ch_jitter_us : int;  (** client-LAN propagation jitter bound *)
  ch_control : bool;  (** overload controls on? *)
  ch_trace : bool;
      (** reset + enable {!Telemetry.Trace} for the run, so every
          fetch yields a cross-node trace (off by default) *)
}

val default_config : config
(** 4 shards, 40 clients, 40 s, a 3× flash crowd in the middle, 2
    crash windows, 0.5% LAN loss — the bench and [dvmctl chaos]
    defaults. *)

(** Fixed in every chaos run: 12 applets, 1 s between a client's
    fetches and, with overload controls on, a 300 ms hedge delay and a
    retry+hedge pool of 8 tokens per session (also every control-plane
    session's pool). *)

val applets : int
val think_us : int64
val hedge_after_us : int64
val retry_budget : int

type outcome = {
  co_seed : int;
  co_clients : Client.Session.tally;
      (** [tl_served] counts fresh, in-deadline serves;
          [tl_deadline_violations] must be 0 *)
  co_goodput_bps : float;  (** in-deadline bytes/s over the whole run *)
  co_breaker_trips : int;
  co_tail_served : int;  (** fresh serves in the final quarter *)
  co_digests : (string * string) list;
      (** applet key → MD5 of served bytes, sorted; intra-run
          divergence is fatal *)
  co_fault_trace : string list;
  co_trace_digest : string;  (** MD5 over the engine event trace *)
  co_p50_us : int64;  (** exact quantiles over fresh-serve latencies *)
  co_p95_us : int64;
  co_p99_us : int64;
  co_slo : Telemetry.Slo.report;
      (** SLO monitor at the horizon: rolling goodput over the final
          quarter, violation rate, error-budget burn *)
}

val stale_key : string -> string
(** Applet prefix of a request name ([a3/c7-i12] → [a3]): the
    stale-archive key chaos sessions brown out against. *)

val run : config -> outcome
(** One seeded chaos run in simulated time. *)

val fault_free : config -> config
(** The same configuration with crashes, loss, jitter and the spike
    removed — the reference run invariants compare against. *)

(** The three chaos invariants, checked by {!verify}. *)
type verdict = {
  v_reference : outcome;  (** fault-free, spike-free *)
  v_chaotic : outcome;
  v_digests_ok : bool;
      (** every applet served under chaos is byte-identical (by MD5)
          to the fault-free run's serve *)
  v_no_late_serves : bool;  (** zero deadline violations in both runs *)
  v_recovered : bool;
      (** tail-window serves reach [recovery_frac] of the reference *)
}

val ok : verdict -> bool

val verify : ?recovery_frac:float -> config -> verdict
(** Run [fault_free config] and [config], check the invariants.
    [recovery_frac] defaults to 0.5. *)

type comparison = {
  cmp_control : outcome;
  cmp_baseline : outcome;
  cmp_goodput_ratio : float;  (** control / baseline *)
}

val spike_comparison : config -> comparison
(** The acceptance experiment: the same spiked run with overload
    controls on ([ch_control = true]: deadlines on the wire, admission
    shedding, breakers, hedging, retry budget) and off (deadline kept
    client-side only, so shards burn CPU on doomed requests), compared
    by goodput. *)

val print_outcome : ?label:string -> outcome -> unit

(** {1 The control-plane scenario}

    Policy bumps under partition and split brain: a warm-cache farm
    (per-shard L1 plus a shared L2, fixed request names) serves a
    fixed applet set while a {!Proxy.Control} log replicates a
    security-policy bump and its cache invalidations to every shard.
    The seeded schedule cuts the victim shard's {e control} links only
    — its data path stays up, so the farm keeps routing to a shard
    that can no longer hear the leader until its lease lapses and the
    fence trips — and optionally crash/restarts another shard so it
    must recover the current version and pending invalidations from
    the log rather than the stale shared L2. With elections in play
    the schedule also attacks the leadership itself: the leased leader
    is crashed just after proposing the bump (crash-during-commit —
    the new leader re-drives the uncommitted suffix under its own
    term) and partitioned late in the run (it wakes up with a stale
    term and must step down), while background invalidation churn
    grows the log past the snapshot threshold so compaction and
    snapshot catch-up genuinely happen mid-run.

    Three machine-checked invariants: {b no fetch issued after the
    bump committed is served bytes rewritten under the revoked
    version} (fetches already in flight at the commit instant are
    exempt — the lease bound is about when a shard stops accepting new
    work, not about work it already accepted; the check is offline:
    each applet's body is rewritten under both versions' stacks after
    the run, so every served digest maps to the versions that produce
    it); {b at most one member holds a valid leadership lease at any
    sampled instant, and terms are monotone per member} (election
    safety, probed every 100 ms of virtual time); and {b snapshot
    catch-up is state-identical to full-log replay} (every converged
    member's state digest equals a from-scratch replay of the
    authoritative log). *)

type control_config = {
  cc_seed : int;
  cc_shards : int;
  cc_clients : int;
  cc_duration_s : int;
  cc_applets : int;
  cc_cache_mb : int;  (** per-shard L1 and shared L2 capacity *)
  cc_partitions : int;
      (** control-link partition windows; the first spans the bump *)
  cc_partition_len_s : int;
  cc_bump_at_s : int;  (** when the leader proposes the new version *)
  cc_restart_shard : bool;
      (** crash/restart one shard, drawn from the seed *)
  cc_lease_us : int64;
  cc_churn_s : int;
      (** propose a rotating cache invalidation every N seconds (0 =
          off) — keeps the log growing so compaction triggers mid-run *)
  cc_snapshot_every : int;
      (** committed, applied entries that trigger a snapshot fold *)
  cc_leader_crash : bool;
      (** crash whoever holds the lease 200 ms after the bump, forcing
          a hand-off with an uncommitted suffix *)
  cc_leader_partition : bool;
      (** partition the leased leader 6 s after the bump for 2 s — the
          stale-term wake-up scenario *)
  cc_trace : bool;
}

val default_control_config : control_config
(** 4 shards, 24 clients, 30 s, 8 applets, the bump at 12 s, two 3 s
    partition windows (the first spanning the bump), one restart, 1 s
    invalidation churn with a snapshot fold every 4 entries, leader
    crash and leader partition on — the bench and [dvmctl control]
    defaults. *)

(** Fixed in every control-plane run: 500 ms between a client's
    fetches and a 2 s deadline budget per fetch. *)

val control_think_us : int64
val control_budget_us : int64

type control_outcome = {
  cn_seed : int;
  cn_clients : Client.Session.tally;  (** [tl_served] counts fresh serves *)
  cn_base_version : int;
  cn_new_version : int;
  cn_commit_us : int64;  (** when the bump committed (0 = never) *)
  cn_revoked_serves : int;
      (** fresh serves of revoked bytes issued after the commit — the
          invariant; must be 0 *)
  cn_inflight_exempt : int;
      (** old-version serves issued before the commit *)
  cn_fence_rejects : int;  (** requests refused by lease fences *)
  cn_resyncs : int;  (** members that caught up after falling behind *)
  cn_stale_drops : int;
      (** versioned cache lookups that dropped a stale entry *)
  cn_invalidations : int;  (** explicit [Cache.remove] hits *)
  cn_heartbeats : int;
  cn_commits : int;
  cn_term : int;  (** highest term reached *)
  cn_member_terms : int list;
  cn_elections : int;  (** elections won, bootstrap included *)
  cn_leader_changes : int;
  cn_stepdowns : int;
  cn_redrives : int;
      (** uncommitted entries re-stamped under a new leader's term *)
  cn_compactions : int;
  cn_snapshot_installs : int;
  cn_max_leased : int;
      (** max simultaneous leased leaders across all sampled instants —
          election safety demands [<= 1] *)
  cn_term_regressions : int;
      (** per-member term decreases observed — must be 0 *)
  cn_replay_ok : bool;
      (** converged, and every member's state digest is byte-identical
          to a full-log replay of the authoritative log — the snapshot
          catch-up invariant *)
  cn_converged : bool;
      (** every member applied the full log, at the new version, with
          a live lease, by the horizon *)
  cn_member_versions : int list;
  cn_changed_applets : string list;
      (** applets whose rewritten bytes differ across versions *)
  cn_digests : (string * string list) list;
      (** applet key → sorted distinct served digests *)
  cn_fault_trace : string list;
  cn_trace_digest : string;
}

val run_control : control_config -> control_outcome
(** One seeded control-plane run in simulated time. *)

val partition_free : control_config -> control_config
(** The same configuration with the partitions, the restart, and the
    leader crash/partition removed — the bump and the churn still
    happen; the reference run {!verify_control} compares against. *)

(** The control-plane invariants, checked by {!verify_control}. *)
type control_verdict = {
  w_reference : control_outcome;  (** partition-free, fault-free *)
  w_chaotic : control_outcome;
  w_no_revoked_serves : bool;  (** zero revoked serves in both runs *)
  w_single_leader : bool;
      (** never two leased leaders at a sampled instant and terms
          monotone per member, in both runs — election safety *)
  w_replay_ok : bool;
      (** snapshot catch-up state-identical to full-log replay, in
          both runs *)
  w_converged : bool;  (** both runs' members all reached the new version *)
  w_digests_ok : bool;
      (** applets the bump does not affect serve identical digest sets
          in both runs — partitions change who serves, never the
          bytes *)
}

val control_ok : control_verdict -> bool

val verify_control : control_config -> control_verdict
(** Run [partition_free config] and [config], check the invariants. *)

val print_control_outcome : ?label:string -> control_outcome -> unit

(** {1 Reports}

    The one rendering of each outcome, configuration banner and
    verdict: the bench pins the JSON in [BENCH_chaos.json] /
    [BENCH_control.json] and [dvmctl] prints the same strings. JSON
    strings are escaped with {!Telemetry.Flight.esc}; digests render
    as hex. *)

val outcome_json : outcome -> string

val invariants_json : verdict -> string
(** The three chaos invariants as one JSON object. *)

val config_banner : config -> string

val verdict_text : verdict -> string
(** The three invariant lines, each with its evidence. *)

val control_outcome_json : control_outcome -> string

val control_invariants_json : control_verdict -> string
(** The five control-plane invariants as one JSON object. *)

val control_config_banner : control_config -> string

val control_verdict_text : control_verdict -> string
(** The committed bump, then one line per invariant with its
    evidence. *)
