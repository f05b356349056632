(** The farm's control plane: a replicated log with term-numbered
    leader election, leadership + serving leases, and snapshot
    compaction, carrying security-policy versions and rewrite-cache
    invalidations to every shard over simnet links.

    Every member is a full replica. A member that has not heard a
    leader for its (id-staggered) election timeout campaigns: it bumps
    its term and solicits votes; a voter grants at most one vote per
    term and only to candidates whose log is at least as complete as
    its own, so a majority winner holds every committed entry. A vote
    grant carries the voter's promise horizon — the time until which
    its past acks may still extend an old leader's leadership lease —
    and the winner's lease is invalid before the maximum promise its
    majority reported. Majorities intersect, so at most one leader
    holds a valid lease per instant (the election-safety invariant,
    probed by {!leased_leaders}).

    An entry proposed at [p] commits at

    [max (majority acked, min (all acked, p + lease_us + margin))]

    — the majority arm makes it durable across leader changes (the
    election restriction hands it to every future leader); the fence
    arm is sound because by [p + lease + margin] every member has
    either applied the entry or lost the serving lease, which only a
    {e leased} leader's heartbeats renew, and the backstop fires only
    while the proposing leader still holds its leadership lease. A new
    leader re-drives the uncommitted suffix of its log under its own
    term. Replicas fold the committed, applied prefix into a snapshot
    (version bound + pending invalidation set) once it exceeds a
    threshold and truncate the log; laggards and restarted members
    catch up from snapshot + suffix instead of replaying history.
    Restart keeps the durable stub (term, vote, promise horizon,
    snapshot, log), replays it locally, and stays fenced until a
    leader confirms the member is current.

    The protocol itself is {!Control_core}, a pure step function over
    plain data; this module is its simnet shell (hosts, links, the
    tick loop, apply callbacks, tracing), performing each step's
    effects in the order the core returns them.

    Counters: [control.heartbeats], [control.acks],
    [control.proposals], [control.commits], [control.applies],
    [control.resyncs], [control.restarts]; and the reason events
    [control.vote], [control.term_bump], [control.election_win],
    [control.stepdown], [control.redrive], [control.lease_grant],
    [control.lease_expire], [control.snapshot_compact],
    [control.snapshot_install], [control.resync], each also a
    same-named counter. *)

type t

type entry =
  | Set_version of int  (** the security policy moved to this version *)
  | Invalidate of string  (** drop this class from rewrite caches *)

val entry_to_string : entry -> string

val create :
  Simnet.Engine.t ->
  ?lease_us:int64 ->
  ?snapshot_threshold:int ->
  ?initial_version:int ->
  unit ->
  t
(** Defaults: 1 s leases, a snapshot fold at 8 committed live
    entries, initial policy version 1. The rest is fixed
    ({!Control_core}): leases renewed every 250 ms, a 100 ms commit
    margin, a 600 ms base election timeout staggered by one heartbeat
    interval per member id, 64-byte heartbeats/acks carrying 96 bytes
    per log entry (a shipped snapshot costs one entry plus one per
    pending invalidation). *)

val add_member :
  t ->
  name:string ->
  host:Simnet.Host.t ->
  link_to:Simnet.Link.t ->
  link_from:Simnet.Link.t ->
  apply:(entry -> unit) ->
  int
(** Register a replica; returns its member id. [link_to] is the
    fabric → member downlink, [link_from] the member → fabric uplink;
    a message between two members crosses the sender's uplink and then
    the receiver's downlink, so severing one member's pair
    ({!Simnet.Link.set_partitioned}) isolates it from the whole plane
    while its data path stays up. [apply] runs at delivery, in log
    order — and again on snapshot install or restart replay, so
    effects must be idempotent joins (version bumps and invalidations
    are). A member whose host is down ignores deliveries entirely. A
    fresh member starts with a live serving lease: the log it could be
    missing is empty. *)

val start : t -> until:Simnet.Engine.time -> unit
(** Start the tick loop (elections, heartbeats, lease renewal); call
    it once. It reschedules itself every 250 ms until the virtual
    clock passes [until]. When tracing is enabled, opens a
    [control.plane] root span that collects the reason events. *)

val propose : t -> entry -> int option
(** Append an entry at the current leased leader and return its
    proposal id — unique, monotone, never reused — or [None] when no
    member holds a valid leadership lease (mid-election, leader
    partitioned) — callers retry. Log {e indices} continue from the
    leader's own last entry, so an index minted by a dead leader for
    an uncommitted entry may be reused under a later term; commitment
    is therefore tracked by proposal id, which follows the entry
    across leader hand-off re-drives and can never alias a different
    entry that later commits at a reused index. Watch commitment with
    {!committed} / {!commit_us}. *)

val committed : t -> id:int -> bool
(** Has the proposal with this id committed? A re-driven proposal
    (same entry, re-stamped under a new leader's term) keeps its id;
    a lost proposal's id never reports committed, even after a
    different entry commits at the same log index. *)

val commit_us : t -> id:int -> Simnet.Engine.time option

val committed_version : t -> int
(** Highest [Set_version] that has committed — the version the
    serving invariant is stated against. *)

val current_version : t -> int
(** Highest [Set_version] a leader accepted (it may not have
    committed yet). *)

val member_ok : t -> int -> bool
(** May this shard serve right now? [true] only on a live serving
    lease. Only a leased leader's heartbeats renew it, and only once
    the member has applied everything that leader holds — so a
    partitioned, stale or restarted member fences itself within one
    [lease_us]. Nodes plug this into [Node.serving_allowed] so a
    fenced shard fails over. *)

val mark_restarted : t -> int -> unit
(** The shard lost its volatile serving state (caches, version,
    leases) but kept the durable stub a real deployment would fsync —
    term, vote, promise horizon, snapshot, log. Replays the stub into
    the fresh node via [apply] (snapshot fold first, then the retained
    suffix) and fences the member until a leader confirms it is
    current. Call from the host's [on_restart] hook. *)

val converged : t -> bool
(** A leased leader exists, every member holds exactly its log (same
    last index and term) and has applied it, and every serving lease
    is live. *)

(** {2 Election and replication observables} *)

val leader : t -> int option
(** The member holding a valid leadership lease right now, if any. *)

val leased_leaders : t -> int list
(** Every member holding a valid leadership lease at this instant —
    the split-brain probe. Election safety says this never has two
    elements. *)

val term : t -> int
(** Highest term any member has seen. *)

val member_term : t -> int -> int
val member_role : t -> int -> string
(** ["follower"], ["candidate"] or ["leader"]. *)

val member_state_digest : t -> int -> string
(** Canonical digest of the member's applied serving state — version
    plus sorted invalidation set. The snapshot catch-up invariant
    byte-compares this across members and against {!replay_digest}. *)

val replay_digest : t -> string
(** The state a fresh replica reaches by replaying the authoritative
    log (the leased leader's, else the most election-worthy member's)
    from scratch: snapshot fold + live suffix. Snapshot catch-up is
    correct iff every converged member's {!member_state_digest}
    equals this. *)

(** {2 Introspection} *)

val log_length : t -> int
(** Highest log index ever minted (compaction does not shrink it). *)

val member_version : t -> int -> int
(** Highest [Set_version] this member has applied. *)

val member_applied : t -> int -> int
val member_resyncs : t -> int -> int

val member_snapshot_index : t -> int -> int
(** Log index through which this member's state is folded into its
    snapshot. *)

val member_snapshot_installs : t -> int -> int

(** {2 Counters} *)

val heartbeats : t -> int
val commits : t -> int
val resyncs : t -> int

val elections : t -> int
(** Elections won (leaderships assumed, including re-elections). *)

val stepdowns : t -> int
val redrives : t -> int
(** Uncommitted entries re-stamped under a new leader's term. *)

val compactions : t -> int
val snapshot_installs : t -> int

val leader_changes : t -> int
(** Changes of leadership identity (bootstrap election included). *)
