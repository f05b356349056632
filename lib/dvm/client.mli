(** Client assembly.

    Builds a VM configured either as a {e monolithic} virtual machine
    (all services local: load-time verification, stack-introspection
    security, client-side auditing) or as a {e DVM client} (thin
    runtime plus the dynamic service components: RTVerifier link
    checks, the enforcement manager, the monitoring natives). *)

type t = {
  vm : Jvm.Vmstate.t;
  rt_verifier : Verifier.Rt_verifier.stats option;
  enforcement : Security.Enforcement.t option;
  profiler : Monitor.Profiler.t option;
  mutable local_verify_checks : int;
}

(** {1 Overload-aware farm sessions}

    The simulated-time client side of overload control: deadlines
    handed to the farm, session-wide retry/hedge token budgets,
    tail-latency hedging against the next shard in ring order, and
    serve-stale brownout when the farm is unavailable. The decisions are
    {!Fetch_core}'s; a session is its simnet shell. *)
module Session : sig
  (** A fetch's outcome: [Fresh] bytes served inside its deadline;
      [Stale], a brownout to the archive's last fresh bytes for its
      key, counted apart from fresh serves; or [Failed]. *)
  type served = Fetch_core.served = Fresh of string | Stale of string | Failed

  type t = {
    engine : Simnet.Engine.t;
    farm : Proxy.Farm.t;
    core : Fetch_core.session;
        (** deadline budget, hedge delay, retry+hedge token pool and
            stale archive *)
    advertise_deadline : bool;  (** hand the deadline to the farm? *)
    deliver : bytes:int -> (unit -> unit) -> unit;  (** client-side wire *)
    slo : Telemetry.Slo.t option;  (** per-outcome SLO feed *)
    stale_key : string -> string;
    mutable fetches : int;
    mutable served : int;
    mutable bytes_served : int;
    mutable stale_served : int;
    mutable hedges : int;
    mutable hedge_wins : int;  (** fetches the hedged request won *)
    mutable retries : int;
    mutable overloaded_seen : int;  (** [Overloaded] replies observed *)
    mutable failed : int;
    mutable deadline_violations : int;
        (** late responses that would have been served had the client
            not dropped them — 0 by construction; nonzero means the
            deadline machinery broke *)
  }

  val create :
    ?budget_us:int64 ->
    ?hedge_after_us:int64 ->
    ?advertise_deadline:bool ->
    ?retry_budget:int ->
    ?deliver:(bytes:int -> (unit -> unit) -> unit) ->
    ?slo:Telemetry.Slo.t ->
    ?stale_key:(string -> string) ->
    Simnet.Engine.t ->
    Proxy.Farm.t ->
    t
  (** Defaults: 2 s deadline budget, no hedging, deadline advertised
      to the farm, unbounded token pool, immediate delivery, no SLO
      feed, identity archive key. [slo]
      receives one outcome per settled fetch (fresh/stale/failed,
      plus shed notes). [advertise_deadline:
      false] keeps client-side deadline enforcement but hides the
      deadline from the shards (so admission cannot shed) — the
      no-overload-control baseline. [stale_key] maps a class name to
      its stale-archive key (e.g. the applet prefix), so unique
      per-request names still brown out to the applet's last good
      bytes; it is applied once, when the fetch starts. *)

  val fetch : t -> cls:string -> (served -> unit) -> unit
  (** One deadline-bound fetch. When {!Telemetry.Trace} is enabled the
      fetch mints a distributed trace: the client span is the root,
      each attempt hands its context to the farm edge, and hedges,
      hedge wins, serve-stale brownouts and deadline expiry attach
      reason events. Each attempt also hands the farm edge the
      deadline (now + budget; {!Proxy.Farm.route}) when the session
      advertises it; shard admission sheds against it, and the client
      drops any response that lands past it. [Overloaded] replies are
      retried (with backoff) only while the token pool and the
      remaining budget allow; a queued retry keeps its fetch open, so
      a failing hedge does not settle it first. [Unavailable] — every
      shard down or breaker-barred — browns out to the stale archive,
      as does deadline expiry. The hedge, when enabled, races a second request
      at ring offset 1 after [hedge_after_us]; first response wins and
      the loser is discarded on arrival. Settling cancels the deadline
      and hedge timers ({!Simnet.Engine.cancel}), so a settled fetch
      leaves neither queued; replies still in flight land and are
      dropped. The fetch's state is one record per fetch and one per
      attempt at the edge; every reply, delivery or timer that lands
      on a settled fetch is a no-op. *)

  (** A client population's counters, summed over its sessions; each
      [tl_x] is the sum of the sessions' [x]. *)
  type tally = {
    tl_fetches : int;
    tl_served : int;
    tl_bytes_served : int;
    tl_stale_served : int;
    tl_hedges : int;
    tl_hedge_wins : int;
    tl_retries : int;
    tl_overloaded_seen : int;
    tl_failed : int;
    tl_deadline_violations : int;
  }

  val tally : t array -> tally
end

val jdk_security_hook :
  Jvm.Vmstate.t -> Security.Policy.t -> sid:Security.Policy.sid -> string -> unit
(** The monolithic JDK security manager: stack-introspection checks at
    the anticipated operations, charged at Figure 9's overheads. *)

val create_monolithic :
  ?policy:Security.Policy.t ->
  ?oracle_provider:Jvm.Classreg.provider ->
  provider:Jvm.Classreg.provider ->
  unit ->
  t
(** A JDK client that verifies every class it loads and checks [policy]
    for the domain ["default"]. [oracle_provider] serves the local
    verifier's environment lookups (defaults to [provider]); pass the
    raw origin to keep transfer metering honest. *)

val create_dvm :
  ?console:Monitor.Console.t ->
  ?session:int ->
  ?security_server:Security.Server.t ->
  ?sid:Security.Policy.sid ->
  provider:Jvm.Classreg.provider ->
  unit ->
  t

val run_main : t -> string -> (unit, Jvm.Value.t) result
val client_time_us : t -> int64
