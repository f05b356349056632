(** The enforcement manager (§3.2): the small dynamic component on each
    client.

    Rewritten applications call [dvm/Enforcement.check] before resource
    accesses; the manager resolves checks against the centralized
    policy, caching results. The first check downloads the domain's
    policy slice (Figure 9's "download" column); subsequent checks are
    local lookups. Cache invalidation propagates policy changes. *)

val class_name : string
val desc_check : string
val desc_check_resource : string

val cost_cached_check : int64
val cost_policy_download : int64

type t = {
  server : Server.t;
  mutable sid : Policy.sid;
  cache : (Policy.permission, bool) Hashtbl.t;
  mutable have_policy : bool;
  mutable default_allow : bool;
  mutable resources : (string * Policy.sid) list;
  mutable checks : int;
  mutable cache_hits : int;
  mutable downloads : int;
  mutable denials : int;
  mutable invalidations : int;
  mutable decisions_rev : (Policy.permission * bool) list;
}

val decisions : t -> (Policy.permission * bool) list
(** Every (permission, verdict) decided, in order. The elided program's
    sequence must be a subsequence of the unelided one with identical
    per-permission verdicts. *)

val invalidate : t -> unit

val allowed : ?vm:Jvm.Vmstate.t -> t -> Policy.permission -> bool
(** The decision procedure behind the injected checks; also usable
    directly (e.g. by tests and microbenchmarks). *)

val install : Jvm.Vmstate.t -> server:Server.t -> sid:Policy.sid -> t
(** Register the [dvm/Enforcement] class and native in a client VM and
    subscribe to invalidations. *)
