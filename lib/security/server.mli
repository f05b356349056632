(** The centralized network security service (§3.2).

    Holds the master policy, answers enforcement-manager queries, and
    drives the cache-invalidation protocol that propagates access-matrix
    changes to clients. *)

type t = {
  mutable policy : Policy.t;
  mutable subscribers : (unit -> unit) list;
  mutable downloads : int;
  mutable invalidations_sent : int;
}

val create : Policy.t -> t
val policy : t -> Policy.t

val update : t -> (Policy.t -> Policy.t) -> unit

val download_slice :
  t -> sid:Policy.sid -> Policy.rule list * bool * (string * Policy.sid) list
(** The bulk download an enforcement manager performs on first use:
    the domain's rules, the policy default, and the resource map. *)

val subscribe : t -> (unit -> unit) -> unit
