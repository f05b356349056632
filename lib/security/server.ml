(* The centralized network security service: holds the master policy,
   answers enforcement-manager queries, and drives the
   cache-invalidation protocol that propagates access-matrix changes to
   clients (§3.2). *)

type t = {
  mutable policy : Policy.t;
  mutable subscribers : (unit -> unit) list; (* invalidation callbacks *)
  mutable downloads : int;
  mutable invalidations_sent : int;
}

let create policy =
  { policy; subscribers = []; downloads = 0; invalidations_sent = 0 }

let policy t = t.policy

(* Single point of control: changing the policy immediately invalidates
   every subscribed client cache. No cooperation from unprivileged
   users is required. *)
let set_policy t p =
  t.policy <- p;
  List.iter
    (fun cb ->
      t.invalidations_sent <- t.invalidations_sent + 1;
      cb ())
    t.subscribers

let update t f = set_policy t (f t.policy)

(* The bulk download an enforcement manager performs on first use:
   the domain's rules, the policy default, and the resource map (so
   resource-qualified checks resolve locally). *)
let download_slice t ~sid =
  t.downloads <- t.downloads + 1;
  ( Policy.slice_for_domain t.policy sid,
    t.policy.Policy.default_allow,
    t.policy.Policy.resources )

let subscribe t cb = t.subscribers <- cb :: t.subscribers
