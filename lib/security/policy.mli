(** The organization-wide security policy (§3.2), derived from DTOS.

    Security identifiers (protection domains) relate to permissions
    through an access matrix; named resources map to identifiers; and
    an operation map relates security operations to the application
    code points where access checks are inserted. *)

type sid = string
type permission = string

type operation = {
  op_permission : permission;
  op_class : string;
  op_method : string;  (** ["*"] matches any method *)
  op_resource_arg : bool;
      (** the call's last [String] argument names the resource; the
          check resolves the resource's domain (DTOS object SIDs) *)
}

type rule = { rule_sid : sid; rule_permission : permission; rule_allow : bool }

type t = private {
  version : int;
  default_allow : bool;
  rules : rule list;
  resources : (string * sid) list;  (** resource-name prefix → domain *)
  operations : operation list;
  principals : (string * sid) list;  (** class-name prefix → domain *)
  by_class : index;  (** [operations] by class, for {!operations_for} *)
}

and index
(** Built by every constructor below, so no policy exists without it. *)

val make :
  default_allow:bool ->
  rules:rule list ->
  resources:(string * sid) list ->
  operations:operation list ->
  principals:(string * sid) list ->
  t
(** A version-1 policy. *)

val empty : t

val decide : t -> sid:sid -> permission:permission -> bool
(** Access-matrix lookup; first matching rule wins, else the default. *)

val prefix_match : string -> string -> bool
val domain_of_resource : t -> string -> sid option

val resource_permission :
  t -> permission:permission -> resource:string -> permission
(** The permission required for an access to a named resource:
    ["file.read@homedirs"] when the resource maps to a domain, the
    plain permission otherwise. *)

val domain_of_class : t -> string -> sid option
val operations_for : t -> cls:string -> meth:string -> operation list
(** The operations on [cls] whose method is [meth] or ["*"], in
    [operations] order: one lookup in [by_class]. *)

val slice_for_domain : t -> sid -> rule list
(** What an enforcement manager downloads on its first check. *)

val with_rule : t -> sid:sid -> permission:permission -> allow:bool -> t
(** Functional update; bumps the policy version (triggers cache
    invalidation). *)

val with_operation : t -> operation -> t
(** Operation-map update, also version-bumping. It changes which call
    sites the rewriter instruments — classes rewritten under the old
    version are textually different, the case the farm's control plane
    exists to invalidate. *)

val pp : Format.formatter -> t -> unit
