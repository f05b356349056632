(** The verifier's window onto the class environment.

    On the server the oracle knows the boot library and whatever
    application classes have passed through the proxy; everything else
    is {e unknown}, and checks against unknown classes become collected
    assumptions deferred to the client (the paper's link-phase
    partitioning). *)

type class_info = {
  ci_name : string;
  ci_super : string option;
  ci_interfaces : string list;
  ci_final : bool;
  ci_fields : (string * string * bool * bool) list;
      (** name, desc, is_static, is_private *)
  ci_methods : (string * string * bool * bool) list;
}

type t = string -> class_info option

val info_of_classfile : Bytecode.Classfile.t -> class_info
val of_classes : Bytecode.Classfile.t list -> t
val empty : t

val extend : t -> Bytecode.Classfile.t list -> t
(** Extend an oracle with additional classes (e.g. the class under
    verification, so self-references resolve). *)

val lookup_field :
  t ->
  string ->
  string ->
  [ `Found of string * string * bool * bool | `Absent | `Unknown ]
(** Field lookup through the superclass chain; [`Unknown] when the walk
    escapes the oracle's knowledge. Found yields
    (declaring class, descriptor, is_static, is_private). *)

val lookup_method :
  t ->
  string ->
  string ->
  string ->
  [ `Found of string * bool * bool | `Absent | `Unknown ]
(** Method lookup through the superclass chain. Found yields
    (declaring class, is_static, is_private). *)

val is_subclass : t -> sub:string -> super:string -> [ `Yes | `No | `Unknown ]
(** Three-valued subtype query over possibly-unknown hierarchies.
    Arrays are covariant; every reference widens to Object. *)

val elem_of : string -> string option
