(** The verification type lattice for the phase-3 dataflow analysis. *)

type t =
  | Top  (** unusable join of incompatible slots *)
  | VInt
  | Null
  | Ref of string  (** class name or array name like ["\[I"] *)
  | Uninit of { pc : int; cls : string }
      (** result of [new] at instruction [pc], constructor not yet run *)
  | Uninit_this of string  (** [this] in [<init>] before the super call *)
  | Retaddr of int  (** return address for subroutine entry [int] *)

val equal : t -> t -> bool
val to_string : t -> string

val of_desc_ty : Bytecode.Descriptor.ty -> t
val of_desc_string : string -> t
val is_reference : t -> bool

val assignable_to_class :
  Oracle.t -> Assumptions.t -> scope:Assumptions.scope -> t -> target:string -> bool

val assignable_to_desc :
  Oracle.t ->
  Assumptions.t ->
  scope:Assumptions.scope ->
  t ->
  Bytecode.Descriptor.ty ->
  bool

val merge : Oracle.t -> t -> t -> t
(** Join (least upper bound). *)
