(** Constant pool.

    An indexed table of shared constants referenced by instructions and
    by the class structure. As in real class files, index 0 is reserved
    and never denotes an entry. *)

type entry =
  | Utf8 of string
  | Int_const of int32
  | Class of int  (** index of a [Utf8] holding an internal class name *)
  | Str of int  (** index of a [Utf8] holding a string literal *)
  | Fieldref of int * int  (** [Class] index, [Name_and_type] index *)
  | Methodref of int * int  (** [Class] index, [Name_and_type] index *)
  | Name_and_type of int * int  (** name [Utf8] index, descriptor [Utf8] index *)

type t = entry array

exception Invalid_index of int
exception Wrong_kind of { index : int; expected : string }

(** A fully resolved field or method reference. *)
type member_ref = { ref_class : string; ref_name : string; ref_desc : string }

val size : t -> int
(** Number of slots including the reserved slot 0. *)

val entry : t -> int -> entry
(** @raise Invalid_index if the index is out of range (including 0). *)

val get_utf8 : t -> int -> string
val get_class_name : t -> int -> string
val get_string : t -> int -> string
val get_fieldref : t -> int -> member_ref
val get_methodref : t -> int -> member_ref

(** Interning constant-pool builder. Structurally identical entries are
    shared; building is amortized O(1) per entry. *)
module Builder : sig
  type t

  val create : unit -> t

  val of_pool : entry array -> t
  (** Seed a builder with an existing pool so that rewritten classes
      keep their original indices and only grow the pool. *)

  val utf8 : t -> string -> int
  val class_ : t -> string -> int
  val string : t -> string -> int
  val fieldref : t -> cls:string -> name:string -> desc:string -> int
  val methodref : t -> cls:string -> name:string -> desc:string -> int
  val to_pool : t -> entry array
end
