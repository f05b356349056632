(** The DVM instruction set.

    A JVM-like typed stack machine over 32-bit integers, object
    references and arrays. In this in-memory form branch targets are
    {e instruction indices} into the enclosing method's code array; the
    binary encoder/decoder translate to and from byte offsets. Index
    targets make rewriting — instruction insertion with target
    remapping — simple and total. *)

type icmp = Eq | Ne | Lt | Ge | Gt | Le

type t =
  | Nop
  | Iconst of int32  (** push an integer constant *)
  | Ldc_str of int  (** push the string literal at a CP [Str] index *)
  | Aconst_null
  | Iload of int
  | Istore of int
  | Aload of int
  | Astore of int
  | Iinc of int * int  (** add a constant to an int local in place *)
  | Iadd
  | Isub
  | Imul
  | Idiv
  | Irem
  | Ineg
  | Ishl
  | Ishr
  | Iand
  | Ior
  | Ixor
  | Dup
  | Dup_x1
  | Pop
  | Swap
  | Goto of int
  | If_icmp of icmp * int  (** branch on comparison of two ints *)
  | If_z of icmp * int  (** branch on comparison of an int against zero *)
  | If_acmp of bool * int  (** [true] branches when the two refs are equal *)
  | If_null of bool * int  (** [true] branches when the ref is null *)
  | Jsr of int  (** jump to subroutine, pushing a return address *)
  | Ret of int  (** return via the address in a local variable *)
  | Tableswitch of { low : int32; targets : int array; default : int }
  | Ireturn
  | Areturn
  | Return
  | Getstatic of int  (** CP [Fieldref] index *)
  | Putstatic of int
  | Getfield of int
  | Putfield of int
  | Invokevirtual of int  (** CP [Methodref] index *)
  | Invokestatic of int
  | Invokespecial of int  (** constructors and super calls *)
  | Invokeinterface of int  (** dispatch through an interface type *)
  | New of int  (** CP [Class] index *)
  | Newarray  (** new int array; length on stack *)
  | Anewarray of int  (** new reference array; CP [Class] element type *)
  | Arraylength
  | Iaload
  | Iastore
  | Aaload
  | Aastore
  | Athrow
  | Checkcast of int
  | Instanceof of int
  | Monitorenter
  | Monitorexit

val targets : t -> int list
(** Explicit branch targets (instruction indices). *)

val map_targets : (int -> int) -> t -> t

val is_terminator : t -> bool
(** [true] when control never falls through to the next instruction. *)

val successors : int -> t -> int list
(** [successors idx i] is the set of successor instruction indices of
    the instruction [i] located at [idx], exception edges excluded. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val encoded_size : t -> int
(** Size in bytes of the binary encoding of the instruction. *)
