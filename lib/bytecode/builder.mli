(** Symbolic assembler.

    The convenient front end for constructing classes: instructions
    reference labels by name and members by (class, name, descriptor)
    triples. {!assemble} resolves labels to instruction indices and
    interns member references into a constant pool. [Label] markers
    occupy no code slot. *)

type instr =
  | Label of string  (** marks the position of the next real instruction *)
  | Const of int
  | Push_str of string
  | Null
  | Iload of int
  | Istore of int
  | Aload of int
  | Astore of int
  | Inc of int * int
  | Add | Sub | Mul | Div | Rem | Neg
  | Shl | Shr | And | Or | Xor
  | Dup
  | Dup_x1
  | Pop
  | Swap
  | Goto of string
  | If_icmp of Instr.icmp * string
  | If_z of Instr.icmp * string
  | If_acmp of bool * string
  | If_null of bool * string
  | Jsr of string
  | Ret of int
  | Switch of int * string list * string
  | Ireturn
  | Areturn
  | Return
  | Getstatic of string * string * string
  | Putstatic of string * string * string
  | Getfield of string * string * string
  | Putfield of string * string * string
  | Invokevirtual of string * string * string
  | Invokestatic of string * string * string
  | Invokespecial of string * string * string
  | Invokeinterface of string * string * string
  | New of string
  | Newarray
  | Anewarray of string
  | Arraylength
  | Iaload
  | Iastore
  | Aaload
  | Aastore
  | Athrow
  | Checkcast of string
  | Instanceof of string
  | Monitorenter
  | Monitorexit

exception Unbound_label of string
exception Duplicate_label of string

val assemble : Cp.Builder.t -> instr list -> Instr.t array
(** Lower symbolic instructions, resolving labels and interning
    constant-pool references.
    @raise Unbound_label or @raise Duplicate_label on label errors. *)

val estimate_max_stack :
  ?handler_targets:int list -> Cp.t -> Instr.t array -> int
(** Conservative upper bound on the operand-stack height, walking the
    CFG from entry (and from each handler target at height 1). *)

val estimate_max_locals : params:int -> is_static:bool -> Instr.t array -> int

(** A method definition awaiting assembly. *)
type mdef = {
  md_name : string;
  md_desc : string;
  md_flags : Classfile.access list;
  md_body : instr list option;
  md_handlers : (string * string * string * string option) list;
      (** (start label, end label, handler label, catch type) *)
}

val meth :
  ?flags:Classfile.access list ->
  ?handlers:(string * string * string * string option) list ->
  string ->
  string ->
  instr list ->
  mdef
(** No workload has a handler; [handlers] is for the handler cases of
    [test_verifier], [test_jvm] and six other suites. *)

val native_meth : ?flags:Classfile.access list -> string -> string -> mdef
val abstract_meth : string -> string -> mdef

val field : ?flags:Classfile.access list -> string -> string -> Classfile.field

val default_init : string -> mdef
(** A no-argument constructor that only invokes [super.<init>()]. *)

val class_ :
  ?super:string ->
  ?interfaces:string list ->
  ?flags:Classfile.access list ->
  ?fields:Classfile.field list ->
  ?attributes:(string * string) list ->
  string ->
  mdef list ->
  Classfile.t
(** Assemble a class, estimating [max_stack] / [max_locals] for every
    body. [interfaces] and [attributes], unused by the workloads, are
    for [test_verifier]'s, [test_jvm]'s and [test_bytecode]'s cases. *)
