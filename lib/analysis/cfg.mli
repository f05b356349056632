(** Basic-block control-flow graph over a method body.

    Exception edges are block-granular: every block intersecting a
    handler's protected range gets an [Exn] edge to the handler target,
    a safe over-approximation of instruction-level dispatch. *)

exception Malformed of string

type edge = Fall | Branch | Exn

type block = {
  id : int;
  first : int;  (** first instruction index *)
  last : int;  (** last instruction index, inclusive *)
  mutable succs : (int * edge) list;
  mutable preds : (int * edge) list;
}

type t = {
  code : Bytecode.Classfile.code;
  blocks : block array;
  block_of : int array;  (** instruction index → block id *)
  reachable : bool array;  (** per block, from the entry *)
  rpo : int array;  (** reachable block ids in reverse postorder *)
}

val of_code : Bytecode.Classfile.code -> t
(** @raise Malformed on out-of-range branch targets, fall-through off
    the end of the code array, or invalid handler ranges. *)

val block_count : t -> int
val block : t -> int -> block

val instr_reachable : t -> bool array
(** Per-instruction reachability from the method entry. *)

val pp : Format.formatter -> t -> unit
val to_dot : ?name:string -> t -> string
