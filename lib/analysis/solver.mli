(** Worklist fixed-point solver functorized over a join-semilattice.

    Forward and block-granular: a FIFO worklist of blocks, seeded with
    the entry block, runs each transfer once per block visit and
    records each instruction's entry fact as it goes. Optional
    widening is applied at retreating-edge targets; an optional
    [refine] hook adjusts the fact flowing along a specific branch
    edge (conditional-branch refinement); [exn_adjust] maps the
    in-state of a covered instruction to the state observed by the
    given handler; [succs] may name, from the fact on entry to a
    block's last instruction, that instruction's successors in place
    of the CFG's non-exception edges ([None] keeps the CFG's). Each
    named successor must start a block. *)

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

exception Diverged of string

module Make (L : LATTICE) : sig
  type result = {
    before : L.t option array;
        (** entry fact per instruction; [None] = unreachable *)
    iterations : int;  (** block processings until fixpoint *)
  }

  val solve :
    ?widen:(L.t -> L.t -> L.t) ->
    ?refine:
      (at:int ->
      instr:Bytecode.Instr.t ->
      target:int ->
      pre:L.t ->
      L.t ->
      L.t) ->
    ?exn_adjust:(Bytecode.Classfile.handler -> L.t -> L.t) ->
    ?succs:(at:int -> instr:Bytecode.Instr.t -> L.t -> int list option) ->
    Cfg.t ->
    init:L.t ->
    transfer:(at:int -> instr:Bytecode.Instr.t -> L.t -> L.t) ->
    result
  (** @raise Diverged if no fixpoint is reached within the visit
      budget (a widening or monotonicity bug in the domain). *)
end
