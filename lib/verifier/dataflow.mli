(** Verification phase 3: dataflow type inference over method bodies.

    Abstract interpretation on {!Analysis.Solver} computes entry
    verification types for every reachable instruction. Checks
    undecidable against the oracle's knowledge become collected
    {!Assumptions} (deferred to the client) rather than errors — the
    static/dynamic partitioning of §3.1. Subroutines use the
    merged-frame approximation: [ret] flows to the instruction after
    every [jsr] targeting its entry, an edge the solver's successor
    hook supplies. *)

val verify_class :
  Oracle.t -> Assumptions.t -> Bytecode.Classfile.t -> Verror.t list * int
(** Errors across all methods plus the total static-check count. *)
