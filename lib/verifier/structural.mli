(** Verification phases 1 and 2 (§3.1).

    Phase 1: the class file is internally consistent — constant-pool
    entry shapes, descriptor syntax, duplicate members, flag sanity.

    Phase 2: instruction integrity per method — branch targets and
    local indices in range, constant-pool operands of the right kind,
    execution cannot fall off the end, exception tables well-formed. *)

val run : Bytecode.Classfile.t -> Verror.t list * int
(** Returns the errors found and the number of checks performed. *)
