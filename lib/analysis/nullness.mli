(** Nullness analysis over reference values.

    Values carry an origin local so branch and dereference evidence
    refines the local they were loaded from. Integers are tracked as
    [Nonnull] (they cannot be null); an unknown stack shape elides
    nothing. *)

type v = Null | Nonnull | Maybe

type av = { v : v; origin : int option }

type state = { locals : av array; stack : av list option }

type result = {
  before : state option array;  (** entry state per instruction *)
  iterations : int;
}

val analyze :
  Bytecode.Cp.t ->
  max_locals:int ->
  param_slots:int ->
  is_static:bool ->
  Cfg.t ->
  result

val stack_nonnull : state -> depth:int -> bool
(** Is the stack value at [depth] slots below the top provably
    non-null? *)

val pp_state : Format.formatter -> state -> unit
