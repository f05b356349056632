(** Linear-scan register allocation over live intervals: the second
    half of the network compiler. Backward branches conservatively
    extend any interval spanning the loop. *)

type location = Phys of int | Spill of int

type result = {
  assignment : (Ir.reg, location) Hashtbl.t;
  spills : int;
  registers_used : int;
}

type interval = { vreg : Ir.reg; start : int; finish : int }

val allocate : Arch.t -> Ir.meth -> result

val valid : Ir.meth -> result -> bool
(** Correctness oracle: every touched vreg has a location and no two
    overlapping intervals share a physical register. *)
