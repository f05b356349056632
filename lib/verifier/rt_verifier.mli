(** The dynamic component of the distributed verification service.

    A small runtime class ([dvm/RTVerifier]) whose natives perform the
    deferred link-phase checks — a descriptor lookup and a string
    comparison against the client's class registry (§3.1). *)

val class_name : string
val desc_check_class : string
val desc_check_subclass : string
val desc_check_member : string

val runtime_class : unit -> Bytecode.Classfile.t

type stats = {
  mutable dynamic_checks : int;  (** deferred checks executed *)
  mutable failures : int;
}

val check_cost : int64
(** Simulated µs each deferred link check charges the client VM: a
    descriptor lookup and a string compare (Figure 7's DVM column). *)

val install : Jvm.Vmstate.t -> stats
(** Register the runtime class and its natives in a client VM. *)
