(** Field and method type descriptors.

    The descriptor grammar follows the JVM specification restricted to
    the types the DVM substrate supports: [I] (32-bit integers, also
    standing in for the small integral types), [Lname;] object
    references, and [\[t] arrays. Method descriptors are
    [(t1 t2 ...)r] with [V] for a void return. *)

type ty =
  | Int  (** [I] *)
  | Obj of string  (** [Lname;] — internal (slash-separated) class name *)
  | Arr of ty  (** [\[t] *)

type method_sig = {
  params : ty list;
  ret : ty option;  (** [None] encodes a [V] (void) return *)
}

exception Bad_descriptor of string

val ty_to_string : ty -> string

val ty_of_string : string -> ty
(** Parse a field descriptor. @raise Bad_descriptor on malformed input. *)

val method_sig_to_string : method_sig -> string

val method_sig_of_string : string -> method_sig
(** Parse a method descriptor. @raise Bad_descriptor on malformed input. *)

val valid_field_descriptor : string -> bool
val valid_method_descriptor : string -> bool

val param_slots : method_sig -> int
(** Locals slots occupied by the parameters (every type is one slot). *)
