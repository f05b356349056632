(** Executor for compiled kernels: runs the arithmetic/control subset
    of the IR over virtual registers. Methods using object or call
    operations are reported interpreter-resident (see DESIGN.md). *)

exception Unsupported of string

val supported : Ir.meth -> bool

type value = Vint of int32 | Vstr of string | Vnull | Varr of int32 array

exception Kernel_fault of string

val run : Ir.meth -> value list -> value option
