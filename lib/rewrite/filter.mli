(** The internal filtering API of §3.

    Logically separate static services are code-transformation filters
    over a parsed class and are stacked on the proxy according to
    site-specific requirements; parsing and code generation happen once
    outside the stack. *)

type t = {
  name : string;
  transform : Bytecode.Classfile.t -> Bytecode.Classfile.t;
}

exception Rejected of { filter : string; cls : string; reason : string }
(** Raised by a filter that refuses a class (e.g. verification
    failure). The proxy converts this into an error-reporting
    replacement class. *)

val make :
  name:string -> (Bytecode.Classfile.t -> Bytecode.Classfile.t) -> t

val reject : filter:string -> cls:string -> string -> 'a

val apply : t -> Bytecode.Classfile.t -> Bytecode.Classfile.t
val run_stack : t list -> Bytecode.Classfile.t -> Bytecode.Classfile.t
val stack : name:string -> t list -> t
val identity : t
