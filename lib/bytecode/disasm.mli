(** Human-readable class dumps with constant-pool references resolved
    inline. *)

val class_to_string : Classfile.t -> string
