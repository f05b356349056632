(** In-memory class model.

    This is the unit of work in the DVM: the proxy parses bytes into a
    [Classfile.t], the static services rewrite it, and the client
    runtime loads it. *)

type access = Public | Private | Protected | Static | Final | Abstract | Native

(** Exception-table entry over instruction indices:
    [h_start] inclusive, [h_end] exclusive. *)
type handler = {
  h_start : int;
  h_end : int;
  h_target : int;
  h_catch : string option;  (** [None] catches every throwable *)
}

type code = {
  max_stack : int;
  max_locals : int;
  instrs : Instr.t array;
  handlers : handler list;
}

type meth = {
  m_name : string;
  m_desc : string;
  m_flags : access list;
  m_code : code option;  (** [None] for native and abstract methods *)
}

type field = { f_name : string; f_desc : string; f_flags : access list }

type t = {
  name : string;
  super : string option;  (** [None] only for the root class *)
  interfaces : string list;
  c_flags : access list;
  fields : field list;
  methods : meth list;
  pool : Cp.t;
  attributes : (string * string) list;
      (** custom class attributes, name → raw bytes; used by the
          reflection service and for signatures *)
}

val java_lang_object : string

val has_flag : access list -> access -> bool
val find_method : t -> string -> string -> meth option
val find_field : t -> string -> field option
val find_attribute : t -> string -> string option

val with_attribute : t -> string -> string -> t
(** Set (or replace) a custom class attribute. *)

val instruction_count : t -> int
(** Total instructions across all method bodies. *)

val code_bytes : code -> int
(** Encoded size in bytes of a code body. *)

val map_methods : (meth -> meth) -> t -> t
val pp_access : Format.formatter -> access -> unit
val access_to_u16 : access list -> int
val access_of_u16 : int -> access list
