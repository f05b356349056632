(* In-memory class model: the unit the proxy parses, the services
   rewrite, and the client runtime loads. *)

type access = Public | Private | Protected | Static | Final | Abstract | Native

type handler = {
  h_start : int; (* first covered instruction index, inclusive *)
  h_end : int; (* last covered instruction index, exclusive *)
  h_target : int; (* handler entry instruction index *)
  h_catch : string option; (* [None] catches everything *)
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
  m_code : code option; (* [None] for native and abstract methods *)
}

type field = { f_name : string; f_desc : string; f_flags : access list }

type t = {
  name : string;
  super : string option; (* [None] only for the root class *)
  interfaces : string list;
  c_flags : access list;
  fields : field list;
  methods : meth list;
  pool : Cp.t;
  attributes : (string * string) list; (* name -> raw bytes *)
}

let java_lang_object = "java/lang/Object"

let has_flag flags f = List.mem f flags

let find_method cls name desc =
  List.find_opt
    (fun m -> String.equal m.m_name name && String.equal m.m_desc desc)
    cls.methods

let find_field cls name =
  List.find_opt (fun f -> String.equal f.f_name name) cls.fields

let find_attribute cls name =
  List.assoc_opt name cls.attributes

let with_attribute cls name value =
  let rest = List.remove_assoc name cls.attributes in
  { cls with attributes = (name, value) :: rest }

let instruction_count cls =
  List.fold_left
    (fun acc m ->
      match m.m_code with
      | None -> acc
      | Some c -> acc + Array.length c.instrs)
    0 cls.methods

let code_bytes code =
  Array.fold_left (fun acc i -> acc + Instr.encoded_size i) 0 code.instrs

let map_methods f cls = { cls with methods = List.map f cls.methods }

let pp_access ppf a =
  Format.pp_print_string ppf
    (match a with
    | Public -> "public"
    | Private -> "private"
    | Protected -> "protected"
    | Static -> "static"
    | Final -> "final"
    | Abstract -> "abstract"
    | Native -> "native")

let access_bit = function
  | Public -> 0x0001
  | Private -> 0x0002
  | Protected -> 0x0004
  | Static -> 0x0008
  | Final -> 0x0010
  | Abstract -> 0x0400
  | Native -> 0x0100

let access_to_u16 flags =
  List.fold_left (fun acc a -> acc lor access_bit a) 0 flags

let access_of_u16 bits =
  List.filter
    (fun a -> bits land access_bit a <> 0)
    [ Public; Private; Protected; Static; Final; Abstract; Native ]
