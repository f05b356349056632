(* Runtime values. Strings carry their payload natively (the boot
   library's java/lang/String is otherwise opaque), and return
   addresses exist only transiently for jsr/ret. *)

type t =
  | Int of int32
  | Null
  | Str of string
  | Obj of obj
  | Arr_int of int_array
  | Arr_ref of ref_array
  | Retaddr of int

and obj = {
  oid : int;
  cls : string;
  fields : (string, t) Hashtbl.t;
}

and int_array = { aid : int; ints : int32 array }
and ref_array = { rid : int; relem : string; refs : t array }

let string_class = "java/lang/String"

(* Array names are descriptors: an array of [int[]] is "[[I", not
   "[L[I;". *)
let array_class elem =
  if String.length elem > 0 && elem.[0] = '[' then "[" ^ elem else "[L" ^ elem ^ ";"

(* The dynamic class name of a value, as used by instanceof. *)
let class_of = function
  | Int _ -> "I"
  | Null -> "<null>"
  | Str _ -> string_class
  | Obj o -> o.cls
  | Arr_int _ -> "[I"
  | Arr_ref a -> array_class a.relem
  | Retaddr _ -> "<retaddr>"

let is_reference = function
  | Null | Str _ | Obj _ | Arr_int _ | Arr_ref _ -> true
  | Int _ | Retaddr _ -> false

let default_of_descriptor desc =
  match Bytecode.Descriptor.ty_of_string desc with
  | Bytecode.Descriptor.Int -> Int 0l
  | Bytecode.Descriptor.Obj _ | Bytecode.Descriptor.Arr _ -> Null

let rec pp ppf = function
  | Int n -> Format.fprintf ppf "%ld" n
  | Null -> Format.pp_print_string ppf "null"
  | Str s -> Format.fprintf ppf "%S" s
  | Obj o -> Format.fprintf ppf "%s@%d" o.cls o.oid
  | Arr_int a -> Format.fprintf ppf "int[%d]@%d" (Array.length a.ints) a.aid
  | Arr_ref a ->
    Format.fprintf ppf "%s[%d]@%d" a.relem (Array.length a.refs) a.rid
  | Retaddr pc -> Format.fprintf ppf "retaddr@%d" pc

and to_string v = Format.asprintf "%a" pp v

(* Reference equality as if_acmp sees it. *)
let ref_equal a b =
  match (a, b) with
  | Null, Null -> true
  | Str x, Str y -> x == y || String.equal x y
  | Obj x, Obj y -> x.oid = y.oid
  | Arr_int x, Arr_int y -> x.aid = y.aid
  | Arr_ref x, Arr_ref y -> x.rid = y.rid
  | _, _ -> false
