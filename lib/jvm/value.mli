(** Runtime values.

    Strings carry their payload natively; return addresses exist only
    transiently for [jsr]/[ret]. *)

type t =
  | Int of int32
  | Null
  | Str of string
  | Obj of obj
  | Arr_int of int_array
  | Arr_ref of ref_array
  | Retaddr of int

and obj = { oid : int; cls : string; fields : (string, t) Hashtbl.t }
and int_array = { aid : int; ints : int32 array }
and ref_array = { rid : int; relem : string; refs : t array }

val array_class : string -> string
(** [array_class elem] names an array whose elements are named [elem]:
    ["\[Lfoo;"] for ["foo"], ["\[\[I"] for ["\[I"]. *)

val class_of : t -> string
(** Dynamic class name as [instanceof] sees it; arrays are named by
    descriptor: ["\[I"], ["\[Lelem;"], ["\[\[I"]. *)

val is_reference : t -> bool
val default_of_descriptor : string -> t
val to_string : t -> string

val ref_equal : t -> t -> bool
(** Reference equality as [if_acmp] sees it (strings compare by
    content, standing in for interning). *)
