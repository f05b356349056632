(* Constant pool: an indexed table of shared constants referenced by
   instructions and by the class structure. Index 0 is reserved (as in
   real class files) so that 0 can mean "no entry". *)

type entry =
  | Utf8 of string
  | Int_const of int32
  | Class of int (* utf8 index: internal class name *)
  | Str of int (* utf8 index: string literal *)
  | Fieldref of int * int (* class index, name_and_type index *)
  | Methodref of int * int (* class index, name_and_type index *)
  | Name_and_type of int * int (* name utf8 index, descriptor utf8 index *)

type t = entry array

exception Invalid_index of int
exception Wrong_kind of { index : int; expected : string }

type member_ref = { ref_class : string; ref_name : string; ref_desc : string }

let size (pool : t) = Array.length pool

let entry (pool : t) i =
  if i <= 0 || i >= Array.length pool then raise (Invalid_index i);
  pool.(i)

let get_utf8 pool i =
  match entry pool i with
  | Utf8 s -> s
  | Int_const _ | Class _ | Str _ | Fieldref _ | Methodref _ | Name_and_type _
    ->
    raise (Wrong_kind { index = i; expected = "Utf8" })

let get_class_name pool i =
  match entry pool i with
  | Class u -> get_utf8 pool u
  | Utf8 _ | Int_const _ | Str _ | Fieldref _ | Methodref _ | Name_and_type _
    ->
    raise (Wrong_kind { index = i; expected = "Class" })

let get_string pool i =
  match entry pool i with
  | Str u -> get_utf8 pool u
  | Utf8 _ | Int_const _ | Class _ | Fieldref _ | Methodref _ | Name_and_type _
    ->
    raise (Wrong_kind { index = i; expected = "Str" })

let get_name_and_type pool i =
  match entry pool i with
  | Name_and_type (n, d) -> (get_utf8 pool n, get_utf8 pool d)
  | Utf8 _ | Int_const _ | Class _ | Str _ | Fieldref _ | Methodref _ ->
    raise (Wrong_kind { index = i; expected = "Name_and_type" })

let member_ref_of pool ~expected c nt i =
  match entry pool nt with
  | Name_and_type _ ->
    let ref_name, ref_desc = get_name_and_type pool nt in
    { ref_class = get_class_name pool c; ref_name; ref_desc }
  | _ -> raise (Wrong_kind { index = i; expected })

let get_fieldref pool i =
  match entry pool i with
  | Fieldref (c, nt) -> member_ref_of pool ~expected:"Fieldref" c nt i
  | Utf8 _ | Int_const _ | Class _ | Str _ | Methodref _ | Name_and_type _ ->
    raise (Wrong_kind { index = i; expected = "Fieldref" })

let get_methodref pool i =
  match entry pool i with
  | Methodref (c, nt) -> member_ref_of pool ~expected:"Methodref" c nt i
  | Utf8 _ | Int_const _ | Class _ | Str _ | Fieldref _ | Name_and_type _ ->
    raise (Wrong_kind { index = i; expected = "Methodref" })

module Builder = struct
  (* Interning builder: identical entries are shared, as the real javac
     constant-pool writer does. *)
  type builder = {
    mutable entries : entry array;
    mutable next : int;
    index : (entry, int) Hashtbl.t;
  }

  type t = builder

  let create () =
    { entries = Array.make 16 (Utf8 ""); next = 1; index = Hashtbl.create 64 }

  let of_pool (pool : entry array) =
    let b = create () in
    let n = Array.length pool in
    b.entries <- Array.make (max 16 (2 * n)) (Utf8 "");
    Array.blit pool 0 b.entries 0 n;
    b.next <- n;
    for i = 1 to n - 1 do
      (* First occurrence wins, so lookups stay stable. *)
      if not (Hashtbl.mem b.index pool.(i)) then Hashtbl.add b.index pool.(i) i
    done;
    b

  let add b e =
    match Hashtbl.find_opt b.index e with
    | Some i -> i
    | None ->
      if b.next >= Array.length b.entries then begin
        let bigger = Array.make (2 * Array.length b.entries) (Utf8 "") in
        Array.blit b.entries 0 bigger 0 b.next;
        b.entries <- bigger
      end;
      let i = b.next in
      b.entries.(i) <- e;
      b.next <- i + 1;
      Hashtbl.add b.index e i;
      i

  let utf8 b s = add b (Utf8 s)
  let class_ b name = add b (Class (utf8 b name))
  let string b s = add b (Str (utf8 b s))

  let name_and_type b ~name ~desc =
    add b (Name_and_type (utf8 b name, utf8 b desc))

  let fieldref b ~cls ~name ~desc =
    add b (Fieldref (class_ b cls, name_and_type b ~name ~desc))

  let methodref b ~cls ~name ~desc =
    add b (Methodref (class_ b cls, name_and_type b ~name ~desc))

  let to_pool b = Array.sub b.entries 0 (max 1 b.next)
end
