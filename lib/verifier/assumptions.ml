(* Assumptions a class makes about its environment, collected during
   the static phases and deferred to the client as injected runtime
   checks. Each assumption carries its scope, per the paper:
   inheritance relationships affect the whole class, member references
   only the methods that use them. *)

type assumption =
  | Class_exists of string
  | Subclass_of of { sub : string; super : string }
  | Field_exists of { cls : string; name : string; desc : string; static : bool }
  | Method_exists of { cls : string; name : string; desc : string; static : bool }

type scope =
  | Class_wide
  | In_method of string (* method name ^ descriptor *)

type entry = { what : assumption; where : scope }

type t = {
  mutable entries : entry list; (* reverse order *)
  seen : (assumption * scope, unit) Hashtbl.t;
}

let create () = { entries = []; seen = Hashtbl.create 32 }

let add t ~scope what =
  let key = (what, scope) in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.add t.seen key ();
    t.entries <- { what; where = scope } :: t.entries
  end

let to_list t = List.rev t.entries

let class_wide t =
  List.filter_map
    (fun e -> match e.where with Class_wide -> Some e.what | In_method _ -> None)
    (to_list t)

let for_method t key =
  List.filter_map
    (fun e ->
      match e.where with
      | In_method k when String.equal k key -> Some e.what
      | In_method _ | Class_wide -> None)
    (to_list t)
