(* The class registry: loaded classes, lazy loading through a provider
   (the DVM client's window onto the network), hierarchy queries and
   member resolution. *)

type init_state = Not_initialized | Initializing | Initialized

type loaded = {
  cf : Bytecode.Classfile.t;
  statics : (string, Value.t) Hashtbl.t;
  mutable init_state : init_state;
  wire_bytes : int; (* encoded size when fetched; 0 for boot classes *)
  sites : site option array;
      (* per constant-pool index, filled by the interpreter; per VM, never
         on the shared [cf] *)
}

and site = Field_site of Bytecode.Cp.member_ref | Method_site of call_site

and call_site = {
  member : Bytecode.Cp.member_ref;
  mutable params : int; (* parameter count; -1 until first parsed *)
  mutable target : target option;
}

and target = {
  gen : int;
  native_gen : int;
  receiver : string;
  owner : loaded;
  meth : Bytecode.Classfile.meth;
  native : (Value.t list -> Value.t option) option;
}

type provider = string -> string option

exception Class_not_found of string
exception Load_rejected of { cls : string; reason : string }

type t = {
  classes : (string, loaded) Hashtbl.t;
  mutable provider : provider;
  mutable on_load : Bytecode.Classfile.t -> unit;
  mutable classes_fetched : int;
  mutable bytes_fetched : int;
  mutable load_order : string list; (* most recent first *)
  mutable generation : int; (* bumped whenever the memos below are flushed *)
  (* Hierarchy-query memos. Interpretation hits [resolve_method],
     [resolve_field], [is_subclass] and [all_instance_fields] on every
     invoke / field access / checkcast / new, and each is a chain walk
     over [classes]. A result is cached only when computing it touched
     loaded classes exclusively — a walk that consulted the provider
     (even unsuccessfully) is never cached, so lazy-load side effects
     (fetches, telemetry, Class_not_found) replay exactly as uncached.
     All four memos are flushed whenever [classes] changes. *)
  method_cache : (string * string * string, (loaded * Bytecode.Classfile.meth) option) Hashtbl.t;
  field_cache : (string * string, (loaded * Bytecode.Classfile.field) option) Hashtbl.t;
  subtype_cache : (string * string, bool) Hashtbl.t;
  fields_cache : (string, (string * string) list) Hashtbl.t;
}

let create ?(provider = fun _ -> None) () =
  {
    classes = Hashtbl.create 64;
    provider;
    on_load = ignore;
    classes_fetched = 0;
    bytes_fetched = 0;
    load_order = [];
    generation = 0;
    method_cache = Hashtbl.create 64;
    field_cache = Hashtbl.create 64;
    subtype_cache = Hashtbl.create 64;
    fields_cache = Hashtbl.create 16;
  }

let flush_query_caches t =
  t.generation <- t.generation + 1;
  Hashtbl.reset t.method_cache;
  Hashtbl.reset t.field_cache;
  Hashtbl.reset t.subtype_cache;
  Hashtbl.reset t.fields_cache

let set_on_load t f = t.on_load <- f

let make_loaded ?(wire_bytes = 0) cf =
  let statics = Hashtbl.create 8 in
  List.iter
    (fun f ->
      if List.mem Bytecode.Classfile.Static f.Bytecode.Classfile.f_flags then
        Hashtbl.replace statics f.Bytecode.Classfile.f_name
          (Value.default_of_descriptor f.Bytecode.Classfile.f_desc))
    cf.Bytecode.Classfile.fields;
  {
    cf;
    statics;
    init_state = Not_initialized;
    wire_bytes;
    sites = Array.make (Array.length cf.Bytecode.Classfile.pool) None;
  }

let register t cf =
  flush_query_caches t;
  Hashtbl.replace t.classes cf.Bytecode.Classfile.name (make_loaded cf)

let find_loaded t name = Hashtbl.find_opt t.classes name

let lookup t name =
  match Hashtbl.find_opt t.classes name with
  | Some l -> l
  | None -> (
    match
      Telemetry.Global.with_span ~cat:"jvm" ~args:[ ("class", name) ]
        ~observe_hist:"jvm.class_load_us" "jvm.class_load" (fun () ->
          t.provider name)
    with
    | None -> raise (Class_not_found name)
    | Some bytes ->
      let cf =
        try Bytecode.Decode.class_of_bytes bytes
        with Bytecode.Decode.Format_error reason ->
          raise (Load_rejected { cls = name; reason })
      in
      if not (String.equal cf.Bytecode.Classfile.name name) then
        raise
          (Load_rejected
             {
               cls = name;
               reason =
                 Printf.sprintf "provider returned class %S"
                   cf.Bytecode.Classfile.name;
             });
      t.on_load cf;
      let l = make_loaded ~wire_bytes:(String.length bytes) cf in
      flush_query_caches t;
      Hashtbl.replace t.classes name l;
      t.classes_fetched <- t.classes_fetched + 1;
      t.bytes_fetched <- t.bytes_fetched + String.length bytes;
      t.load_order <- name :: t.load_order;
      if Telemetry.Global.on () then begin
        Telemetry.Global.incr "jvm.classes_loaded";
        Telemetry.Global.add "jvm.bytes_fetched"
          (Int64.of_int (String.length bytes))
      end;
      l)

let is_loaded t name = Hashtbl.mem t.classes name

let find_or_load t name =
  match Hashtbl.find_opt t.classes name with
  | Some l -> Some l
  | None -> ( try Some (lookup t name) with Class_not_found _ -> None)

(* Like [find_or_load], but records in [missed] whether the provider
   was consulted — a walk that set [missed] must not be memoized (its
   side effects have to replay on the next query). *)
let find_track t missed name =
  match Hashtbl.find_opt t.classes name with
  | Some l -> Some l
  | None ->
    missed := true;
    find_or_load t name

(* All (transitive) interfaces of a class, including those inherited
   through superclasses. *)
let rec interfaces_walk t missed name acc =
  match find_track t missed name with
  | None -> acc
  | Some l ->
    let cf = l.cf in
    let acc =
      List.fold_left
        (fun acc i ->
          if List.mem i acc then acc else interfaces_walk t missed i (i :: acc))
        acc cf.Bytecode.Classfile.interfaces
    in
    (match cf.Bytecode.Classfile.super with
    | None -> acc
    | Some s -> interfaces_walk t missed s acc)

let rec superclass_walk t missed name acc =
  match find_track t missed name with
  | None -> List.rev (name :: acc)
  | Some l -> (
    match l.cf.Bytecode.Classfile.super with
    | None -> List.rev (name :: acc)
    | Some s -> superclass_walk t missed s (name :: acc))

(* Reflexive subtype test over class names, covering arrays.
   [java/lang/String] is a final class with superclass Object. *)
let rec subclass_walk t missed ~sub ~super =
  if String.equal sub super then true
  else if String.equal sub "<null>" then true (* null widens to any ref *)
  else if String.length sub > 0 && sub.[0] = '[' then
    (* arrays: [X <= Object, and [X <= [Y when element X <= element Y *)
    String.equal super Bytecode.Classfile.java_lang_object
    ||
    if String.length super > 0 && super.[0] = '[' then
      match (array_elem sub, array_elem super) with
      | Some a, Some b -> subclass_walk t missed ~sub:a ~super:b
      | _, _ -> false
    else false
  else
    List.mem super (superclass_walk t missed sub [])
    || List.mem super (interfaces_walk t missed sub [])

and array_elem name =
  if String.length name >= 2 && name.[0] = '[' then
    if name.[1] = 'L' && name.[String.length name - 1] = ';' then
      Some (String.sub name 2 (String.length name - 3))
    else if name.[1] = '[' then Some (String.sub name 1 (String.length name - 1))
    else if String.equal name "[I" then Some "I"
    else None
  else None

let is_subclass t ~sub ~super =
  if String.equal sub super then true
  else if String.equal sub "<null>" then true
  else
    let key = (sub, super) in
    match Hashtbl.find_opt t.subtype_cache key with
    | Some b -> b
    | None ->
      let missed = ref false in
      let b = subclass_walk t missed ~sub ~super in
      if not !missed then Hashtbl.replace t.subtype_cache key b;
      b

(* Walk the superclass chain looking for a concrete (or native)
   method. Returns the defining class's entry too, so the caller can
   find the right native implementation. *)
let resolve_method t cls_name name desc =
  let key = (cls_name, name, desc) in
  match Hashtbl.find_opt t.method_cache key with
  | Some r -> r
  | None ->
    let missed = ref false in
    let rec walk cname =
      match find_track t missed cname with
      | None -> None
      | Some l -> (
        match Bytecode.Classfile.find_method l.cf name desc with
        | Some m -> Some (l, m)
        | None -> (
          match l.cf.Bytecode.Classfile.super with
          | None -> None
          | Some s -> walk s))
    in
    let r = walk cls_name in
    if not !missed then Hashtbl.replace t.method_cache key r;
    r

let resolve_field t cls_name name =
  let key = (cls_name, name) in
  match Hashtbl.find_opt t.field_cache key with
  | Some r -> r
  | None ->
    let missed = ref false in
    let rec walk cname =
      match find_track t missed cname with
      | None -> None
      | Some l -> (
        match Bytecode.Classfile.find_field l.cf name with
        | Some f -> Some (l, f)
        | None -> (
          match l.cf.Bytecode.Classfile.super with
          | None -> None
          | Some s -> walk s))
    in
    let r = walk cls_name in
    if not !missed then Hashtbl.replace t.field_cache key r;
    r

(* Instance fields of a class including inherited ones, as
   (name, descriptor) pairs for object allocation. *)
let all_instance_fields t cls_name =
  match Hashtbl.find_opt t.fields_cache cls_name with
  | Some fields -> fields
  | None ->
    let missed = ref false in
    let rec walk cname acc =
      match find_track t missed cname with
      | None -> acc
      | Some l ->
        let acc =
          List.fold_left
            (fun acc f ->
              if List.mem Bytecode.Classfile.Static f.Bytecode.Classfile.f_flags
              then acc
              else
                (f.Bytecode.Classfile.f_name, f.Bytecode.Classfile.f_desc) :: acc)
            acc l.cf.Bytecode.Classfile.fields
        in
        (match l.cf.Bytecode.Classfile.super with
        | None -> acc
        | Some s -> walk s acc)
    in
    let fields = walk cls_name [] in
    if not !missed then Hashtbl.replace t.fields_cache cls_name fields;
    fields
