(* The verifier's window onto the class environment. On the server the
   oracle knows the boot library and whatever application classes have
   passed through the proxy; everything else is *unknown*, and checks
   against unknown classes become collected assumptions deferred to the
   client (the paper's link-phase partitioning). *)

type class_info = {
  ci_name : string;
  ci_super : string option;
  ci_interfaces : string list;
  ci_final : bool;
  ci_fields : (string * string * bool * bool) list;
      (* name, desc, is_static, is_private *)
  ci_methods : (string * string * bool * bool) list;
}

type t = string -> class_info option

let info_of_classfile (cf : Bytecode.Classfile.t) =
  {
    ci_name = cf.Bytecode.Classfile.name;
    ci_super = cf.Bytecode.Classfile.super;
    ci_interfaces = cf.Bytecode.Classfile.interfaces;
    ci_final =
      List.mem Bytecode.Classfile.Final cf.Bytecode.Classfile.c_flags;
    ci_fields =
      List.map
        (fun f ->
          ( f.Bytecode.Classfile.f_name,
            f.Bytecode.Classfile.f_desc,
            List.mem Bytecode.Classfile.Static f.Bytecode.Classfile.f_flags,
            List.mem Bytecode.Classfile.Private f.Bytecode.Classfile.f_flags ))
        cf.Bytecode.Classfile.fields;
    ci_methods =
      List.map
        (fun m ->
          ( m.Bytecode.Classfile.m_name,
            m.Bytecode.Classfile.m_desc,
            List.mem Bytecode.Classfile.Static m.Bytecode.Classfile.m_flags,
            List.mem Bytecode.Classfile.Private m.Bytecode.Classfile.m_flags ))
        cf.Bytecode.Classfile.methods;
  }

let of_classes classes : t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun cf ->
      Hashtbl.replace tbl cf.Bytecode.Classfile.name (info_of_classfile cf))
    classes;
  fun name -> Hashtbl.find_opt tbl name

let empty : t = fun _ -> None

(* Extend an oracle with additional classes (e.g. the class under
   verification itself, so self-references resolve). *)
let extend oracle classes : t =
  let local = of_classes classes in
  fun name -> (match local name with Some i -> Some i | None -> oracle name)

(* Walks the superclass chain for inherited members, stopping (and
   returning [`Unknown]) when the chain leaves the oracle's
   knowledge. *)
let rec lookup_field (oracle : t) cls name =
  match oracle cls with
  | None -> `Unknown
  | Some ci -> (
    match
      List.find_opt (fun (n, _, _, _) -> String.equal n name) ci.ci_fields
    with
    | Some (_, d, s, p) -> `Found (cls, d, s, p)
    | None -> (
      match ci.ci_super with
      | None -> `Absent
      | Some s -> lookup_field oracle s name))

let rec lookup_method (oracle : t) cls name desc =
  match oracle cls with
  | None -> `Unknown
  | Some ci -> (
    match
      List.find_opt
        (fun (n, d, _, _) -> String.equal n name && String.equal d desc)
        ci.ci_methods
    with
    | Some (_, _, s, p) -> `Found (cls, s, p)
    | None -> (
      match ci.ci_super with
      | None -> `Absent
      | Some s -> lookup_method oracle s name desc))

(* Subtype query over possibly-unknown hierarchies:
   [`Yes] / [`No] when decidable, [`Unknown] when the walk escapes the
   oracle. Arrays are covariant; everything widens to Object. *)
let rec is_subclass (oracle : t) ~sub ~super =
  if String.equal sub super then `Yes
  else if String.equal super Bytecode.Classfile.java_lang_object then `Yes
  else if String.length sub > 0 && sub.[0] = '[' then
    if String.length super > 0 && super.[0] = '[' then
      match (elem_of sub, elem_of super) with
      | Some a, Some b when a <> "I" && b <> "I" ->
        is_subclass oracle ~sub:a ~super:b
      | Some a, Some b -> if String.equal a b then `Yes else `No
      | _, _ -> `No
    else `No
  else
    (* Three-valued combination: any [`Yes] wins; otherwise any
       [`Unknown] taints a [`No] into [`Unknown]. *)
    let join a b =
      match (a, b) with
      | `Yes, _ | _, `Yes -> `Yes
      | `Unknown, _ | _, `Unknown -> `Unknown
      | `No, `No -> `No
    in
    let rec walk name =
      if String.equal name super then `Yes
      else
        match oracle name with
        | None -> `Unknown
        | Some ci ->
          let via_ifaces =
            List.fold_left
              (fun acc i -> join acc (interface_reaches i))
              `No ci.ci_interfaces
          in
          let via_super =
            match ci.ci_super with None -> `No | Some s -> walk s
          in
          join via_ifaces via_super
    and interface_reaches i =
      if String.equal i super then `Yes
      else
        match oracle i with
        | None -> `Unknown
        | Some ci ->
          List.fold_left
            (fun acc j -> join acc (interface_reaches j))
            `No ci.ci_interfaces
    in
    walk sub

and elem_of name =
  if String.equal name "[I" then Some "I"
  else if
    String.length name >= 4
    && name.[0] = '['
    && name.[1] = 'L'
    && name.[String.length name - 1] = ';'
  then Some (String.sub name 2 (String.length name - 3))
  else if String.length name >= 2 && name.[0] = '[' then
    Some (String.sub name 1 (String.length name - 1))
  else None
