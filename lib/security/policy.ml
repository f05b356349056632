(* The organization-wide security policy (§3.2), derived from DTOS:
   security identifiers (protection domains) relate to permissions
   through an access matrix; named resources map to identifiers; and an
   operation map relates security operations to the application code
   points where access checks must be inserted. *)

type sid = string
type permission = string

type operation = {
  op_permission : permission;
  op_class : string; (* class whose invocation is security-relevant *)
  op_method : string; (* method name; "*" matches any *)
  op_resource_arg : bool;
      (* the call's last String argument names the resource; the check
         then resolves the resource's domain (DTOS object SIDs) *)
}

type rule = { rule_sid : sid; rule_permission : permission; rule_allow : bool }

type t = {
  version : int;
  default_allow : bool;
  rules : rule list;
  resources : (string * sid) list; (* resource-name prefix -> domain *)
  operations : operation list;
  principals : (string * sid) list; (* class-name prefix -> domain *)
  by_class : index;
}

(* [operations] grouped by [op_class], each group in list order. The
   rewriter and the certifier ask [operations_for] about every invoke
   of every method, so it looks up one class instead of filtering the
   whole map; every constructor below rebuilds it, and the record is
   private so that no policy exists without it. *)
and index = (string, operation list) Hashtbl.t

let index operations =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun op ->
      let group = Option.value ~default:[] (Hashtbl.find_opt tbl op.op_class) in
      Hashtbl.replace tbl op.op_class (op :: group))
    (List.rev operations);
  tbl

let make ~default_allow ~rules ~resources ~operations ~principals =
  {
    version = 1;
    default_allow;
    rules;
    resources;
    operations;
    principals;
    by_class = index operations;
  }

let empty =
  make ~default_allow:false ~rules:[] ~resources:[] ~operations:[]
    ~principals:[]

(* Access matrix lookup: the most specific (first matching) rule wins;
   otherwise the policy default applies. *)
let decide t ~sid ~permission =
  let rec go = function
    | [] -> t.default_allow
    | r :: rest ->
      if String.equal r.rule_sid sid && String.equal r.rule_permission permission
      then r.rule_allow
      else go rest
  in
  go t.rules

let prefix_match prefix s =
  String.length prefix <= String.length s
  && String.equal prefix (String.sub s 0 (String.length prefix))

let domain_of_resource t name =
  List.find_opt (fun (p, _) -> prefix_match p name) t.resources
  |> Option.map snd

(* The permission actually required for an access to [resource]: named
   resources qualify the permission with their domain, so the access
   matrix can restrict e.g. "file.read@homedirs" separately from plain
   "file.read". *)
let resource_permission t ~permission ~resource =
  match domain_of_resource t resource with
  | Some rsid -> permission ^ "@" ^ rsid
  | None -> permission

let domain_of_class t cls =
  List.find_opt (fun (p, _) -> prefix_match p cls) t.principals
  |> Option.map snd

let operations_for t ~cls ~meth =
  match Hashtbl.find_opt t.by_class cls with
  | None -> []
  | Some group ->
    List.filter
      (fun op -> String.equal op.op_method "*" || String.equal op.op_method meth)
      group

(* Rules visible to one domain — what the enforcement manager downloads
   on its first check (Figure 9's "download" column). *)
let slice_for_domain t sid =
  List.filter (fun r -> String.equal r.rule_sid sid) t.rules

let with_rule t ~sid ~permission ~allow =
  {
    t with
    version = t.version + 1;
    rules =
      { rule_sid = sid; rule_permission = permission; rule_allow = allow }
      :: List.filter
           (fun r ->
             not
               (String.equal r.rule_sid sid
               && String.equal r.rule_permission permission))
           t.rules;
  }

(* Operation-map updates also bump the version. Unlike [with_rule],
   these change which call sites the rewriter instruments, so classes
   rewritten under the old version are textually different — exactly
   the case the farm's control plane must invalidate across shards. *)
let with_operation t op =
  let operations = op :: t.operations in
  { t with version = t.version + 1; operations; by_class = index operations }

let pp ppf t =
  Format.fprintf ppf "policy v%d (default %s)@\n" t.version
    (if t.default_allow then "allow" else "deny");
  List.iter
    (fun r ->
      Format.fprintf ppf "  %s: %s %s@\n" r.rule_sid
        (if r.rule_allow then "allow" else "deny")
        r.rule_permission)
    t.rules;
  List.iter
    (fun op ->
      Format.fprintf ppf "  op %s at %s.%s@\n" op.op_permission op.op_class
        op.op_method)
    t.operations
