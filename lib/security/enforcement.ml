(* The enforcement manager (§3.2): the small dynamic component residing
   on each client. Rewritten applications call dvm/Enforcement.check
   before resource accesses; the manager resolves the check against the
   centralized policy, caching results. The first check pays for
   downloading the domain's slice of the global policy (Figure 9's
   "download" column); subsequent checks are local lookups. A
   cache-invalidation subscription lets the security server propagate
   access-matrix changes. *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile

let class_name = "dvm/Enforcement"
let desc_check = "(Ljava/lang/String;)V"
let desc_check_resource = "(Ljava/lang/String;Ljava/lang/String;)V"

let runtime_class () =
  let st = [ CF.Public; CF.Static; CF.Native ] in
  B.class_ class_name
    [
      B.native_meth ~flags:st "check" desc_check;
      (* checkResource(resource, permission) *)
      B.native_meth ~flags:st "checkResource" desc_check_resource;
    ]

(* Cost model (cost units ~ µs), calibrated to Figure 9's DVM columns:
   a cached check is a hashtable lookup; the first check downloads the
   policy slice over the intranet. *)
let cost_cached_check = 7L
let cost_policy_download = 5000L

type t = {
  server : Server.t;
  mutable sid : Policy.sid;
  cache : (Policy.permission, bool) Hashtbl.t;
  mutable have_policy : bool;
  mutable default_allow : bool;
  mutable resources : (string * Policy.sid) list;
  mutable checks : int;
  mutable cache_hits : int;
  mutable downloads : int;
  mutable denials : int;
  mutable invalidations : int;
  mutable decisions_rev : (Policy.permission * bool) list;
      (* every (permission, verdict) in reverse order — the
         observational record elision must preserve a subsequence of *)
}

let decisions t = List.rev t.decisions_rev

let invalidate t =
  t.invalidations <- t.invalidations + 1;
  Hashtbl.reset t.cache;
  t.have_policy <- false

let download t vm =
  (match vm with
  | Some vm -> Jvm.Vmstate.add_cost vm cost_policy_download
  | None -> ());
  let rules, default_allow, resources = Server.download_slice t.server ~sid:t.sid in
  Hashtbl.reset t.cache;
  List.iter
    (fun r -> Hashtbl.replace t.cache r.Policy.rule_permission r.Policy.rule_allow)
    rules;
  t.default_allow <- default_allow;
  t.resources <- resources;
  t.have_policy <- true;
  t.downloads <- t.downloads + 1

(* The decision procedure used by the injected checks. *)
let allowed ?vm t permission =
  t.checks <- t.checks + 1;
  if not t.have_policy then download t vm
  else begin
    match vm with
    | Some vm -> Jvm.Vmstate.add_cost vm cost_cached_check
    | None -> ()
  end;
  let verdict =
    match Hashtbl.find_opt t.cache permission with
    | Some v ->
      t.cache_hits <- t.cache_hits + 1;
      v
    | None ->
      (* Permission not in the domain slice: the policy default governs;
         remember it locally. *)
      Hashtbl.replace t.cache permission t.default_allow;
      t.default_allow
  in
  t.decisions_rev <- (permission, verdict) :: t.decisions_rev;
  verdict

(* Resource-qualified decision: the named resource's domain (DTOS
   object SID) qualifies the permission, e.g. "file.read@homedirs". *)
let allowed_resource ?vm t ~permission ~resource =
  if not t.have_policy then download t vm;
  let qualified =
    match
      List.find_opt (fun (p, _) -> Policy.prefix_match p resource) t.resources
    with
    | Some (_, rsid) -> permission ^ "@" ^ rsid
    | None -> permission
  in
  allowed ?vm t qualified

let install vm ~server ~sid =
  let t =
    {
      server;
      sid;
      cache = Hashtbl.create 16;
      have_policy = false;
      default_allow = false;
      resources = [];
      checks = 0;
      cache_hits = 0;
      downloads = 0;
      denials = 0;
      invalidations = 0;
      decisions_rev = [];
    }
  in
  Server.subscribe server (fun () -> invalidate t);
  Jvm.Classreg.register vm.Jvm.Vmstate.reg (runtime_class ());
  (match Jvm.Classreg.find_loaded vm.Jvm.Vmstate.reg class_name with
  | Some l -> l.Jvm.Classreg.init_state <- Jvm.Classreg.Initialized
  | None -> assert false);
  Jvm.Vmstate.register_native vm ~cls:class_name ~name:"check" ~desc:desc_check
    (fun vm args ->
      let permission =
        match args with
        | [ Jvm.Value.Str p ] -> p
        | _ -> Jvm.Vmstate.fault "Enforcement.check: bad arguments"
      in
      if allowed ~vm t permission then None
      else begin
        t.denials <- t.denials + 1;
        Jvm.Vmstate.throw vm ~cls:Jvm.Vmstate.c_security ~message:permission
      end);
  Jvm.Vmstate.register_native vm ~cls:class_name ~name:"checkResource"
    ~desc:desc_check_resource (fun vm args ->
      let resource, permission =
        match args with
        | [ Jvm.Value.Str r; Jvm.Value.Str p ] -> (r, p)
        | _ -> Jvm.Vmstate.fault "Enforcement.checkResource: bad arguments"
      in
      if allowed_resource ~vm t ~permission ~resource then None
      else begin
        t.denials <- t.denials + 1;
        Jvm.Vmstate.throw vm ~cls:Jvm.Vmstate.c_security
          ~message:(permission ^ " on " ^ resource)
      end);
  t
