(* Tests for the security service: policy model, XML language, static
   rewriting, enforcement manager, cache invalidation — and the
   end-to-end property that the DVM can protect operations the
   monolithic JDK cannot (file read). *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile
module P = Security.Policy

let check = Alcotest.check
let fail = Alcotest.fail
let static = [ CF.Public; CF.Static ]

(* --- Policy model. --- *)

let test_matrix_decide () =
  let p =
    P.empty
    |> fun p ->
    P.with_rule p ~sid:"applets" ~permission:"file.open" ~allow:false
    |> fun p -> P.with_rule p ~sid:"applets" ~permission:"property.get" ~allow:true
  in
  check Alcotest.bool "deny" false
    (P.decide p ~sid:"applets" ~permission:"file.open");
  check Alcotest.bool "grant" true
    (P.decide p ~sid:"applets" ~permission:"property.get");
  check Alcotest.bool "default deny" false
    (P.decide p ~sid:"applets" ~permission:"unlisted");
  check Alcotest.bool "other sid default" false
    (P.decide p ~sid:"other" ~permission:"file.open")

let test_with_rule_overrides () =
  let p = P.with_rule P.empty ~sid:"a" ~permission:"x" ~allow:true in
  let v1 = p.P.version in
  let p = P.with_rule p ~sid:"a" ~permission:"x" ~allow:false in
  check Alcotest.bool "version bumped" true (p.P.version > v1);
  check Alcotest.bool "override" false (P.decide p ~sid:"a" ~permission:"x");
  check Alcotest.int "no duplicate rules" 1 (List.length p.P.rules)

let test_resource_and_principal_maps () =
  let p =
    P.make ~default_allow:false ~rules:[] ~operations:[]
      ~resources:[ ("/tmp/", "scratch"); ("/", "rootfs") ]
      ~principals:[ ("applet/", "applets"); ("", "users") ]
  in
  check (Alcotest.option Alcotest.string) "longest listed prefix first"
    (Some "scratch")
    (P.domain_of_resource p "/tmp/x");
  check (Alcotest.option Alcotest.string) "fallback" (Some "rootfs")
    (P.domain_of_resource p "/etc/passwd");
  check (Alcotest.option Alcotest.string) "principal" (Some "applets")
    (P.domain_of_class p "applet/Game");
  check (Alcotest.option Alcotest.string) "default principal" (Some "users")
    (P.domain_of_class p "corp/App")

(* Property: [operations_for] answers from the class index exactly what
   a filter over the whole operation map answers, in the same order,
   on policies built by [make] and then changed by chains of
   [with_operation] and [with_rule] (a [with_rule] copy keeps the
   index it was given). The classes include ones with several
   operations, ones with none and names no operation mentions. *)
let reference_operations_for p ~cls ~meth =
  List.filter
    (fun op ->
      String.equal op.P.op_class cls
      && (String.equal op.P.op_method "*" || String.equal op.P.op_method meth))
    p.P.operations

type policy_step = Add_op of P.operation | Add_rule of int * bool

let prop_operations_for_matches_filter =
  let classes = [| "a/A"; "a/B"; "b/C"; "b/D" |]
  and methods = [| "*"; "open"; "read"; "close" |] in
  let gen_op =
    QCheck.Gen.(
      map
        (fun (((c, m), perm), res) ->
          {
            P.op_permission = Printf.sprintf "p%d" perm;
            op_class = classes.(c);
            op_method = methods.(m);
            op_resource_arg = res;
          })
        (pair (pair (pair (int_bound 2) (int_bound 3)) (int_bound 5)) bool))
  in
  let gen_step =
    QCheck.Gen.(
      frequency
        [
          (1, map (fun op -> Add_op op) gen_op);
          (1, map (fun (r, a) -> Add_rule (r, a)) (pair (int_bound 3) bool));
        ])
  in
  let print (ops, steps) =
    Printf.sprintf "%d operations then %d steps" (List.length ops)
      (List.length steps)
  in
  QCheck.Test.make ~name:"operations_for matches a filter" ~count:300
    (QCheck.make ~print
       QCheck.Gen.(pair (list_size (int_bound 12) gen_op) (list_size (int_bound 6) gen_step)))
    (fun (ops, steps) ->
      let agrees p =
        Array.for_all
          (fun cls ->
            Array.for_all
              (fun meth ->
                P.operations_for p ~cls ~meth
                = reference_operations_for p ~cls ~meth)
              (Array.append methods [| "write" |]))
          (Array.append classes [| "c/E" |])
      in
      let p =
        P.make ~default_allow:false ~rules:[] ~resources:[] ~operations:ops
          ~principals:[]
      in
      agrees p
      && snd
           (List.fold_left
              (fun (p, ok) step ->
                let p =
                  match step with
                  | Add_op op -> P.with_operation p op
                  | Add_rule (r, allow) ->
                    P.with_rule p ~sid:"s" ~permission:(Printf.sprintf "p%d" r)
                      ~allow
                in
                (p, ok && agrees p))
              (p, true) steps))

(* --- XML policy language. --- *)

let sample_xml =
  {|<?xml version="1.0"?>
    <policy default="deny">
      <!-- the applet domain -->
      <domain name="applets">
        <grant permission="property.get"/>
        <deny permission="file.open"/>
      </domain>
      <domain name="trusted">
        <grant permission="file.open"/>
        <grant permission="file.read"/>
      </domain>
      <resource prefix="/tmp/" domain="scratch"/>
      <operation permission="file.open" class="java/io/FileInputStream" method="open"/>
      <operation permission="file.read" class="java/io/FileInputStream" method="read"/>
      <principal classprefix="applet/" domain="applets"/>
    </policy>|}

let test_xml_parse () =
  let p = Security.Policy_xml.parse sample_xml in
  check Alcotest.bool "default deny" false p.P.default_allow;
  check Alcotest.int "rules" 4 (List.length p.P.rules);
  check Alcotest.int "operations" 2 (List.length p.P.operations);
  check Alcotest.bool "applets property.get" true
    (P.decide p ~sid:"applets" ~permission:"property.get");
  check Alcotest.bool "applets file.open denied" false
    (P.decide p ~sid:"applets" ~permission:"file.open");
  check Alcotest.bool "trusted file.open" true
    (P.decide p ~sid:"trusted" ~permission:"file.open");
  check Alcotest.int "ops for open" 1
    (List.length
       (P.operations_for p ~cls:"java/io/FileInputStream" ~meth:"open"))

let test_xml_entities_and_errors () =
  let p =
    Security.Policy_xml.parse
      {|<policy default="allow"><domain name="a&amp;b"><grant permission="x"/></domain></policy>|}
  in
  check Alcotest.bool "entity decoded" true
    (P.decide p ~sid:"a&b" ~permission:"x");
  List.iter
    (fun bad ->
      match Security.Policy_xml.parse bad with
      | _ -> fail ("accepted: " ^ bad)
      | exception Security.Policy_xml.Parse_error _ -> ())
    [
      "";
      "<policy";
      "<policy default='maybe'></policy>";
      "<notpolicy/>";
      "<policy><domain></domain></policy>" (* missing name *);
      "<policy><domain name='d'><frob/></domain></policy>";
      "<policy></policy";
      "<policy default='deny'></policy>junk";
    ]

(* --- Static rewriting + enforcement. --- *)

let policy = Security.Policy_xml.parse sample_xml

(* An app that opens and reads a file. *)
let file_app =
  B.class_ "applet/FileGrabber"
    [
      B.meth ~flags:static "grab" "()I"
        [
          B.New "java/io/FileInputStream";
          B.Dup;
          B.Push_str "/secret";
          B.Invokespecial
            ("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V");
          B.Invokevirtual ("java/io/FileInputStream", "read", "()I");
          B.Ireturn;
        ];
    ]

let dvm_client ~sid classes =
  let server = Security.Server.create policy in
  let vm = Jvm.Bootlib.fresh_vm () in
  let enf = Security.Enforcement.install vm ~server ~sid in
  List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg) classes;
  Hashtbl.replace vm.Jvm.Vmstate.files "/secret" "top secret";
  (vm, enf, server)

let rewritten = Security.Rewriter.rewrite_class policy file_app

let test_rewriter_inserts_checks () =
  let counters = Security.Rewriter.fresh_counters () in
  let _ = Security.Rewriter.rewrite_class ~counters policy file_app in
  (* one open (inside <init> call path? no: the open call is inside the
     boot library; the app's call sites are <init> (not matched) and
     read (matched)). Exactly the read site is instrumented here plus
     any matched sites. *)
  check Alcotest.bool "checks inserted" true (counters.Security.Rewriter.checks_inserted >= 1);
  let dis = Bytecode.Disasm.class_to_string rewritten in
  let contains sub =
    let n = String.length dis and m = String.length sub in
    let rec go i = i + m <= n && (String.sub dis i m = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "calls enforcement" true (contains "dvm/Enforcement")

let test_denied_operation_throws () =
  (* applets domain: file.read not granted, default deny. *)
  let vm, enf, _ = dvm_client ~sid:"applets" [ rewritten ] in
  (match Jvm.Interp.invoke vm ~cls:"applet/FileGrabber" ~name:"grab" ~desc:"()I" [] with
  | _ -> fail "expected SecurityException"
  | exception Jvm.Vmstate.Throw v ->
    check Alcotest.string "security exception" "java/lang/SecurityException"
      (Jvm.Value.class_of v));
  check Alcotest.bool "denial recorded" true (enf.Security.Enforcement.denials >= 1)

let test_granted_operation_proceeds () =
  let vm, _, _ = dvm_client ~sid:"trusted" [ rewritten ] in
  match Jvm.Interp.invoke vm ~cls:"applet/FileGrabber" ~name:"grab" ~desc:"()I" [] with
  | Some (Jvm.Value.Int n) ->
    check Alcotest.int32 "read first byte" (Int32.of_int (Char.code 't')) n
  | _ -> fail "expected result"

let test_jdk_cannot_protect_read () =
  (* The monolithic JDK hook guards open but not read: a leaked handle
     reads freely — the paper's motivating hole. *)
  let vm = Jvm.Bootlib.fresh_vm () in
  Hashtbl.replace vm.Jvm.Vmstate.files "/secret" "top secret";
  let checked = ref [] in
  vm.Jvm.Vmstate.security_hook <- Some (fun op -> checked := op :: !checked);
  Jvm.Classreg.register vm.Jvm.Vmstate.reg file_app (* original, unrewritten *);
  (match Jvm.Interp.invoke vm ~cls:"applet/FileGrabber" ~name:"grab" ~desc:"()I" [] with
  | Some (Jvm.Value.Int _) -> ()
  | _ -> fail "expected read to succeed");
  check Alcotest.bool "open was checked" true (List.mem "file.open" !checked);
  check Alcotest.bool "read was never checked" false
    (List.mem "file.read" !checked)

let test_first_check_downloads_then_caches () =
  let vm, enf, server = dvm_client ~sid:"trusted" [ rewritten ] in
  ignore (Jvm.Interp.invoke vm ~cls:"applet/FileGrabber" ~name:"grab" ~desc:"()I" []);
  check Alcotest.int "one download" 1 enf.Security.Enforcement.downloads;
  let before = enf.Security.Enforcement.downloads in
  ignore (Jvm.Interp.invoke vm ~cls:"applet/FileGrabber" ~name:"grab" ~desc:"()I" []);
  check Alcotest.int "no re-download" before enf.Security.Enforcement.downloads;
  check Alcotest.bool "cache hits" true (enf.Security.Enforcement.cache_hits >= 1);
  check Alcotest.int "server downloads counted" 1 server.Security.Server.downloads

let test_invalidation_propagates () =
  let vm, enf, server = dvm_client ~sid:"trusted" [ rewritten ] in
  (* First run succeeds. *)
  (match Jvm.Interp.invoke vm ~cls:"applet/FileGrabber" ~name:"grab" ~desc:"()I" [] with
  | Some _ -> ()
  | None -> fail "expected result");
  (* Central policy change: revoke file.read from trusted. *)
  Security.Server.update server (fun p ->
      P.with_rule p ~sid:"trusted" ~permission:"file.read" ~allow:false);
  check Alcotest.bool "client invalidated" true
    (enf.Security.Enforcement.invalidations >= 1);
  (* Next run re-downloads the policy and is denied. *)
  match Jvm.Interp.invoke vm ~cls:"applet/FileGrabber" ~name:"grab" ~desc:"()I" [] with
  | _ -> fail "expected denial after revocation"
  | exception Jvm.Vmstate.Throw v ->
    check Alcotest.string "security exception" "java/lang/SecurityException"
      (Jvm.Value.class_of v)

let test_rewrite_preserves_behaviour_when_granted () =
  (* With everything granted, rewritten output equals original. *)
  let allow_all =
    Security.Policy_xml.parse
      {|<policy default="allow">
          <operation permission="file.read" class="java/io/FileInputStream" method="read"/>
        </policy>|}
  in
  let rw = Security.Rewriter.rewrite_class allow_all file_app in
  let run cls =
    let server = Security.Server.create allow_all in
    let vm = Jvm.Bootlib.fresh_vm () in
    ignore (Security.Enforcement.install vm ~server ~sid:"any");
    Hashtbl.replace vm.Jvm.Vmstate.files "/secret" "z";
    Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
    match Jvm.Interp.invoke vm ~cls:"applet/FileGrabber" ~name:"grab" ~desc:"()I" [] with
    | Some (Jvm.Value.Int n) -> n
    | _ -> fail "no result"
  in
  check Alcotest.int32 "same result" (run file_app) (run rw)

(* --- Named-resource restrictions (DTOS object SIDs). --- *)

let resource_policy =
  Security.Policy_xml.parse
    {|<policy default="deny">
        <domain name="apps">
          <grant permission="file.open"/>
          <grant permission="file.read"/>
          <deny permission="file.open@homedirs"/>
        </domain>
        <resource prefix="/home/" domain="homedirs"/>
        <operation permission="file.open" resourcearg="last"
                   class="java/io/FileInputStream" method="&lt;init&gt;"/>
        <operation permission="file.read"
                   class="java/io/FileInputStream" method="read"/>
      </policy>|}

let opener path =
  B.class_ "apps/Opener"
    [
      B.meth ~flags:static "grab" "()I"
        [
          B.New "java/io/FileInputStream";
          B.Dup;
          B.Push_str path;
          B.Invokespecial
            ("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V");
          B.Invokevirtual ("java/io/FileInputStream", "read", "()I");
          B.Ireturn;
        ];
    ]

let run_opener path =
  let app = Security.Rewriter.rewrite_class resource_policy (opener path) in
  let server = Security.Server.create resource_policy in
  let vm = Jvm.Bootlib.fresh_vm () in
  ignore (Security.Enforcement.install vm ~server ~sid:"apps");
  Hashtbl.replace vm.Jvm.Vmstate.files path "zz";
  Jvm.Classreg.register vm.Jvm.Vmstate.reg app;
  match Jvm.Interp.invoke vm ~cls:"apps/Opener" ~name:"grab" ~desc:"()I" [] with
  | Some (Jvm.Value.Int _) -> `Allowed
  | Some _ | None -> fail "unexpected result"
  | exception Jvm.Vmstate.Throw v ->
    if Jvm.Value.class_of v = "java/lang/SecurityException" then `Denied
    else fail ("unexpected throw: " ^ Jvm.Interp.describe_throwable v)

let test_resource_qualified_checks () =
  (* plain file.open is granted: /tmp files open fine *)
  check Alcotest.bool "outside protected prefix allowed" true
    (run_opener "/tmp/scratch" = `Allowed);
  (* but the homedirs resource domain is denied for this subject *)
  check Alcotest.bool "protected prefix denied" true
    (run_opener "/home/alice/mail" = `Denied)

let test_resource_permission_mapping () =
  check Alcotest.string "qualified" "file.open@homedirs"
    (Security.Policy.resource_permission resource_policy
       ~permission:"file.open" ~resource:"/home/x");
  check Alcotest.string "unqualified" "file.open"
    (Security.Policy.resource_permission resource_policy
       ~permission:"file.open" ~resource:"/var/x")

let test_resource_check_preserves_stack () =
  (* The Dup-based resource check must not disturb the call: the opened
     stream still works and the program result is unchanged vs an
     all-allowing policy. *)
  let allow_all =
    Security.Policy_xml.parse
      {|<policy default="allow">
          <resource prefix="/data/" domain="datastore"/>
          <operation permission="file.open" resourcearg="last"
                     class="java/io/FileInputStream" method="&lt;init&gt;"/>
        </policy>|}
  in
  let app = Security.Rewriter.rewrite_class allow_all (opener "/data/f") in
  let server = Security.Server.create allow_all in
  let vm = Jvm.Bootlib.fresh_vm () in
  ignore (Security.Enforcement.install vm ~server ~sid:"apps");
  Hashtbl.replace vm.Jvm.Vmstate.files "/data/f" "Q";
  Jvm.Classreg.register vm.Jvm.Vmstate.reg app;
  match Jvm.Interp.invoke vm ~cls:"apps/Opener" ~name:"grab" ~desc:"()I" [] with
  | Some (Jvm.Value.Int n) ->
    check Alcotest.int32 "read the right byte" (Int32.of_int (Char.code 'Q')) n
  | _ -> fail "resource check corrupted the call"

(* --- Loop-invariant hoisting vs exception handlers. --- *)

let hoist_policy =
  Security.Policy_xml.parse
    {|<policy default="allow">
        <operation permission="op.use" class="util/Op" method="use"/>
      </policy>|}

(* The builder's counted-loop idiom with a protected call in the body:
   eligible for preheader hoisting when nothing else interferes. *)
let counted_loop_body =
  [
    B.Const 3;
    B.Istore 1;
    B.Label "head";
    B.Iload 1;
    B.If_z (Bytecode.Instr.Le, "exit");
    B.Invokestatic ("util/Op", "use", "()V");
    B.Inc (1, -1);
    B.Goto "head";
    B.Label "exit";
    B.Const 0;
    B.Ireturn;
  ]

let test_hoist_plain_loop () =
  let cls =
    B.class_ "loop/Plain" [ B.meth ~flags:static "f" "()I" counted_loop_body ]
  in
  let counters = Security.Rewriter.fresh_counters () in
  let _ = Security.Rewriter.rewrite_class ~counters hoist_policy cls in
  check Alcotest.int "uncovered loop hoists its invariant check" 1
    counters.Security.Rewriter.checks_hoisted

(* Regression: a handler covering the loop body can catch the denial
   and observe locals, so the in-loop check (which throws *after* the
   iteration's stores) is not equivalent to a hoisted one (which
   throws before them). Hoisting must be refused. *)
let test_hoist_blocked_by_handler () =
  let cls =
    B.class_ "loop/Covered"
      [
        B.meth ~flags:static
          ~handlers:[ ("head", "exit", "h", None) ]
          "f" "()I"
          (counted_loop_body
          @ [ B.Label "h"; B.Pop; B.Const 1; B.Ireturn ]);
      ]
  in
  let counters = Security.Rewriter.fresh_counters () in
  let _ = Security.Rewriter.rewrite_class ~counters hoist_policy cls in
  check Alcotest.int "handler-covered loop refuses hoisting" 0
    counters.Security.Rewriter.checks_hoisted;
  check Alcotest.int "the in-loop check stays" 1
    counters.Security.Rewriter.checks_inserted

(* Property: the enforcement decision always equals the central policy
   decision, before and after arbitrary rule flips. *)
let prop_enforcement_agrees_with_policy =
  QCheck.Test.make ~name:"enforcement cache coherent with server" ~count:100
    QCheck.(list (pair (pair (int_bound 3) (int_bound 3)) bool))
    (fun flips ->
      let server = Security.Server.create policy in
      let enf_vm = Jvm.Bootlib.fresh_vm () in
      let enf = Security.Enforcement.install enf_vm ~server ~sid:"applets" in
      let sids = [| "applets"; "trusted"; "scratch"; "other" |] in
      let perms = [| "file.open"; "file.read"; "property.get"; "misc" |] in
      List.for_all
        (fun ((si, pi), allow) ->
          Security.Server.update server (fun p ->
              Security.Policy.with_rule p ~sid:sids.(si) ~permission:perms.(pi)
                ~allow);
          (* After every change the client's answer for every
             permission must match the central matrix for its sid. *)
          Array.for_all
            (fun perm ->
              Security.Enforcement.allowed enf perm
              = Security.Policy.decide (Security.Server.policy server)
                  ~sid:"applets" ~permission:perm)
            perms)
        flips)

let () =
  Alcotest.run "security"
    [
      ( "policy",
        [
          Alcotest.test_case "matrix decide" `Quick test_matrix_decide;
          Alcotest.test_case "rule override" `Quick test_with_rule_overrides;
          Alcotest.test_case "resource/principal maps" `Quick
            test_resource_and_principal_maps;
          QCheck_alcotest.to_alcotest prop_operations_for_matches_filter;
        ] );
      ( "xml",
        [
          Alcotest.test_case "parse" `Quick test_xml_parse;
          Alcotest.test_case "entities and errors" `Quick
            test_xml_entities_and_errors;
        ] );
      ( "enforcement",
        [
          Alcotest.test_case "rewriter inserts checks" `Quick
            test_rewriter_inserts_checks;
          Alcotest.test_case "denied throws" `Quick test_denied_operation_throws;
          Alcotest.test_case "granted proceeds" `Quick
            test_granted_operation_proceeds;
          Alcotest.test_case "JDK cannot protect read" `Quick
            test_jdk_cannot_protect_read;
          Alcotest.test_case "download then cache" `Quick
            test_first_check_downloads_then_caches;
          Alcotest.test_case "invalidation propagates" `Quick
            test_invalidation_propagates;
          Alcotest.test_case "rewrite preserves behaviour" `Quick
            test_rewrite_preserves_behaviour_when_granted;
          Alcotest.test_case "resource-qualified checks" `Quick
            test_resource_qualified_checks;
          Alcotest.test_case "resource permission mapping" `Quick
            test_resource_permission_mapping;
          Alcotest.test_case "resource check preserves stack" `Quick
            test_resource_check_preserves_stack;
          QCheck_alcotest.to_alcotest prop_enforcement_agrees_with_policy;
        ] );
      ( "hoisting",
        [
          Alcotest.test_case "uncovered loop hoists" `Quick
            test_hoist_plain_loop;
          Alcotest.test_case "handler-covered loop refuses" `Quick
            test_hoist_blocked_by_handler;
        ] );
    ]
