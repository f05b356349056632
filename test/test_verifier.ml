(* Tests for the verification service: structural phases, dataflow
   type inference, assumption collection, Figure-3 rewriting, the
   dynamic RTVerifier component, error propagation — and the soundness
   property that ties it all together: code accepted by the verifier
   never faults the interpreter. *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile
module I = Bytecode.Instr
module V = Jvm.Value
module SV = Verifier.Static_verifier

let check = Alcotest.check
let fail = Alcotest.fail
let static = [ CF.Public; CF.Static ]

let boot_oracle = Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes ())

let expect_verified ?(oracle = boot_oracle) cls =
  match SV.verify ~oracle cls with
  | SV.Verified (cls', stats) -> (cls', stats)
  | SV.Rejected (errors, _) ->
    fail
      ("unexpected rejection: "
      ^ String.concat "; " (List.map Verifier.Verror.to_string errors))

let expect_rejected ?(oracle = boot_oracle) cls =
  match SV.verify ~oracle cls with
  | SV.Verified _ -> fail "expected rejection"
  | SV.Rejected (errors, _) ->
    check Alcotest.bool "has errors" true (errors <> []);
    errors

(* --- Acceptance of well-typed programs. --- *)

let hello_cls =
  B.class_ "Hello"
    [
      B.meth ~flags:static "main" "()V"
        [
          B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
          B.Push_str "hello world";
          B.Invokevirtual
            ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
          B.Return;
        ];
    ]

let test_accepts_hello () =
  let cls', stats = expect_verified hello_cls in
  check Alcotest.bool "static checks performed" true (stats.SV.sv_static_checks > 0);
  (* Everything was known to the oracle: nothing deferred, no rewrite. *)
  check Alcotest.int "no deferred checks" 0 stats.SV.sv_deferred;
  check Alcotest.int "same method count" (CF.method_count hello_cls)
    (CF.method_count cls')

let test_accepts_loops_and_exceptions () =
  let cls =
    B.class_ "LoopEx"
      [
        B.default_init "java/lang/Object";
        B.meth ~flags:static "f" "(I)I"
          ~handlers:[ ("try", "end", "catch", Some "java/lang/ArithmeticException") ]
          [
            B.Label "try";
            B.Const 100;
            B.Iload 0;
            B.Div;
            B.Istore 1;
            B.Label "end";
            B.Goto "ok";
            B.Label "catch";
            B.Pop;
            B.Const (-1);
            B.Istore 1;
            B.Label "ok";
            B.Iload 1;
            B.Ireturn;
          ];
      ]
  in
  ignore (expect_verified cls)

let test_accepts_object_construction () =
  let cls =
    B.class_ "Mk" ~fields:[ B.field "v" "I" ]
      [
        B.meth "<init>" "(I)V"
          [
            B.Aload 0;
            B.Invokespecial ("java/lang/Object", "<init>", "()V");
            B.Aload 0;
            B.Iload 1;
            B.Putfield ("Mk", "v", "I");
            B.Return;
          ];
        B.meth ~flags:static "make" "(I)LMk;"
          [
            B.New "Mk";
            B.Dup;
            B.Iload 0;
            B.Invokespecial ("Mk", "<init>", "(I)V");
            B.Areturn;
          ];
      ]
  in
  ignore (expect_verified cls)

let test_accepts_jsr_ret () =
  let cls =
    B.class_ "JsrOk"
      [
        B.meth ~flags:static "f" "()I"
          [
            B.Const 0;
            B.Istore 0;
            B.Jsr "sub";
            B.Jsr "sub";
            B.Iload 0;
            B.Ireturn;
            B.Label "sub";
            B.Astore 1;
            B.Inc (0, 1);
            B.Ret 1;
          ];
      ]
  in
  ignore (expect_verified cls)

let test_accepts_two_subroutines () =
  let cls =
    B.class_ "JsrTwo"
      [
        B.meth ~flags:static "f" "()I"
          [
            B.Const 0;
            B.Istore 0;
            B.Jsr "s1";
            B.Jsr "s2";
            B.Jsr "s1";
            B.Jsr "s2";
            B.Iload 0;
            B.Ireturn;
            B.Label "s1";
            B.Astore 1;
            B.Inc (0, 1);
            B.Ret 1;
            B.Label "s2";
            B.Astore 2;
            B.Inc (0, 2);
            B.Ret 2;
          ];
      ]
  in
  ignore (expect_verified cls)

let test_accepts_nested_subroutine () =
  let cls =
    B.class_ "JsrNest"
      [
        B.meth ~flags:static "f" "()I"
          [
            B.Const 0;
            B.Istore 0;
            B.Jsr "outer";
            B.Iload 0;
            B.Ireturn;
            B.Label "outer";
            B.Astore 1;
            B.Jsr "inner";
            B.Inc (0, 1);
            B.Ret 1;
            B.Label "inner";
            B.Astore 2;
            B.Inc (0, 10);
            B.Ret 2;
          ];
      ]
  in
  ignore (expect_verified cls)

let test_accepts_jsr_in_protected_range () =
  let cls =
    B.class_ "JsrTry"
      [
        B.meth ~flags:static "f" "(I)I"
          ~handlers:[ ("try", "end", "catch", Some "java/lang/ArithmeticException") ]
          [
            B.Const 0;
            B.Istore 1;
            B.Label "try";
            B.Jsr "sub";
            B.Const 100;
            B.Iload 0;
            B.Div;
            B.Istore 1;
            B.Label "end";
            B.Iload 1;
            B.Ireturn;
            B.Label "catch";
            B.Pop;
            B.Const (-1);
            B.Ireturn;
            B.Label "sub";
            B.Astore 2;
            B.Inc (1, 1);
            B.Ret 2;
          ];
      ]
  in
  ignore (expect_verified cls)

let test_rejects_ret_of_merged_retaddrs () =
  (* Both subroutines store their return address in local 1 and share
     one [ret]; the merge of two different return addresses is top. *)
  let cls =
    B.class_ "JsrMix"
      [
        B.meth ~flags:static "f" "(I)I"
          [
            B.Iload 0;
            B.If_z (I.Eq, "other");
            B.Jsr "s1";
            B.Const 0;
            B.Ireturn;
            B.Label "other";
            B.Jsr "s2";
            B.Const 1;
            B.Ireturn;
            B.Label "s1";
            B.Astore 1;
            B.Goto "tail";
            B.Label "s2";
            B.Astore 1;
            B.Goto "tail";
            B.Label "tail";
            B.Ret 1;
          ];
      ]
  in
  match expect_rejected cls with
  | [ e ] ->
    check Alcotest.string "reason" "JsrMix.f(I)I: ret via local holding top"
      (Verifier.Verror.to_string e)
  | errors -> fail (Printf.sprintf "%d errors" (List.length errors))

let test_accepts_field_init_before_super () =
  (* putfield on uninitialized this for own fields is allowed. *)
  let cls =
    B.class_ "Early" ~fields:[ B.field "x" "I" ]
      [
        B.meth "<init>" "()V"
          [
            B.Aload 0;
            B.Const 5;
            B.Putfield ("Early", "x", "I");
            B.Aload 0;
            B.Invokespecial ("java/lang/Object", "<init>", "()V");
            B.Return;
          ];
      ]
  in
  ignore (expect_verified cls)

let test_accepts_interface_call () =
  let iface =
    B.class_ ~flags:[ CF.Public; CF.Abstract ] "Shape"
      [ B.abstract_meth "area" "()I" ]
  in
  let square =
    B.class_ "Square" ~interfaces:[ "Shape" ]
      ~fields:[ B.field "side" "I" ]
      [
        B.default_init "java/lang/Object";
        B.meth "area" "()I"
          [
            B.Aload 0;
            B.Getfield ("Square", "side", "I");
            B.Aload 0;
            B.Getfield ("Square", "side", "I");
            B.Mul;
            B.Ireturn;
          ];
      ]
  in
  let user =
    B.class_ "ShapeUser"
      [
        B.meth ~flags:static "f" "(LShape;)I"
          [ B.Aload 0; B.Invokeinterface ("Shape", "area", "()I"); B.Ireturn ];
        B.meth ~flags:static "g" "()I"
          [
            B.New "Square";
            B.Dup;
            B.Invokespecial ("Square", "<init>", "()V");
            B.Invokestatic ("ShapeUser", "f", "(LShape;)I");
            B.Ireturn;
          ];
      ]
  in
  let oracle =
    Verifier.Oracle.of_classes
      (Jvm.Bootlib.boot_classes () @ [ iface; square; user ])
  in
  List.iter (fun c -> ignore (expect_verified ~oracle c)) [ square; user ]

let test_rejects_non_implementor_as_interface () =
  let iface =
    B.class_ ~flags:[ CF.Public; CF.Abstract ] "Shape2"
      [ B.abstract_meth "area" "()I" ]
  in
  let plain = B.class_ "Plain" [ B.default_init "java/lang/Object" ] in
  let user =
    B.class_ "BadUser"
      [
        B.meth ~flags:static "g" "()I"
          [
            B.New "Plain";
            B.Dup;
            B.Invokespecial ("Plain", "<init>", "()V");
            B.Invokeinterface ("Shape2", "area", "()I");
            B.Ireturn;
          ];
      ]
  in
  let oracle =
    Verifier.Oracle.of_classes
      (Jvm.Bootlib.boot_classes () @ [ iface; plain; user ])
  in
  ignore (expect_rejected ~oracle user)

let test_rejects_ret_via_non_retaddr () =
  (* ret through a local that holds an int *)
  let cls =
    B.class_ "RJ1"
      [
        B.meth ~flags:static "f" "()I"
          [ B.Const 3; B.Istore 0; B.Ret 0 ];
      ]
  in
  ignore (expect_rejected cls)

let test_rejects_backward_branch_stack_growth () =
  (* Each loop iteration leaves one extra int on the stack: the merge
     at the loop head has mismatched heights. *)
  let cls =
    B.class_ "RJ2"
      [
        B.meth ~flags:static "f" "()I"
          [
            B.Const 0;
            B.Label "top";
            B.Const 1;
            B.Const 1;
            B.If_z (I.Ne, "top");
            (* the loop head is reached with height 1 first and height 2
               from the back edge: the merge must be rejected *)
            B.Pop;
            B.Ireturn;
          ];
      ]
  in
  ignore (expect_rejected cls)

let test_rejects_retaddr_arithmetic () =
  (* load a return address and add to it *)
  let cls =
    B.class_ "RJ3"
      [
        B.meth ~flags:static "f" "()I"
          [
            B.Jsr "sub";
            B.Const 0;
            B.Ireturn;
            B.Label "sub";
            B.Astore 0;
            B.Iload 0;
            B.Const 1;
            B.Add;
            B.Pop;
            B.Ret 0;
          ];
      ]
  in
  ignore (expect_rejected cls)

let test_private_access_enforced () =
  let holder =
    B.class_ "Holder"
      ~fields:[ B.field ~flags:[ CF.Private ] "secret" "I" ]
      [
        B.default_init "java/lang/Object";
        B.meth ~flags:[ CF.Private; CF.Static ] "hidden" "()I"
          [ B.Const 7; B.Ireturn ];
        (* private access from within the declaring class is fine *)
        B.meth "own" "()I"
          [
            B.Aload 0;
            B.Getfield ("Holder", "secret", "I");
            B.Invokestatic ("Holder", "hidden", "()I");
            B.Add;
            B.Ireturn;
          ];
      ]
  in
  let snooper_field =
    B.class_ "SnooperF"
      [
        B.meth ~flags:static "f" "(LHolder;)I"
          [ B.Aload 0; B.Getfield ("Holder", "secret", "I"); B.Ireturn ];
      ]
  in
  let snooper_method =
    B.class_ "SnooperM"
      [
        B.meth ~flags:static "f" "()I"
          [ B.Invokestatic ("Holder", "hidden", "()I"); B.Ireturn ];
      ]
  in
  let oracle =
    Verifier.Oracle.of_classes
      (Jvm.Bootlib.boot_classes () @ [ holder; snooper_field; snooper_method ])
  in
  ignore (expect_verified ~oracle holder);
  ignore (expect_rejected ~oracle snooper_field);
  ignore (expect_rejected ~oracle snooper_method)

(* --- Reflection service (§4.3). --- *)

(* local fixtures (the assumption-collection fixtures live further
   down) *)
let reflect_user =
  B.class_ "RUser"
    ~fields:[ B.field "x" "I"; B.field ~flags:static "shared" "I" ]
    [
      B.default_init "java/lang/Object";
      B.meth ~flags:static "f" "()I"
        [ B.Invokestatic ("RHelper", "value", "()I"); B.Ireturn ];
    ]

let reflect_helper =
  B.class_ "RHelper"
    [ B.meth ~flags:static "value" "()I" [ B.Const 5; B.Ireturn ] ]

let test_reflect_roundtrip () =
  let info = Verifier.Oracle.info_of_classfile reflect_user in
  let info' = Verifier.Reflect.decode_info (Verifier.Reflect.encode_info info) in
  check Alcotest.bool "roundtrip" true (info = info')

let test_reflect_annotate_and_read () =
  let annotated = Verifier.Reflect.annotate hello_cls in
  (match Verifier.Reflect.read annotated with
  | Some info ->
    check Alcotest.string "name" "Hello" info.Verifier.Oracle.ci_name;
    check Alcotest.bool "main listed" true
      (List.exists
         (fun (n, d, s, _) -> n = "main" && d = "()V" && s)
         info.Verifier.Oracle.ci_methods)
  | None -> fail "attribute unreadable");
  check Alcotest.bool "absent on plain class" true
    (Verifier.Reflect.read hello_cls = None)

let test_reflect_fast_oracle_equivalent () =
  let classes = [ hello_cls; reflect_user; reflect_helper ] in
  let annotated = List.map Verifier.Reflect.annotate classes in
  let bytes_of =
    List.map
      (fun c -> (c.CF.name, Bytecode.Encode.class_to_bytes c))
      annotated
  in
  let fetch n = List.assoc_opt n bytes_of in
  let fast = Verifier.Reflect.oracle_of_bytes fetch in
  let slow = Verifier.Oracle.of_classes classes in
  List.iter
    (fun c ->
      let name = c.CF.name in
      match (fast name, slow name) with
      | Some a, Some b ->
        check Alcotest.bool (name ^ " same info") true
          (a.Verifier.Oracle.ci_methods = b.Verifier.Oracle.ci_methods
          && a.Verifier.Oracle.ci_fields = b.Verifier.Oracle.ci_fields
          && a.Verifier.Oracle.ci_super = b.Verifier.Oracle.ci_super)
      | _ -> fail (name ^ " missing"))
    classes;
  check Alcotest.bool "unknown name" true (fast "nope" = None)

let test_reflect_attribute_survives_wire () =
  let annotated = Verifier.Reflect.annotate reflect_user in
  let back =
    Bytecode.Decode.class_of_bytes (Bytecode.Encode.class_to_bytes annotated)
  in
  check Alcotest.bool "readable after roundtrip" true
    (Verifier.Reflect.read back <> None);
  (* fast attributes-only extraction agrees with the full decode *)
  let attrs =
    Bytecode.Decode.class_attributes_of_bytes
      (Bytecode.Encode.class_to_bytes annotated)
  in
  check Alcotest.bool "fast path sees it" true
    (List.mem_assoc Verifier.Reflect.attribute_name attrs)

(* --- Rejection of ill-typed programs. --- *)

let reject_body name body =
  let cls = B.class_ name [ B.meth ~flags:static "f" "()I" body ] in
  ignore (expect_rejected cls)

let test_rejects_underflow () = reject_body "R1" [ B.Add; B.Ireturn ]

let test_rejects_type_confusion () =
  reject_body "R2" [ B.Push_str "s"; B.Const 1; B.Add; B.Ireturn ]

let test_rejects_int_as_ref () =
  reject_body "R3"
    [ B.Const 5; B.Istore 0; B.Aload 0; B.Arraylength; B.Ireturn ]

let test_rejects_wrong_return () =
  let cls =
    B.class_ "R4" [ B.meth ~flags:static "f" "()V" [ B.Const 1; B.Ireturn ] ]
  in
  ignore (expect_rejected cls)

let test_rejects_merge_height_mismatch () =
  reject_body "R5"
    [
      B.Const 1;
      B.If_z (I.Eq, "other");
      B.Const 1;
      B.Const 2;
      B.Goto "join";
      B.Label "other";
      B.Const 3;
      B.Label "join";
      B.Ireturn;
    ]

let test_rejects_uninitialized_use () =
  let cls =
    B.class_ "R6"
      [
        B.meth ~flags:static "f" "()V"
          [
            B.New "java/lang/Object";
            (* no constructor call *)
            B.Invokevirtual ("java/lang/Object", "hashCode", "()I");
            B.Pop;
            B.Return;
          ];
      ]
  in
  ignore (expect_rejected cls)

let test_rejects_falls_off_end () =
  (* Built by hand: builder-level assembly is fine, structure is not. *)
  let base = B.class_ "R7" [ B.meth ~flags:static "f" "()V" [ B.Return ] ] in
  let broken =
    CF.map_methods
      (fun m ->
        match m.CF.m_code with
        | Some c -> { m with CF.m_code = Some { c with CF.instrs = [| I.Nop |] } }
        | None -> m)
      base
  in
  ignore (expect_rejected broken)

let test_rejects_bad_field_type () =
  let cls =
    B.class_ "R8"
      [
        B.meth ~flags:static "f" "()V"
          [
            (* System.out has type OutputStream, claim it is a String *)
            B.Getstatic ("java/lang/System", "out", "Ljava/lang/String;");
            B.Pop;
            B.Return;
          ];
      ]
  in
  ignore (expect_rejected cls)

let test_rejects_missing_member_of_known_class () =
  let cls =
    B.class_ "R9"
      [
        B.meth ~flags:static "f" "()V"
          [
            B.Getstatic ("java/lang/System", "nonesuch", "I");
            B.Pop;
            B.Return;
          ];
      ]
  in
  ignore (expect_rejected cls)

let test_rejects_wrong_arg_type () =
  let cls =
    B.class_ "R10"
      [
        B.meth ~flags:static "f" "()V"
          [
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Const 1;
            (* println(String) with an int argument *)
            B.Invokevirtual
              ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
            B.Return;
          ];
      ]
  in
  ignore (expect_rejected cls)

let test_rejects_stack_overflow_beyond_declared () =
  let base =
    B.class_ "R11"
      [ B.meth ~flags:static "f" "()I" [ B.Const 1; B.Const 2; B.Add; B.Ireturn ] ]
  in
  let broken =
    CF.map_methods
      (fun m ->
        match m.CF.m_code with
        | Some c -> { m with CF.m_code = Some { c with CF.max_stack = 1 } }
        | None -> m)
      base
  in
  ignore (expect_rejected broken)

let test_rejects_duplicate_method () =
  let base = B.class_ "R12" [ B.meth ~flags:static "f" "()V" [ B.Return ] ] in
  let dup = { base with CF.methods = base.CF.methods @ base.CF.methods } in
  ignore (expect_rejected dup)

(* --- Assumption collection and Figure-3 rewriting. --- *)

let ext_user_cls =
  B.class_ "ExtUser"
    [
      B.meth ~flags:static "f" "()I"
        [ B.Invokestatic ("ext/Helper", "value", "()I"); B.Ireturn ];
    ]

let test_unknown_class_becomes_assumption () =
  let cls', stats = expect_verified ext_user_cls in
  check Alcotest.bool "deferred checks injected" true (stats.SV.sv_deferred > 0);
  check Alcotest.bool "guard field added" true
    (List.exists
       (fun f -> String.length f.CF.f_name > 5 && String.sub f.CF.f_name 0 5 = "__dvm")
       cls'.CF.fields);
  let dis = Bytecode.Disasm.class_to_string cls' in
  let contains sub =
    let n = String.length dis and m = String.length sub in
    let rec go i = i + m <= n && (String.sub dis i m = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "calls RTVerifier" true (contains "dvm/RTVerifier");
  check Alcotest.bool "checkMethod injected" true (contains "checkMethod")

let helper_cls =
  B.class_ "ext/Helper"
    [ B.meth ~flags:static "value" "()I" [ B.Const 77; B.Ireturn ] ]

(* A client VM with the RTVerifier dynamic component installed. *)
let client_vm ?provider extra =
  let vm = Jvm.Bootlib.fresh_vm ?provider () in
  let stats = Verifier.Rt_verifier.install vm in
  List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg) extra;
  (vm, stats)

let test_self_verifying_runs_when_assumption_holds () =
  let cls', _ = expect_verified ext_user_cls in
  let vm, stats = client_vm [ cls'; helper_cls ] in
  (match Jvm.Interp.invoke vm ~cls:"ExtUser" ~name:"f" ~desc:"()I" [] with
  | Some (V.Int 77l) -> ()
  | _ -> fail "wrong result");
  check Alcotest.bool "dynamic checks ran" true (stats.Verifier.Rt_verifier.dynamic_checks > 0);
  let after_first = stats.Verifier.Rt_verifier.dynamic_checks in
  (* Second call: the Figure-3 guard skips the checks. *)
  (match Jvm.Interp.invoke vm ~cls:"ExtUser" ~name:"f" ~desc:"()I" [] with
  | Some (V.Int 77l) -> ()
  | _ -> fail "wrong result on second call");
  check Alcotest.int "guard suppresses re-checking" after_first
    stats.Verifier.Rt_verifier.dynamic_checks;
  check Alcotest.int "no failures" 0 stats.Verifier.Rt_verifier.failures

let test_self_verifying_fails_when_assumption_broken () =
  let cls', _ = expect_verified ext_user_cls in
  (* Client has no ext/Helper at all. *)
  let vm, stats = client_vm [ cls' ] in
  (match Jvm.Interp.invoke vm ~cls:"ExtUser" ~name:"f" ~desc:"()I" [] with
  | _ -> fail "expected VerifyError"
  | exception Jvm.Vmstate.Throw v ->
    check Alcotest.string "VerifyError" "java/lang/VerifyError" (V.class_of v));
  check Alcotest.bool "failure recorded" true (stats.Verifier.Rt_verifier.failures > 0)

let test_self_verifying_fails_on_descriptor_mismatch () =
  let cls', _ = expect_verified ext_user_cls in
  let wrong_helper =
    B.class_ "ext/Helper"
      [ B.meth ~flags:static "value" "(I)I" [ B.Iload 0; B.Ireturn ] ]
  in
  let vm, _ = client_vm [ cls'; wrong_helper ] in
  match Jvm.Interp.invoke vm ~cls:"ExtUser" ~name:"f" ~desc:"()I" [] with
  | _ -> fail "expected VerifyError"
  | exception Jvm.Vmstate.Throw v ->
    check Alcotest.string "VerifyError" "java/lang/VerifyError" (V.class_of v)

let test_class_wide_assumption_checked_at_clinit () =
  (* Subclass of an unknown superclass: checked from <clinit>. *)
  let sub =
    B.class_ "SubOfUnknown" ~super:"ext/Base"
      [
        B.meth "<init>" "()V"
          [
            B.Aload 0;
            B.Invokespecial ("ext/Base", "<init>", "()V");
            B.Return;
          ];
      ]
  in
  let cls', stats = expect_verified sub in
  check Alcotest.bool "deferred" true (stats.SV.sv_deferred > 0);
  check Alcotest.bool "clinit synthesized" true
    (CF.find_method cls' "<clinit>" "()V" <> None);
  (* Client without ext/Base: initialization fails with VerifyError. *)
  let vm, _ = client_vm [ cls' ] in
  match Jvm.Interp.ensure_initialized vm "SubOfUnknown" with
  | _ -> fail "expected a linkage error"
  | exception Jvm.Vmstate.Throw v ->
    (* Superclass resolution precedes <clinit>, so the missing parent
       may surface as NoClassDefFoundError rather than the injected
       check's VerifyError; both are LinkageErrors, as in a real JVM. *)
    check Alcotest.bool "linkage error" true
      (Jvm.Classreg.is_subclass vm.Jvm.Vmstate.reg ~sub:(V.class_of v)
         ~super:"java/lang/LinkageError")

let test_error_class_propagates () =
  let errors =
    expect_rejected
      (B.class_ "Broken" [ B.meth ~flags:static "f" "()I" [ B.Add; B.Ireturn ] ])
  in
  let repl = Verifier.Error_class.of_errors ~name:"Broken" errors in
  check Alcotest.string "same name" "Broken" repl.CF.name;
  let vm, _ = client_vm [ repl ] in
  match Jvm.Interp.ensure_initialized vm "Broken" with
  | _ -> fail "expected VerifyError on init"
  | exception Jvm.Vmstate.Throw v ->
    check Alcotest.string "VerifyError" "java/lang/VerifyError" (V.class_of v)

let test_filter_rejects_via_exception () =
  let f = SV.filter ~oracle:boot_oracle () in
  let bad =
    B.class_ "BadF" [ B.meth ~flags:static "f" "()I" [ B.Add; B.Ireturn ] ]
  in
  match Rewrite.Filter.apply f bad with
  | _ -> fail "expected Filter.Rejected"
  | exception Rewrite.Filter.Rejected { filter = "verifier"; cls = "BadF"; _ } ->
    ()

(* --- Rewriting preserves behaviour. --- *)

let test_rewrite_preserves_output () =
  let app =
    B.class_ "PreserveMe"
      [
        B.meth ~flags:static "main" "()V"
          [
            B.Const 0;
            B.Istore 0;
            B.Const 0;
            B.Istore 1;
            B.Label "loop";
            B.Iload 1;
            B.Const 10;
            B.If_icmp (I.Ge, "done");
            B.Iload 0;
            B.Invokestatic ("ext/Helper", "value", "()I");
            B.Add;
            B.Istore 0;
            B.Inc (1, 1);
            B.Goto "loop";
            B.Label "done";
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Iload 0;
            B.Invokevirtual ("java/io/OutputStream", "println", "(I)V");
            B.Return;
          ];
      ]
  in
  (* Reference run: original class on a trusting client. *)
  let vm0, _ = client_vm [ app; helper_cls ] in
  (match Jvm.Interp.run_main vm0 "PreserveMe" with
  | Ok () -> ()
  | Error e -> fail (Jvm.Interp.describe_throwable e));
  let reference = Jvm.Vmstate.output vm0 in
  check Alcotest.string "reference output" "770\n" reference;
  (* Rewritten run. *)
  let cls', _ = expect_verified app in
  let vm1, _ = client_vm [ cls'; helper_cls ] in
  (match Jvm.Interp.run_main vm1 "PreserveMe" with
  | Ok () -> ()
  | Error e -> fail (Jvm.Interp.describe_throwable e));
  check Alcotest.string "same output" reference (Jvm.Vmstate.output vm1)

(* --- The verifier's output on the workload code. --- *)

(* Per Figure 5 application, verified under the monolithic client's
   oracle (boot library plus the app): summed static checks — Figure
   8's static column — and summed deferred checks. *)
let test_pin_workload_checks () =
  List.iter
    (fun (spec, want_static, want_deferred) ->
      let app = Workloads.Apps.build spec in
      let classes = app.Workloads.Appgen.classes in
      let oracle =
        Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes () @ classes)
      in
      let static_checks, deferred =
        List.fold_left
          (fun (s, d) cf ->
            let _, stats = expect_verified ~oracle cf in
            (s + stats.SV.sv_static_checks, d + stats.SV.sv_deferred))
          (0, 0) classes
      in
      let name = spec.Workloads.Appgen.name in
      check Alcotest.int (name ^ " static checks") want_static static_checks;
      check Alcotest.int (name ^ " deferred checks") want_deferred deferred)
    [
      (Workloads.Apps.jlex, 55629, 0);
      (Workloads.Apps.javacup, 78834, 0);
      (Workloads.Apps.pizza, 498011, 0);
      (Workloads.Apps.instantdb, 189687, 0);
      (Workloads.Apps.cassowary, 50203, 0);
    ]

(* Under the proxy's boot-only oracle every application class and
   applet verifies; one digest covers the bytes the verifier serves. *)
let test_pin_served_bytes () =
  let classes =
    List.concat_map
      (fun spec -> (Workloads.Apps.build spec).Workloads.Appgen.classes)
      Workloads.Apps.all_specs
    @ List.map Workloads.Applets.realize (Workloads.Applets.population ())
  in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun cf ->
      let cf', _ = expect_verified cf in
      Buffer.add_string buf (Bytecode.Encode.class_to_bytes cf'))
    classes;
  check Alcotest.int "classes" 501 (List.length classes);
  check Alcotest.string "served digest" "bb427a34bb26929d94b7e0a772e91b03"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- Lattice properties. --- *)

let small_oracle =
  Verifier.Oracle.of_classes
    (Jvm.Bootlib.boot_classes ()
    @ [
        B.class_ "A" [ B.default_init "java/lang/Object" ];
        B.class_ "AB" ~super:"A" [ B.default_init "A" ];
        B.class_ "AC" ~super:"A" [ B.default_init "A" ];
        B.class_ "ABD" ~super:"AB" [ B.default_init "AB" ];
      ])

let gen_vtype =
  QCheck.Gen.oneof
    [
      QCheck.Gen.return Verifier.Vtype.Top;
      QCheck.Gen.return Verifier.Vtype.VInt;
      QCheck.Gen.return Verifier.Vtype.Null;
      QCheck.Gen.map
        (fun c -> Verifier.Vtype.Ref c)
        (QCheck.Gen.oneofl
           [ "A"; "AB"; "AC"; "ABD"; "java/lang/Object"; "java/lang/String"; "[I" ]);
      QCheck.Gen.map
        (fun pc -> Verifier.Vtype.Uninit { pc; cls = "A" })
        (QCheck.Gen.int_range 0 3);
      QCheck.Gen.map (fun e -> Verifier.Vtype.Retaddr e) (QCheck.Gen.int_range 0 3);
    ]

let arb_vtype = QCheck.make ~print:Verifier.Vtype.to_string gen_vtype

let merge = Verifier.Vtype.merge small_oracle

let prop_merge_idempotent =
  QCheck.Test.make ~name:"merge idempotent" ~count:500 arb_vtype (fun v ->
      Verifier.Vtype.equal (merge v v) v)

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:500
    (QCheck.pair arb_vtype arb_vtype) (fun (a, b) ->
      Verifier.Vtype.equal (merge a b) (merge b a))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:500
    (QCheck.triple arb_vtype arb_vtype arb_vtype) (fun (a, b, c) ->
      Verifier.Vtype.equal (merge a (merge b c)) (merge (merge a b) c))

let prop_merge_upper_bound =
  QCheck.Test.make ~name:"merge is an upper bound (refs)" ~count:500
    (QCheck.pair arb_vtype arb_vtype) (fun (a, b) ->
      match (a, b, merge a b) with
      | Verifier.Vtype.Ref x, Verifier.Vtype.Ref _, Verifier.Vtype.Ref m ->
        Verifier.Oracle.is_subclass small_oracle ~sub:x ~super:m = `Yes
      | _ -> true)

(* --- Soundness: verified programs never fault. --- *)

(* Random programs over a fixed vocabulary: some are well-typed, some
   are garbage. The property: if the static verifier accepts, the
   interpreter never raises Runtime_fault. *)
let gen_random_program =
  let open QCheck.Gen in
  let instr =
    frequency
      [
        (6, map (fun k -> B.Const k) (int_range (-3) 100));
        (3, return B.Add);
        (2, return B.Sub);
        (2, return B.Mul);
        (2, return B.Dup);
        (2, return B.Pop);
        (2, return B.Swap);
        (1, return B.Dup_x1);
        (2, map (fun n -> B.Iload n) (int_range 0 3));
        (2, map (fun n -> B.Istore n) (int_range 0 3));
        (1, map (fun n -> B.Aload n) (int_range 0 3));
        (1, map (fun n -> B.Astore n) (int_range 0 3));
        (1, return (B.Push_str "x"));
        (1, return B.Null);
        (1, return B.Newarray);
        (1, return B.Arraylength);
        (1, return B.Iaload);
        (1, return B.Iastore);
        (1, return (B.Goto "end"));
        (1, map (fun c -> B.If_z (c, "end")) (oneofl [ I.Eq; I.Ne; I.Lt; I.Ge ]));
        ( 1,
          return
            (B.Invokestatic
               ("java/lang/String", "valueOf", "(I)Ljava/lang/String;")) );
      ]
  in
  let* n = int_range 1 25 in
  let* body = list_repeat n instr in
  return (body @ [ B.Label "end"; B.Const 0; B.Ireturn ])

let arb_program =
  QCheck.make
    ~print:(fun body ->
      String.concat "\n"
        (List.map
           (fun i ->
             match i with
             | B.Label l -> l ^ ":"
             | _ -> "  <instr>")
           body))
    gen_random_program

let prop_verified_never_faults =
  QCheck.Test.make ~name:"verified programs never fault" ~count:500 arb_program
    (fun body ->
      let cls =
        try Some (B.class_ "Rand" [ B.meth ~flags:static "f" "()I" body ])
        with _ -> None
      in
      match cls with
      | None -> true
      | Some cls -> (
        match SV.verify ~oracle:boot_oracle cls with
        | SV.Rejected _ -> true (* rejection is always safe *)
        | SV.Verified (cls', _) -> (
          let vm = Jvm.Bootlib.fresh_vm ~budget:200_000L () in
          ignore (Verifier.Rt_verifier.install vm);
          Jvm.Classreg.register vm.Jvm.Vmstate.reg cls';
          match Jvm.Interp.invoke vm ~cls:"Rand" ~name:"f" ~desc:"()I" [] with
          | _ -> true
          | exception Jvm.Vmstate.Throw _ -> true (* VM exceptions are safe *)
          | exception Jvm.Vmstate.Budget_exhausted -> true
          | exception Jvm.Vmstate.Runtime_fault msg ->
            QCheck.Test.fail_reportf "verified code faulted: %s" msg)))

(* A generator of *structured* well-typed programs — nested loops,
   branches, calls, arrays, object construction — built from typed
   fragments with net stack effect zero. Unlike the random generator
   above, every output must verify; and running the verifier's rewrite
   must preserve the program's result. *)
let gen_structured_program =
  let open QCheck.Gen in
  let fresh =
    let k = ref 0 in
    fun () ->
      incr k;
      Printf.sprintf "L%d" !k
  in
  (* Each fragment leaves the stack empty and scrambles int local 0.
     Sub-generators are constructed under the depth guard: building
     them eagerly would recurse without bound. *)
  let arith =
    let* k = int_range 1 50 in
    let* op = oneofl [ B.Add; B.Sub; B.Mul; B.Xor ] in
    return [ B.Iload 0; B.Const k; op; B.Istore 0 ]
  in
  let rec fragment depth =
    if depth <= 0 then arith
    else
    let branch =
      let* inner = fragment (depth - 1) in
      let* other = fragment (depth - 1) in
      let l_else = fresh () and l_end = fresh () in
      return
        ([ B.Iload 0; B.If_z (I.Lt, l_else) ]
        @ inner
        @ [ B.Goto l_end; B.Label l_else ]
        @ other
        @ [ B.Label l_end ])
    in
    let loop =
      let* inner = fragment (depth - 1) in
      let* count = int_range 1 4 in
      let top = fresh () and done_ = fresh () in
      return
        ([ B.Const count; B.Istore 1; B.Label top; B.Iload 1;
           B.If_z (I.Le, done_) ]
        @ inner
        @ [ B.Inc (1, -1); B.Goto top; B.Label done_ ])
    in
    let call =
      return
        [
          B.Iload 0;
          B.Invokestatic ("java/lang/String", "valueOf", "(I)Ljava/lang/String;");
          B.Invokevirtual ("java/lang/String", "hashCode", "()I");
          B.Const 1023;
          B.And;
          B.Istore 0;
        ]
    in
    let arrays =
      let* len = int_range 1 8 in
      return
        [
          B.Const len;
          B.Newarray;
          B.Astore 2;
          B.Aload 2;
          B.Const 0;
          B.Iload 0;
          B.Iastore;
          B.Aload 2;
          B.Const 0;
          B.Iaload;
          B.Aload 2;
          B.Arraylength;
          B.Add;
          B.Istore 0;
        ]
    in
    let construct =
      return
        [
          B.New "java/lang/Object";
          B.Dup;
          B.Invokespecial ("java/lang/Object", "<init>", "()V");
          B.Invokevirtual ("java/lang/Object", "hashCode", "()I");
          B.Const 255;
          B.And;
          B.Iload 0;
          B.Add;
          B.Istore 0;
        ]
    in
    let* parts =
      list_size (int_range 1 3)
        (oneof [ arith; branch; loop; call; arrays; construct ])
    in
    return (List.concat parts)
  in
  let* depth = int_range 0 2 in
  let* body = fragment depth in
  return ([ B.Iload 0; B.Istore 0 ] @ body @ [ B.Iload 0; B.Ireturn ])

let prop_structured_always_verifies =
  QCheck.Test.make ~name:"structured well-typed programs always verify"
    ~count:100
    (QCheck.make gen_structured_program)
    (fun body ->
      let cls = B.class_ "Gen" [ B.meth ~flags:static "f" "(I)I" body ] in
      match SV.verify ~oracle:boot_oracle cls with
      | SV.Verified (cls', _) -> (
        (* and the (possibly rewritten) program still runs to the same
           result as the original *)
        let run cls =
          let vm = Jvm.Bootlib.fresh_vm ~budget:500_000L () in
          ignore (Verifier.Rt_verifier.install vm);
          Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
          match
            Jvm.Interp.invoke vm ~cls:"Gen" ~name:"f" ~desc:"(I)I"
              [ V.Int 37l ]
          with
          | Some (V.Int r) -> Some r
          | _ -> None
          | exception Jvm.Vmstate.Throw _ -> None
        in
        match (run cls, run cls') with
        | Some a, Some b -> Int32.equal a b
        | None, None -> true
        | _ -> false)
      | SV.Rejected (errors, _) ->
        QCheck.Test.fail_reportf "well-typed program rejected: %s"
          (String.concat "; " (List.map Verifier.Verror.to_string errors)))

(* Mutation soundness: corrupt encoded bytes; anything that still
   decodes and verifies must not fault the interpreter. *)
let prop_mutation_soundness =
  QCheck.Test.make ~name:"mutated classes: decode+verify => no fault"
    ~count:300
    (QCheck.pair (QCheck.make gen_random_program) (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (body, (pos_seed, byte_seed)) ->
      match B.class_ "Mut" [ B.meth ~flags:static "f" "()I" body ] with
      | exception _ -> true
      | cls -> (
        let bytes = Bytes.of_string (Bytecode.Encode.class_to_bytes cls) in
        let pos = pos_seed mod Bytes.length bytes in
        Bytes.set_uint8 bytes pos (byte_seed land 0xff);
        match Bytecode.Decode.class_of_bytes (Bytes.to_string bytes) with
        | exception Bytecode.Decode.Format_error _ -> true
        | mutated when not (String.equal mutated.CF.name "Mut") -> true
        | mutated -> (
          match SV.verify ~oracle:boot_oracle mutated with
          | SV.Rejected _ -> true
          | SV.Verified (cls', _) -> (
            let vm = Jvm.Bootlib.fresh_vm ~budget:200_000L () in
            ignore (Verifier.Rt_verifier.install vm);
            Jvm.Classreg.register vm.Jvm.Vmstate.reg cls';
            match Jvm.Interp.invoke vm ~cls:"Mut" ~name:"f" ~desc:"()I" [] with
            | _ -> true
            | exception Jvm.Vmstate.Throw _ -> true
            | exception Jvm.Vmstate.Budget_exhausted -> true
            | exception Jvm.Vmstate.Runtime_fault msg ->
              QCheck.Test.fail_reportf "mutant passed verification but faulted: %s"
                msg))))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_merge_idempotent;
        prop_merge_commutative;
        prop_merge_associative;
        prop_merge_upper_bound;
        prop_verified_never_faults;
        prop_structured_always_verifies;
        prop_mutation_soundness;
      ]
  in
  Alcotest.run "verifier"
    [
      ( "accepts",
        [
          Alcotest.test_case "hello world" `Quick test_accepts_hello;
          Alcotest.test_case "loops and exceptions" `Quick
            test_accepts_loops_and_exceptions;
          Alcotest.test_case "object construction" `Quick
            test_accepts_object_construction;
          Alcotest.test_case "jsr/ret" `Quick test_accepts_jsr_ret;
          Alcotest.test_case "two subroutines" `Quick
            test_accepts_two_subroutines;
          Alcotest.test_case "nested subroutine" `Quick
            test_accepts_nested_subroutine;
          Alcotest.test_case "jsr in protected range" `Quick
            test_accepts_jsr_in_protected_range;
          Alcotest.test_case "field init before super" `Quick
            test_accepts_field_init_before_super;
          Alcotest.test_case "interface call" `Quick test_accepts_interface_call;
        ] );
      ( "reflect",
        [
          Alcotest.test_case "roundtrip" `Quick test_reflect_roundtrip;
          Alcotest.test_case "annotate/read" `Quick
            test_reflect_annotate_and_read;
          Alcotest.test_case "fast oracle equivalent" `Quick
            test_reflect_fast_oracle_equivalent;
          Alcotest.test_case "survives the wire" `Quick
            test_reflect_attribute_survives_wire;
        ] );
      ( "rejects",
        [
          Alcotest.test_case "stack underflow" `Quick test_rejects_underflow;
          Alcotest.test_case "type confusion" `Quick test_rejects_type_confusion;
          Alcotest.test_case "int as reference" `Quick test_rejects_int_as_ref;
          Alcotest.test_case "wrong return" `Quick test_rejects_wrong_return;
          Alcotest.test_case "merge height mismatch" `Quick
            test_rejects_merge_height_mismatch;
          Alcotest.test_case "uninitialized use" `Quick
            test_rejects_uninitialized_use;
          Alcotest.test_case "falls off end" `Quick test_rejects_falls_off_end;
          Alcotest.test_case "bad field type" `Quick test_rejects_bad_field_type;
          Alcotest.test_case "missing member" `Quick
            test_rejects_missing_member_of_known_class;
          Alcotest.test_case "wrong arg type" `Quick test_rejects_wrong_arg_type;
          Alcotest.test_case "stack beyond declared" `Quick
            test_rejects_stack_overflow_beyond_declared;
          Alcotest.test_case "duplicate method" `Quick
            test_rejects_duplicate_method;
          Alcotest.test_case "non-implementor as interface" `Quick
            test_rejects_non_implementor_as_interface;
          Alcotest.test_case "private access enforced" `Quick
            test_private_access_enforced;
          Alcotest.test_case "ret via non-retaddr" `Quick
            test_rejects_ret_via_non_retaddr;
          Alcotest.test_case "backward-branch stack growth" `Quick
            test_rejects_backward_branch_stack_growth;
          Alcotest.test_case "retaddr arithmetic" `Quick
            test_rejects_retaddr_arithmetic;
          Alcotest.test_case "ret of merged retaddrs" `Quick
            test_rejects_ret_of_merged_retaddrs;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "unknown class -> assumption" `Quick
            test_unknown_class_becomes_assumption;
          Alcotest.test_case "self-verifying ok" `Quick
            test_self_verifying_runs_when_assumption_holds;
          Alcotest.test_case "broken assumption" `Quick
            test_self_verifying_fails_when_assumption_broken;
          Alcotest.test_case "descriptor mismatch" `Quick
            test_self_verifying_fails_on_descriptor_mismatch;
          Alcotest.test_case "class-wide at clinit" `Quick
            test_class_wide_assumption_checked_at_clinit;
          Alcotest.test_case "error class propagates" `Quick
            test_error_class_propagates;
          Alcotest.test_case "filter rejects" `Quick test_filter_rejects_via_exception;
          Alcotest.test_case "rewrite preserves output" `Quick
            test_rewrite_preserves_output;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "checks per app" `Quick test_pin_workload_checks;
          Alcotest.test_case "served digest" `Quick test_pin_served_bytes;
        ] );
      ("properties", props);
    ]
