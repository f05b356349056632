(* Tests for the JVM runtime: interpreter semantics, exceptions,
   dispatch, class loading/initialization, natives, faults on
   unverified-style code. *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile
module I = Bytecode.Instr
module V = Jvm.Value

let check = Alcotest.check
let fail = Alcotest.fail

let static = [ CF.Public; CF.Static ]

(* Build a VM with the given extra classes registered directly. *)
let vm_with classes =
  let vm = Jvm.Bootlib.fresh_vm () in
  List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg) classes;
  vm

let run_main_expect_output classes entry expected =
  let vm = vm_with classes in
  (match Jvm.Interp.run_main vm entry with
  | Ok () -> ()
  | Error e -> fail ("uncaught: " ^ Jvm.Interp.describe_throwable e));
  check Alcotest.string "output" expected (Jvm.Vmstate.output vm)

let call_static vm cls name desc args = Jvm.Interp.invoke vm ~cls ~name ~desc args

(* --- Basics. --- *)

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

let test_hello () = run_main_expect_output [ hello_cls ] "Hello" "hello world\n"

let gcd_cls =
  B.class_ "Gcd"
    [
      B.meth ~flags:static "gcd" "(II)I"
        [
          B.Label "top";
          B.Iload 1;
          B.If_z (I.Eq, "done");
          B.Iload 0;
          B.Iload 1;
          B.Rem;
          B.Iload 1;
          B.Istore 0;
          B.Istore 1;
          B.Goto "top";
          B.Label "done";
          B.Iload 0;
          B.Ireturn;
        ];
    ]

let test_gcd () =
  let vm = vm_with [ gcd_cls ] in
  match call_static vm "Gcd" "gcd" "(II)I" [ V.Int 252l; V.Int 105l ] with
  | Some (V.Int 21l) -> ()
  | r ->
    fail
      (match r with
      | Some v -> "got " ^ V.to_string v
      | None -> "got nothing")

let test_arithmetic_ops () =
  let body ops = B.meth ~flags:static "f" "()I" (ops @ [ B.Ireturn ]) in
  let expect name ops result =
    let cls = B.class_ ("Arith" ^ name) [ body ops ] in
    let vm = vm_with [ cls ] in
    match call_static vm ("Arith" ^ name) "f" "()I" [] with
    | Some (V.Int n) -> check Alcotest.int32 name result n
    | _ -> fail name
  in
  expect "add" [ B.Const 2; B.Const 3; B.Add ] 5l;
  expect "sub" [ B.Const 2; B.Const 3; B.Sub ] (-1l);
  expect "mul" [ B.Const (-4); B.Const 3; B.Mul ] (-12l);
  expect "div" [ B.Const 7; B.Const 2; B.Div ] 3l;
  expect "rem" [ B.Const 7; B.Const 2; B.Rem ] 1l;
  expect "neg" [ B.Const 9; B.Neg ] (-9l);
  expect "shl" [ B.Const 1; B.Const 4; B.Shl ] 16l;
  expect "shr" [ B.Const (-16); B.Const 2; B.Shr ] (-4l);
  expect "and" [ B.Const 12; B.Const 10; B.And ] 8l;
  expect "or" [ B.Const 12; B.Const 10; B.Or ] 14l;
  expect "xor" [ B.Const 12; B.Const 10; B.Xor ] 6l;
  expect "swap" [ B.Const 1; B.Const 2; B.Swap; B.Sub ] 1l;
  expect "dup_x1" [ B.Const 5; B.Const 3; B.Dup_x1; B.Add; B.Add ] 11l

let test_int32_wraparound () =
  let cls =
    B.class_ "Wrap"
      [
        B.meth ~flags:static "f" "()I"
          [ B.Const 2147483647; B.Const 1; B.Add; B.Ireturn ];
      ]
  in
  let vm = vm_with [ cls ] in
  match call_static vm "Wrap" "f" "()I" [] with
  | Some (V.Int n) -> check Alcotest.int32 "wraps" Int32.min_int n
  | _ -> fail "no result"

let test_tableswitch () =
  let cls =
    B.class_ "Sw"
      [
        B.meth ~flags:static "f" "(I)I"
          [
            B.Iload 0;
            B.Switch (10, [ "a"; "b"; "c" ], "d");
            B.Label "a";
            B.Const 1;
            B.Ireturn;
            B.Label "b";
            B.Const 2;
            B.Ireturn;
            B.Label "c";
            B.Const 3;
            B.Ireturn;
            B.Label "d";
            B.Const 0;
            B.Ireturn;
          ];
      ]
  in
  let vm = vm_with [ cls ] in
  let f n =
    match call_static vm "Sw" "f" "(I)I" [ V.Int (Int32.of_int n) ] with
    | Some (V.Int r) -> Int32.to_int r
    | _ -> fail "no result"
  in
  check Alcotest.int "10" 1 (f 10);
  check Alcotest.int "11" 2 (f 11);
  check Alcotest.int "12" 3 (f 12);
  check Alcotest.int "9" 0 (f 9);
  check Alcotest.int "13" 0 (f 13)

let test_jsr_ret () =
  (* A subroutine called from two sites, as javac's try/finally once
     compiled. *)
  let cls =
    B.class_ "JsrDemo"
      [
        B.meth ~flags:static "f" "(I)I"
          [
            B.Const 0;
            B.Istore 1;
            B.Iload 0;
            B.If_z (I.Eq, "second");
            B.Jsr "sub";
            B.Goto "out";
            B.Label "second";
            B.Jsr "sub";
            B.Jsr "sub";
            B.Label "out";
            B.Iload 1;
            B.Ireturn;
            B.Label "sub";
            B.Astore 2;
            B.Inc (1, 10);
            B.Ret 2;
          ];
      ]
  in
  let vm = vm_with [ cls ] in
  let f n =
    match call_static vm "JsrDemo" "f" "(I)I" [ V.Int (Int32.of_int n) ] with
    | Some (V.Int r) -> Int32.to_int r
    | _ -> fail "no result"
  in
  check Alcotest.int "one call" 10 (f 1);
  check Alcotest.int "two calls" 20 (f 0)

(* --- Objects, dispatch, fields. --- *)

let animal_classes =
  [
    B.class_ "Animal"
      [
        B.default_init "java/lang/Object";
        B.meth "speak" "()Ljava/lang/String;" [ B.Push_str "..."; B.Areturn ];
        B.meth "describe" "()Ljava/lang/String;"
          [
            (* virtual call through this: subclasses override speak *)
            B.Aload 0;
            B.Invokevirtual ("Animal", "speak", "()Ljava/lang/String;");
            B.Areturn;
          ];
      ];
    B.class_ "Dog" ~super:"Animal"
      [
        B.default_init "Animal";
        B.meth "speak" "()Ljava/lang/String;" [ B.Push_str "woof"; B.Areturn ];
      ];
    B.class_ "Cat" ~super:"Animal"
      [
        B.default_init "Animal";
        B.meth "speak" "()Ljava/lang/String;" [ B.Push_str "meow"; B.Areturn ];
      ];
    B.class_ "Kennel"
      [
        B.meth ~flags:static "main" "()V"
          [
            B.New "Dog";
            B.Dup;
            B.Invokespecial ("Dog", "<init>", "()V");
            B.Invokevirtual ("Animal", "describe", "()Ljava/lang/String;");
            B.Astore 0;
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Aload 0;
            B.Invokevirtual
              ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
            B.New "Cat";
            B.Dup;
            B.Invokespecial ("Cat", "<init>", "()V");
            B.Invokevirtual ("Animal", "describe", "()Ljava/lang/String;");
            B.Astore 0;
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Aload 0;
            B.Invokevirtual
              ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
            B.Return;
          ];
      ];
  ]

let test_virtual_dispatch () =
  run_main_expect_output animal_classes "Kennel" "woof\nmeow\n"

let counter_cls =
  B.class_ "Counter"
    ~fields:[ B.field "n" "I" ]
    [
      B.default_init "java/lang/Object";
      B.meth "bump" "()V"
        [
          B.Aload 0;
          B.Aload 0;
          B.Getfield ("Counter", "n", "I");
          B.Const 1;
          B.Add;
          B.Putfield ("Counter", "n", "I");
          B.Return;
        ];
      B.meth "get" "()I"
        [ B.Aload 0; B.Getfield ("Counter", "n", "I"); B.Ireturn ];
    ]

let test_instance_fields () =
  let vm = vm_with [ counter_cls ] in
  let o =
    Jvm.Heap.alloc_obj vm.Jvm.Vmstate.heap ~cls:"Counter"
      ~field_descs:[ ("n", "I") ]
  in
  let recv = V.Obj o in
  for _ = 1 to 5 do
    ignore (Jvm.Interp.invoke vm ~cls:"Counter" ~name:"bump" ~desc:"()V" [ recv ])
  done;
  match Jvm.Interp.invoke vm ~cls:"Counter" ~name:"get" ~desc:"()I" [ recv ] with
  | Some (V.Int 5l) -> ()
  | _ -> fail "field count wrong"

let test_clinit_runs_once () =
  let cls =
    B.class_ "WithInit"
      ~fields:[ B.field ~flags:static "k" "I" ]
      [
        B.meth ~flags:static "<clinit>" "()V"
          [
            B.Getstatic ("WithInit", "k", "I");
            B.Const 7;
            B.Add;
            B.Putstatic ("WithInit", "k", "I");
            B.Return;
          ];
        B.meth ~flags:static "get" "()I"
          [ B.Getstatic ("WithInit", "k", "I"); B.Ireturn ];
      ]
  in
  let vm = vm_with [ cls ] in
  let get () =
    match call_static vm "WithInit" "get" "()I" [] with
    | Some (V.Int n) -> Int32.to_int n
    | _ -> fail "no result"
  in
  check Alcotest.int "first" 7 (get ());
  check Alcotest.int "second (no re-init)" 7 (get ())

let test_inherited_fields_visible () =
  let classes =
    [
      B.class_ "Base" ~fields:[ B.field "x" "I" ] [ B.default_init "java/lang/Object" ];
      B.class_ "Derived" ~super:"Base"
        [
          B.default_init "Base";
          B.meth "setX" "(I)V"
            [ B.Aload 0; B.Iload 1; B.Putfield ("Base", "x", "I"); B.Return ];
          B.meth "getX" "()I"
            [ B.Aload 0; B.Getfield ("Base", "x", "I"); B.Ireturn ];
        ];
    ]
  in
  let vm = vm_with classes in
  let fields = Jvm.Classreg.all_instance_fields vm.Jvm.Vmstate.reg "Derived" in
  let o = Jvm.Heap.alloc_obj vm.Jvm.Vmstate.heap ~cls:"Derived" ~field_descs:fields in
  ignore
    (Jvm.Interp.invoke vm ~cls:"Derived" ~name:"setX" ~desc:"(I)V"
       [ V.Obj o; V.Int 33l ]);
  match Jvm.Interp.invoke vm ~cls:"Derived" ~name:"getX" ~desc:"()I" [ V.Obj o ] with
  | Some (V.Int 33l) -> ()
  | _ -> fail "inherited field broken"

let speaker_iface =
  B.class_ ~flags:[ CF.Public; CF.Abstract ] "Speaker"
    [ B.abstract_meth "speak" "()Ljava/lang/String;" ]

let test_interface_dispatch () =
  let duck =
    B.class_ "Duck" ~interfaces:[ "Speaker" ]
      [
        B.default_init "java/lang/Object";
        B.meth "speak" "()Ljava/lang/String;" [ B.Push_str "quack"; B.Areturn ];
      ]
  in
  let caller =
    B.class_ "Pond"
      [
        B.meth ~flags:static "main" "()V"
          [
            B.New "Duck";
            B.Dup;
            B.Invokespecial ("Duck", "<init>", "()V");
            B.Astore 0;
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Aload 0;
            B.Invokeinterface ("Speaker", "speak", "()Ljava/lang/String;");
            B.Invokevirtual
              ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
            B.Return;
          ];
      ]
  in
  run_main_expect_output [ speaker_iface; duck; caller ] "Pond" "quack\n";
  (* instanceof through the interface *)
  let vm = vm_with [ speaker_iface; duck ] in
  check Alcotest.bool "Duck <= Speaker" true
    (Jvm.Classreg.is_subclass vm.Jvm.Vmstate.reg ~sub:"Duck" ~super:"Speaker")

(* --- Arrays. --- *)

let test_arrays () =
  let cls =
    B.class_ "Arr"
      [
        B.meth ~flags:static "sum" "(I)I"
          [
            (* arr = new int[n]; fill arr[i] = i; sum it *)
            B.Iload 0;
            B.Newarray;
            B.Astore 1;
            B.Const 0;
            B.Istore 2;
            B.Label "fill";
            B.Iload 2;
            B.Iload 0;
            B.If_icmp (I.Ge, "sumstart");
            B.Aload 1;
            B.Iload 2;
            B.Iload 2;
            B.Iastore;
            B.Inc (2, 1);
            B.Goto "fill";
            B.Label "sumstart";
            B.Const 0;
            B.Istore 3;
            B.Const 0;
            B.Istore 2;
            B.Label "sum";
            B.Iload 2;
            B.Aload 1;
            B.Arraylength;
            B.If_icmp (I.Ge, "done");
            B.Iload 3;
            B.Aload 1;
            B.Iload 2;
            B.Iaload;
            B.Add;
            B.Istore 3;
            B.Inc (2, 1);
            B.Goto "sum";
            B.Label "done";
            B.Iload 3;
            B.Ireturn;
          ];
      ]
  in
  let vm = vm_with [ cls ] in
  match call_static vm "Arr" "sum" "(I)I" [ V.Int 10l ] with
  | Some (V.Int 45l) -> ()
  | Some v -> fail ("got " ^ V.to_string v)
  | None -> fail "no result"

let expect_throw vm cls name desc args exn_cls =
  match Jvm.Interp.invoke vm ~cls ~name ~desc args with
  | _ -> fail ("expected " ^ exn_cls)
  | exception Jvm.Vmstate.Throw v ->
    check Alcotest.string "exception class" exn_cls (V.class_of v)

let test_array_bounds () =
  let cls =
    B.class_ "Oob"
      [
        B.meth ~flags:static "f" "()I"
          [ B.Const 3; B.Newarray; B.Const 5; B.Iaload; B.Ireturn ];
        B.meth ~flags:static "neg" "()V"
          [ B.Const (-1); B.Newarray; B.Pop; B.Return ];
      ]
  in
  let vm = vm_with [ cls ] in
  expect_throw vm "Oob" "f" "()I" [] "java/lang/ArrayIndexOutOfBoundsException";
  expect_throw vm "Oob" "neg" "()V" [] "java/lang/NegativeArraySizeException"

(* --- Exceptions. --- *)

let test_throw_catch () =
  let cls =
    B.class_ "TC"
      [
        B.meth ~flags:static "main" "()V"
          ~handlers:[ ("try", "end", "catch", Some "java/lang/Exception") ]
          [
            B.Label "try";
            B.New "java/lang/Exception";
            B.Dup;
            B.Push_str "boom";
            B.Invokespecial
              ("java/lang/Exception", "<init>", "(Ljava/lang/String;)V");
            B.Athrow;
            B.Label "end";
            B.Return;
            B.Label "catch";
            B.Invokevirtual
              ("java/lang/Throwable", "getMessage", "()Ljava/lang/String;");
            B.Astore 0;
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Aload 0;
            B.Invokevirtual
              ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
            B.Return;
          ];
      ]
  in
  run_main_expect_output [ cls ] "TC" "boom\n"

let test_catch_subtype_only () =
  (* Handler for ArithmeticException must not catch NPE. *)
  let cls =
    B.class_ "Sel"
      [
        B.meth ~flags:static "f" "()V"
          ~handlers:
            [ ("try", "end", "catch", Some "java/lang/ArithmeticException") ]
          [
            B.Label "try";
            B.Null;
            B.Getfield ("Counter", "n", "I");
            B.Pop;
            B.Label "end";
            B.Return;
            B.Label "catch";
            B.Pop;
            B.Return;
          ];
      ]
  in
  let vm = vm_with [ cls; counter_cls ] in
  expect_throw vm "Sel" "f" "()V" [] "java/lang/NullPointerException"

let test_exception_unwinds_frames () =
  let classes =
    [
      B.class_ "Deep"
        [
          B.meth ~flags:static "inner" "()V"
            [ B.Const 1; B.Const 0; B.Div; B.Pop; B.Return ];
          B.meth ~flags:static "middle" "()V"
            [ B.Invokestatic ("Deep", "inner", "()V"); B.Return ];
          B.meth ~flags:static "outer" "()I"
            ~handlers:[ ("try", "end", "catch", None) ]
            [
              B.Label "try";
              B.Invokestatic ("Deep", "middle", "()V");
              B.Label "end";
              B.Const 0;
              B.Ireturn;
              B.Label "catch";
              B.Pop;
              B.Const 99;
              B.Ireturn;
            ];
        ];
    ]
  in
  let vm = vm_with classes in
  match call_static vm "Deep" "outer" "()I" [] with
  | Some (V.Int 99l) -> ()
  | _ -> fail "handler in outer frame did not catch"

let test_div_by_zero_uncaught () =
  let cls =
    B.class_ "Dz"
      [
        B.meth ~flags:static "f" "()I" [ B.Const 1; B.Const 0; B.Div; B.Ireturn ];
        B.meth ~flags:static "g" "()I" [ B.Const 1; B.Const 0; B.Rem; B.Ireturn ];
      ]
  in
  let vm = vm_with [ cls ] in
  expect_throw vm "Dz" "f" "()I" [] "java/lang/ArithmeticException";
  expect_throw vm "Dz" "g" "()I" [] "java/lang/ArithmeticException"

let test_checkcast_instanceof () =
  let vm = vm_with animal_classes in
  let mk cls =
    let o = Jvm.Heap.alloc_obj vm.Jvm.Vmstate.heap ~cls ~field_descs:[] in
    V.Obj o
  in
  let reg = vm.Jvm.Vmstate.reg in
  check Alcotest.bool "Dog <= Animal" true
    (Jvm.Classreg.is_subclass reg ~sub:"Dog" ~super:"Animal");
  check Alcotest.bool "Dog <= Object" true
    (Jvm.Classreg.is_subclass reg ~sub:"Dog" ~super:"java/lang/Object");
  check Alcotest.bool "Animal not <= Dog" false
    (Jvm.Classreg.is_subclass reg ~sub:"Animal" ~super:"Dog");
  check Alcotest.bool "Cat not <= Dog" false
    (Jvm.Classreg.is_subclass reg ~sub:"Cat" ~super:"Dog");
  ignore (mk "Dog");
  (* checkcast failure through bytecode *)
  let cls =
    B.class_ "CastFail"
      [
        B.meth ~flags:static "f" "()V"
          [
            B.New "Cat";
            B.Dup;
            B.Invokespecial ("Cat", "<init>", "()V");
            B.Checkcast "Dog";
            B.Pop;
            B.Return;
          ];
      ]
  in
  Jvm.Classreg.register reg cls;
  expect_throw vm "CastFail" "f" "()V" [] "java/lang/ClassCastException"

let test_stack_overflow () =
  let cls =
    B.class_ "Rec"
      [
        B.meth ~flags:static "f" "()V"
          [ B.Invokestatic ("Rec", "f", "()V"); B.Return ];
      ]
  in
  let vm = vm_with [ cls ] in
  expect_throw vm "Rec" "f" "()V" [] "java/lang/StackOverflowError"

(* --- Class loading. --- *)

let test_provider_loading () =
  let lib_cls =
    B.class_ "Lib"
      [ B.meth ~flags:static "answer" "()I" [ B.Const 42; B.Ireturn ] ]
  in
  let bytes = Bytecode.Encode.class_to_bytes lib_cls in
  let requested = ref [] in
  let provider name =
    requested := name :: !requested;
    if name = "Lib" then Some bytes else None
  in
  let vm = Jvm.Bootlib.fresh_vm ~provider () in
  let user =
    B.class_ "User"
      [
        B.meth ~flags:static "f" "()I"
          [ B.Invokestatic ("Lib", "answer", "()I"); B.Ireturn ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg user;
  (match call_static vm "User" "f" "()I" [] with
  | Some (V.Int 42l) -> ()
  | _ -> fail "provider class not used");
  check Alcotest.bool "Lib requested" true (List.mem "Lib" !requested);
  check Alcotest.int "bytes accounted" (String.length bytes)
    vm.Jvm.Vmstate.reg.Jvm.Classreg.bytes_fetched

let test_missing_class () =
  let vm = Jvm.Bootlib.fresh_vm () in
  let user =
    B.class_ "User2"
      [
        B.meth ~flags:static "f" "()V"
          [ B.Invokestatic ("Nowhere", "g", "()V"); B.Return ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg user;
  expect_throw vm "User2" "f" "()V" [] "java/lang/NoClassDefFoundError"

let test_on_load_hook_rejects () =
  let evil =
    B.class_ "Evil" [ B.meth ~flags:static "f" "()V" [ B.Return ] ]
  in
  let bytes = Bytecode.Encode.class_to_bytes evil in
  let provider name = if name = "Evil" then Some bytes else None in
  let vm = Jvm.Bootlib.fresh_vm ~provider () in
  Jvm.Classreg.set_on_load vm.Jvm.Vmstate.reg (fun cf ->
      raise
        (Jvm.Classreg.Load_rejected
           { cls = cf.CF.name; reason = "rejected by local policy" }));
  let user =
    B.class_ "User3"
      [
        B.meth ~flags:static "f" "()V"
          [ B.Invokestatic ("Evil", "f", "()V"); B.Return ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg user;
  expect_throw vm "User3" "f" "()V" [] "java/lang/VerifyError"

(* --- Natives. --- *)

let test_string_natives () =
  let cls =
    B.class_ "Str"
      [
        B.meth ~flags:static "f" "()Ljava/lang/String;"
          [
            B.Push_str "abc";
            B.Push_str "def";
            B.Invokevirtual
              ( "java/lang/String",
                "concat",
                "(Ljava/lang/String;)Ljava/lang/String;" );
            B.Const 1;
            B.Const 5;
            B.Invokevirtual ("java/lang/String", "substring", "(II)Ljava/lang/String;");
            B.Areturn;
          ];
      ]
  in
  let vm = vm_with [ cls ] in
  match call_static vm "Str" "f" "()Ljava/lang/String;" [] with
  | Some (V.Str "bcde") -> ()
  | Some v -> fail ("got " ^ V.to_string v)
  | None -> fail "no result"

let test_properties_and_files () =
  let vm = Jvm.Bootlib.fresh_vm () in
  Hashtbl.replace vm.Jvm.Vmstate.props "user.name" "egs";
  Hashtbl.replace vm.Jvm.Vmstate.files "/etc/passwd" "root:x";
  let cls =
    B.class_ "PF"
      [
        B.meth ~flags:static "prop" "()Ljava/lang/String;"
          [
            B.Push_str "user.name";
            B.Invokestatic
              ( "java/lang/System",
                "getProperty",
                "(Ljava/lang/String;)Ljava/lang/String;" );
            B.Areturn;
          ];
        B.meth ~flags:static "readByte" "()I"
          [
            B.New "java/io/FileInputStream";
            B.Dup;
            B.Push_str "/etc/passwd";
            B.Invokespecial
              ("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V");
            B.Invokevirtual ("java/io/FileInputStream", "read", "()I");
            B.Ireturn;
          ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
  (match call_static vm "PF" "prop" "()Ljava/lang/String;" [] with
  | Some (V.Str "egs") -> ()
  | _ -> fail "property");
  match call_static vm "PF" "readByte" "()I" [] with
  | Some (V.Int n) -> check Alcotest.int32 "first byte" (Int32.of_int (Char.code 'r')) n
  | _ -> fail "read"

let test_security_hook_invoked () =
  let vm = Jvm.Bootlib.fresh_vm () in
  let ops = ref [] in
  vm.Jvm.Vmstate.security_hook <- Some (fun op -> ops := op :: !ops);
  Hashtbl.replace vm.Jvm.Vmstate.props "k" "v";
  let cls =
    B.class_ "Sec"
      [
        B.meth ~flags:static "f" "()V"
          [
            B.Push_str "k";
            B.Invokestatic
              ( "java/lang/System",
                "getProperty",
                "(Ljava/lang/String;)Ljava/lang/String;" );
            B.Pop;
            B.Return;
          ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
  ignore (call_static vm "Sec" "f" "()V" []);
  check (Alcotest.list Alcotest.string) "hook saw op" [ "property.get" ] !ops

let test_security_hook_denies () =
  let vm = Jvm.Bootlib.fresh_vm () in
  vm.Jvm.Vmstate.security_hook <-
    Some (fun op -> Jvm.Vmstate.throw vm ~cls:Jvm.Vmstate.c_security ~message:op);
  Hashtbl.replace vm.Jvm.Vmstate.files "/secret" "s3cret";
  let cls =
    B.class_ "Sec2"
      [
        B.meth ~flags:static "f" "()V"
          [
            B.New "java/io/FileInputStream";
            B.Dup;
            B.Push_str "/secret";
            B.Invokespecial
              ("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V");
            B.Pop;
            B.Return;
          ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
  expect_throw vm "Sec2" "f" "()V" [] "java/lang/SecurityException"

let test_math_integer_stringbuilder () =
  let vm = Jvm.Bootlib.fresh_vm () in
  let cls =
    B.class_ "Lib"
      [
        B.meth ~flags:static "m" "()I"
          [
            B.Const (-5);
            B.Invokestatic ("java/lang/Math", "abs", "(I)I");
            B.Const 3;
            B.Invokestatic ("java/lang/Math", "max", "(II)I");
            B.Const 2;
            B.Invokestatic ("java/lang/Math", "min", "(II)I");
            B.Ireturn;
          ];
        B.meth ~flags:static "p" "()I"
          [
            B.Push_str " 42 ";
            B.Invokestatic ("java/lang/Integer", "parseInt", "(Ljava/lang/String;)I");
            B.Ireturn;
          ];
        B.meth ~flags:static "bad" "()I"
          [
            B.Push_str "nope";
            B.Invokestatic ("java/lang/Integer", "parseInt", "(Ljava/lang/String;)I");
            B.Ireturn;
          ];
        B.meth ~flags:static "sb" "()Ljava/lang/String;"
          [
            B.New "java/lang/StringBuilder";
            B.Dup;
            B.Invokespecial ("java/lang/StringBuilder", "<init>", "()V");
            B.Push_str "n=";
            B.Invokevirtual
              ( "java/lang/StringBuilder",
                "append",
                "(Ljava/lang/String;)Ljava/lang/StringBuilder;" );
            B.Const 7;
            B.Invokevirtual
              ("java/lang/StringBuilder", "appendInt", "(I)Ljava/lang/StringBuilder;");
            B.Invokevirtual
              ("java/lang/StringBuilder", "toString", "()Ljava/lang/String;");
            B.Areturn;
          ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
  (match call_static vm "Lib" "m" "()I" [] with
  | Some (V.Int 2l) -> ()
  | _ -> fail "math chain");
  (match call_static vm "Lib" "p" "()I" [] with
  | Some (V.Int 42l) -> ()
  | _ -> fail "parseInt");
  expect_throw vm "Lib" "bad" "()I" [] "java/lang/NumberFormatException";
  match call_static vm "Lib" "sb" "()Ljava/lang/String;" [] with
  | Some (V.Str "n=7") -> ()
  | Some v -> fail ("stringbuilder: " ^ V.to_string v)
  | None -> fail "stringbuilder: no result"

let test_random_lcg () =
  let vm = Jvm.Bootlib.fresh_vm () in
  let cls =
    B.class_ "R"
      [
        B.meth ~flags:static "f" "(I)I"
          [
            B.New "java/util/Random";
            B.Dup;
            B.Const 12345;
            B.Invokespecial ("java/util/Random", "<init>", "(I)V");
            B.Astore 1;
            B.Aload 1;
            B.Iload 0;
            B.Invokevirtual ("java/util/Random", "next", "(I)I");
            B.Ireturn;
          ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
  for bound = 1 to 20 do
    match call_static vm "R" "f" "(I)I" [ V.Int (Int32.of_int bound) ] with
    | Some (V.Int n) ->
      let n = Int32.to_int n in
      check Alcotest.bool
        (Printf.sprintf "0 <= %d < %d" n bound)
        true
        (n >= 0 && n < bound)
    | _ -> fail "no result"
  done

(* --- Garbage collection. --- *)

let test_gc_reachability () =
  let keeper =
    B.class_ "Keeper"
      ~fields:[ B.field ~flags:static "kept" "Ljava/lang/Object;" ]
      [
        (* allocate two objects; store one in a static, drop the other *)
        B.meth ~flags:static "churn" "()V"
          [
            B.New "java/lang/Object";
            B.Dup;
            B.Invokespecial ("java/lang/Object", "<init>", "()V");
            B.Putstatic ("Keeper", "kept", "Ljava/lang/Object;");
            B.New "java/lang/Object";
            B.Dup;
            B.Invokespecial ("java/lang/Object", "<init>", "()V");
            B.Pop;
            B.Return;
          ];
      ]
  in
  let vm = vm_with [ keeper ] in
  ignore (call_static vm "Keeper" "churn" "()V" []);
  let before = vm.Jvm.Vmstate.heap.Jvm.Heap.objects_allocated in
  check Alcotest.bool "allocated at least 2" true (before >= 2);
  let st = Jvm.Gc.collect vm in
  (* one object survives through the static root, one-plus dies
     (System.out's stream object also survives) *)
  check Alcotest.bool "collected the dropped object" true
    (st.Jvm.Gc.collected_objects >= 1);
  check Alcotest.bool "kept the rooted object" true (st.Jvm.Gc.live_objects >= 2);
  check Alcotest.bool "bytes reclaimed" true (st.Jvm.Gc.collected_bytes > 0);
  (* a second collection finds nothing new *)
  let st2 = Jvm.Gc.collect vm in
  check Alcotest.int "idempotent" 0 st2.Jvm.Gc.collected_objects

let test_gc_traces_through_structures () =
  let vm = vm_with [] in
  let heap = vm.Jvm.Vmstate.heap in
  (* chain: extra root -> ref array -> object -> field -> int array *)
  let iarr = Jvm.Heap.alloc_int_array heap 8 in
  let o =
    Jvm.Heap.alloc_obj heap ~cls:"java/lang/Object"
      ~field_descs:[ ("payload", "[I") ]
  in
  Hashtbl.replace o.V.fields "payload" (V.Arr_int iarr);
  let rarr = Jvm.Heap.alloc_ref_array heap ~elem:"java/lang/Object" 4 in
  rarr.V.refs.(2) <- V.Obj o;
  let garbage = Jvm.Heap.alloc_obj heap ~cls:"java/lang/Object" ~field_descs:[] in
  ignore garbage;
  let st = Jvm.Gc.collect ~extra_roots:[ V.Arr_ref rarr ] vm in
  (* rarr + o + iarr survive; garbage dies *)
  check Alcotest.bool "live arrays >= 2" true (st.Jvm.Gc.live_arrays >= 2);
  check Alcotest.bool "live objects >= 1" true (st.Jvm.Gc.live_objects >= 1);
  check Alcotest.bool "garbage collected" true (st.Jvm.Gc.collected_objects >= 1);
  (* cycles do not trap the tracer *)
  let a = Jvm.Heap.alloc_obj heap ~cls:"java/lang/Object" ~field_descs:[ ("n", "Ljava/lang/Object;") ] in
  let b = Jvm.Heap.alloc_obj heap ~cls:"java/lang/Object" ~field_descs:[ ("n", "Ljava/lang/Object;") ] in
  Hashtbl.replace a.V.fields "n" (V.Obj b);
  Hashtbl.replace b.V.fields "n" (V.Obj a);
  let st = Jvm.Gc.collect ~extra_roots:[ V.Obj a ] vm in
  check Alcotest.bool "cycle survives when rooted" true (st.Jvm.Gc.live_objects >= 2);
  let st = Jvm.Gc.collect vm in
  check Alcotest.bool "cycle dies when unrooted" true
    (st.Jvm.Gc.collected_objects >= 2)

let test_gc_after_workload () =
  (* The database kernel allocates an Account per call; after the run
     none are rooted, so the collector reclaims them all. *)
  let app = Workloads.Apps.build_small Workloads.Apps.instantdb in
  let vm = vm_with app.Workloads.Appgen.classes in
  (match Jvm.Interp.run_main vm app.Workloads.Appgen.entry with
  | Ok () -> ()
  | Error e -> fail (Jvm.Interp.describe_throwable e));
  let allocated = vm.Jvm.Vmstate.heap.Jvm.Heap.objects_allocated in
  check Alcotest.bool "workload allocated objects" true (allocated > 100);
  let st = Jvm.Gc.collect vm in
  check Alcotest.bool "most of the heap was garbage" true
    (st.Jvm.Gc.collected_objects > allocated / 2)

(* An array of int arrays is named "[[I" by the interpreter and the
   verifier alike, so a cast the verifier accepts also succeeds at run
   time. *)
let test_nested_array_names () =
  let cls =
    B.class_ "Nested"
      [
        B.meth ~flags:static "f" "()I"
          [
            B.Const 2;
            B.Anewarray "[I";
            B.Checkcast "[[I";
            B.Instanceof "[[I";
            B.Ireturn;
          ];
      ]
  in
  let oracle = Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes ()) in
  (match Verifier.Static_verifier.verify ~oracle cls with
  | Verifier.Static_verifier.Verified _ -> ()
  | Verifier.Static_verifier.Rejected (errs, _) ->
    fail (String.concat "; " (List.map Verifier.Verror.to_string errs)));
  let vm = vm_with [ cls ] in
  match call_static vm "Nested" "f" "()I" [] with
  | Some (V.Int 1l) -> ()
  | Some v -> fail ("instanceof [[I gave " ^ V.to_string v)
  | None -> fail "no result"

(* Integer.parseInt takes Java's decimal syntax only, never OCaml's
   literal forms. *)
let test_parse_int_java_syntax () =
  let cls =
    B.class_ "Parse"
      [
        B.meth ~flags:static "p" "(Ljava/lang/String;)I"
          [
            B.Aload 0;
            B.Invokestatic ("java/lang/Integer", "parseInt", "(Ljava/lang/String;)I");
            B.Ireturn;
          ];
      ]
  in
  let vm = vm_with [ cls ] in
  let desc = "(Ljava/lang/String;)I" in
  List.iter
    (fun (s, want) ->
      match call_static vm "Parse" "p" desc [ V.Str s ] with
      | Some (V.Int n) -> check Alcotest.int32 s want n
      | _ -> fail ("parseInt " ^ s))
    [ ("-2147483648", Int32.min_int); ("+7", 7l); ("007", 7l); (" 42 ", 42l) ];
  List.iter
    (fun s ->
      expect_throw vm "Parse" "p" desc [ V.Str s ] "java/lang/NumberFormatException")
    [ "0x10"; "0b101"; "0o17"; "1_000"; "0xFFFFFFFF"; "2147483648"; "-"; "" ]

(* --- Unboxed int frames. --- *)

(* Every int bytecode against its Int32 counterpart. [None] is an
   ArithmeticException. *)
let int32_binops =
  let shift f a b = f a (Int32.to_int b land 31) in
  let div f a b = if Int32.equal b 0l then None else Some (f a b) in
  [
    ("add", B.Add, fun a b -> Some (Int32.add a b));
    ("sub", B.Sub, fun a b -> Some (Int32.sub a b));
    ("mul", B.Mul, fun a b -> Some (Int32.mul a b));
    ("div", B.Div, div Int32.div);
    ("rem", B.Rem, div Int32.rem);
    ("shl", B.Shl, fun a b -> Some (shift Int32.shift_left a b));
    ("shr", B.Shr, fun a b -> Some (shift Int32.shift_right a b));
    ("and", B.And, fun a b -> Some (Int32.logand a b));
    ("or", B.Or, fun a b -> Some (Int32.logor a b));
    ("xor", B.Xor, fun a b -> Some (Int32.logxor a b));
  ]

let switch_width = 3

(* [sw(I)I] returns the taken case, or -1 for the default. *)
let switch_meth low =
  B.meth ~flags:static "sw" "(I)I"
    ([ B.Iload 0; B.Switch (Int32.to_int low, [ "c0"; "c1"; "c2" ], "d") ]
    @ List.concat
        (List.init switch_width (fun k ->
             [ B.Label (Printf.sprintf "c%d" k); B.Const k; B.Ireturn ]))
    @ [ B.Label "d"; B.Const (-1); B.Ireturn ])

let int32_edge = [ Int32.min_int; Int32.max_int; -1l; 0l; 1l; 31l; 32l; 33l ]

let gen_int32 =
  QCheck.Gen.(frequency [ (1, oneofl int32_edge); (3, int32) ])

let gen_low =
  QCheck.Gen.(
    oneofl
      [
        Int32.min_int;
        Int32.add Int32.min_int 1l;
        Int32.sub Int32.max_int 2l;
        Int32.sub Int32.max_int 1l;
        Int32.max_int;
        0l;
      ])

let prop_int_ops_match_int32 =
  let gen =
    QCheck.Gen.(
      quad gen_int32 gen_int32 gen_low (int_range (-40000) 40000)
      >>= fun (a, b, low, d) ->
      (* Switch keys near [low], and across the wrap from its far side. *)
      map
        (fun v -> (a, b, low, d, v))
        (frequency
           [
             (2, map (fun k -> Int32.add low (Int32.of_int k)) (int_range (-2) 4));
             (1, gen_int32);
           ]))
  in
  let print (a, b, low, d, v) =
    Printf.sprintf "a=%ld b=%ld low=%ld d=%d v=%ld" a b low d v
  in
  QCheck.Test.make ~name:"int bytecodes match Int32" ~count:400
    (QCheck.make gen ~print) (fun (a, b, low, d, v) ->
      (* Each result is returned, and separately tested against zero:
         [ireturn] alone would re-wrap a result left unwrapped. *)
      let both name desc body =
        [
          B.meth ~flags:static name desc (body @ [ B.Ireturn ]);
          B.meth ~flags:static (name ^ "Neg") desc
            (body
            @ [ B.If_z (I.Lt, "n"); B.Const 0; B.Ireturn; B.Label "n"; B.Const 1; B.Ireturn ]);
        ]
      in
      let cls =
        B.class_ "Ops"
          (switch_meth low
          :: both "neg" "(I)I" [ B.Iload 0; B.Neg ]
          @ both "inc" "(I)I" [ B.Inc (0, d); B.Iload 0 ]
          @ List.concat_map
              (fun (op, ins, _) -> both op "(II)I" [ B.Iload 0; B.Iload 1; ins ])
              int32_binops)
      in
      let vm = vm_with [ cls ] in
      let run meth desc args =
        match call_static vm "Ops" meth desc (List.map (fun n -> V.Int n) args) with
        | Some (V.Int r) -> Some r
        | _ -> QCheck.Test.fail_reportf "%s returned no int" meth
        | exception Jvm.Vmstate.Throw e
          when String.equal (V.class_of e) Jvm.Vmstate.c_arith ->
          None
      in
      let agrees name desc args want =
        run name desc args = want
        && run (name ^ "Neg") desc args
           = Option.map (fun r -> if Int32.compare r 0l < 0 then 1l else 0l) want
      in
      let k = Int32.to_int (Int32.sub v low) in
      let want_sw = if k >= 0 && k < switch_width then k else -1 in
      List.for_all
        (fun (op, _, model) -> agrees op "(II)I" [ a; b ] (model a b))
        int32_binops
      && agrees "neg" "(I)I" [ a ] (Some (Int32.neg a))
      && agrees "inc" "(I)I" [ a ] (Some (Int32.add a (Int32.of_int d)))
      && run "sw" "(I)I" [ v ] = Some (Int32.of_int want_sw))

(* --- Faults on unverifiable code. --- *)

let expect_fault vm cls name desc args =
  match Jvm.Interp.invoke vm ~cls ~name ~desc args with
  | _ -> fail "expected Runtime_fault"
  | exception Jvm.Vmstate.Runtime_fault _ -> ()

let test_fault_type_confusion () =
  let cls =
    B.class_ "Bad1"
      [
        B.meth ~flags:static "f" "()I"
          [ B.Push_str "not an int"; B.Const 1; B.Add; B.Ireturn ];
      ]
  in
  let vm = vm_with [ cls ] in
  expect_fault vm "Bad1" "f" "()I" []

let test_fault_stack_underflow () =
  let cls =
    B.class_ "Bad2" [ B.meth ~flags:static "f" "()I" [ B.Add; B.Ireturn ] ]
  in
  let vm = vm_with [ cls ] in
  expect_fault vm "Bad2" "f" "()I" []

let test_fault_falls_off_end () =
  let cls =
    { (B.class_ "Bad3" [ B.meth ~flags:static "f" "()V" [ B.Return ] ]) with
      CF.methods =
        [
          {
            CF.m_name = "f";
            m_desc = "()V";
            m_flags = static;
            m_code =
              Some
                {
                  CF.max_stack = 1;
                  max_locals = 1;
                  instrs = [| Bytecode.Instr.Nop |];
                  handlers = [];
                };
          };
        ];
    }
  in
  let vm = vm_with [ cls ] in
  expect_fault vm "Bad3" "f" "()V" []

let test_budget () =
  let vm = Jvm.Bootlib.fresh_vm ~budget:1000L () in
  let cls =
    B.class_ "Spin"
      [ B.meth ~flags:static "f" "()V" [ B.Label "l"; B.Goto "l" ] ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
  match call_static vm "Spin" "f" "()V" [] with
  | _ -> fail "expected budget exhaustion"
  | exception Jvm.Vmstate.Budget_exhausted -> ()

let test_instr_count_accumulates () =
  let vm = vm_with [ gcd_cls ] in
  let before = vm.Jvm.Vmstate.instr_count in
  ignore (call_static vm "Gcd" "gcd" "(II)I" [ V.Int 252l; V.Int 105l ]);
  check Alcotest.bool "instructions counted" true
    (vm.Jvm.Vmstate.instr_count > before)

let expect_fault_msg vm cls name desc args msg =
  match Jvm.Interp.invoke vm ~cls ~name ~desc args with
  | _ -> fail ("expected Runtime_fault: " ^ msg)
  | exception Jvm.Vmstate.Runtime_fault m -> check Alcotest.string name msg m

(* A kind fault names the kind it expected and prints the slot's value,
   whichever frame array holds it. *)
let test_fault_kind_parity () =
  let cls =
    B.class_ "Kinds"
      [
        B.meth ~flags:static "iloadRef" "()I"
          [ B.Push_str "s"; B.Astore 0; B.Iload 0; B.Ireturn ];
        B.meth ~flags:static "aloadInt" "(I)Ljava/lang/Object;" [ B.Aload 0; B.Areturn ];
        B.meth ~flags:static "ireturnRef" "()I" [ B.Push_str "x"; B.Ireturn ];
        B.meth ~flags:static "istoreAload" "()Ljava/lang/Object;"
          [ B.Const 7; B.Istore 1; B.Aload 1; B.Areturn ];
        B.meth ~flags:static "retInt" "()V" [ B.Const 3; B.Istore 0; B.Ret 0 ];
      ]
  in
  let vm = vm_with [ cls ] in
  let expect name desc args msg = expect_fault_msg vm "Kinds" name desc args msg in
  expect "iloadRef" "()I" [] "expected int, got \"s\"";
  expect "aloadInt" "(I)Ljava/lang/Object;" [ V.Int 5l ] "expected reference, got 5";
  expect "ireturnRef" "()I" [] "expected int, got \"x\"";
  expect "istoreAload" "()Ljava/lang/Object;" [] "expected reference, got 7";
  expect "retInt" "()V" [] "expected return address, got 3"

(* swap and dup_x1 over an int and a reference move each value with
   its kind. *)
let test_stack_moves_keep_kinds () =
  let int_m name body = B.meth ~flags:static name "()I" (body @ [ B.Ireturn ]) in
  let ref_m name body =
    B.meth ~flags:static name "()Ljava/lang/Object;" (body @ [ B.Areturn ])
  in
  let cls =
    B.class_ "Moves"
      [
        ref_m "swapTop" [ B.Push_str "r"; B.Const 5; B.Swap ];
        int_m "swapUnder" [ B.Push_str "r"; B.Const 5; B.Swap; B.Pop ];
        ref_m "dupx1Top" [ B.Const 5; B.Push_str "r"; B.Dup_x1 ];
        int_m "dupx1Mid" [ B.Const 5; B.Push_str "r"; B.Dup_x1; B.Pop ];
        ref_m "dupx1Under" [ B.Const 5; B.Push_str "r"; B.Dup_x1; B.Pop; B.Pop ];
        int_m "dupx1IntTop" [ B.Push_str "r"; B.Const 5; B.Dup_x1 ];
        ref_m "dupx1RefMid" [ B.Push_str "r"; B.Const 5; B.Dup_x1; B.Pop ];
      ]
  in
  let vm = vm_with [ cls ] in
  List.iter
    (fun (name, want) ->
      let desc = match want with V.Int _ -> "()I" | _ -> "()Ljava/lang/Object;" in
      match call_static vm "Moves" name desc [] with
      | Some v -> check Alcotest.string name (V.to_string want) (V.to_string v)
      | None -> fail name)
    [
      ("swapTop", V.Str "r");
      ("swapUnder", V.Int 5l);
      ("dupx1Top", V.Str "r");
      ("dupx1Mid", V.Int 5l);
      ("dupx1Under", V.Str "r");
      ("dupx1IntTop", V.Int 5l);
      ("dupx1RefMid", V.Str "r");
    ]

(* --- Constant-pool site caches. --- *)

let int_of = function
  | Some (V.Int n) -> Int32.to_int n
  | Some v -> fail ("not an int: " ^ V.to_string v)
  | None -> fail "no result"

(* A constant-pool index first executed as a fieldref still faults when
   an invoke names it. *)
let test_site_keeps_cp_kind () =
  let base =
    B.class_ "Mixed"
      ~fields:[ B.field ~flags:static "x" "I" ]
      [
        B.meth ~flags:static "f" "()V"
          [ B.Getstatic ("Mixed", "x", "I"); B.Pop; B.Return ];
      ]
  in
  let f = List.find (fun m -> m.CF.m_name = "f") base.CF.methods in
  let idx =
    match f.CF.m_code with
    | Some { CF.instrs = [| I.Getstatic i; _; _ |]; _ } -> i
    | _ -> fail "unexpected code shape"
  in
  let code =
    {
      CF.max_stack = 1;
      max_locals = 0;
      instrs = [| I.Getstatic idx; I.Pop; I.Invokestatic idx; I.Return |];
      handlers = [];
    }
  in
  let cls = { base with CF.methods = [ { f with CF.m_code = Some code } ] } in
  let vm = vm_with [ cls ] in
  expect_fault_msg vm "Mixed" "f" "()V" [] (Printf.sprintf "bad methodref index %d" idx)

let target_cls k =
  B.class_ "Target" [ B.meth ~flags:static "g" "()I" [ B.Const k; B.Ireturn ] ]

let nat_cls =
  B.class_ "Nat" [ B.native_meth ~flags:[ CF.Public; CF.Static; CF.Native ] "h" "()I" ]

let set_nat vm k =
  Jvm.Vmstate.register_native vm ~cls:"Nat" ~name:"h" ~desc:"()I" (fun _ _ ->
      Some (V.Int (Int32.of_int k)))

(* [Calls.f() = Nat.h() + Target.g()]: one native and one bytecode
   target, each through its own invoke site. *)
let calls_cls =
  B.class_ "Calls"
    [
      B.meth ~flags:static "f" "()I"
        [
          B.Invokestatic ("Nat", "h", "()I");
          B.Invokestatic ("Target", "g", "()I");
          B.Add;
          B.Ireturn;
        ];
    ]

let calls vm = int_of (call_static vm "Calls" "f" "()I" [])

let test_site_sees_replaced_class () =
  let vm = vm_with [ nat_cls; target_cls 10; calls_cls ] in
  set_nat vm 1;
  check Alcotest.int "first" 11 (calls vm);
  check Alcotest.int "cached" 11 (calls vm);
  Jvm.Classreg.register vm.Jvm.Vmstate.reg (target_cls 20);
  check Alcotest.int "after register" 21 (calls vm)

let test_site_sees_replaced_native () =
  let vm = vm_with [ nat_cls; target_cls 10; calls_cls ] in
  set_nat vm 1;
  check Alcotest.int "first" 11 (calls vm);
  check Alcotest.int "cached" 11 (calls vm);
  set_nat vm 2;
  check Alcotest.int "after register_native" 12 (calls vm)

let test_site_alternating_receivers () =
  let shape k = [ B.meth "sides" "()I" [ B.Const k; B.Ireturn ] ] in
  let classes =
    [
      B.class_ "Shape" (shape 0);
      B.class_ ~super:"Shape" "Tri" (shape 3);
      B.class_ ~super:"Shape" "Sq" (shape 4);
      B.class_ "Count"
        [
          B.meth ~flags:static "sides" "(LShape;)I"
            [ B.Aload 0; B.Invokevirtual ("Shape", "sides", "()I"); B.Ireturn ];
        ];
    ]
  in
  let vm = vm_with classes in
  let obj cls = V.Obj (Jvm.Heap.alloc_obj vm.Jvm.Vmstate.heap ~cls ~field_descs:[]) in
  List.iter
    (fun (cls, want) ->
      let got = call_static vm "Count" "sides" "(LShape;)I" [ obj cls ] in
      check Alcotest.int cls want (int_of got))
    [ ("Tri", 3); ("Sq", 4); ("Tri", 3); ("Shape", 0); ("Sq", 4); ("Sq", 4); ("Tri", 3) ]

(* A resolution that consulted the provider and failed is not cached:
   each execution consults it again, as the uncached lookup did. *)
let test_site_replays_provider_misses () =
  let consults = ref 0 in
  let provider name =
    if String.equal name "Gone" then incr consults;
    None
  in
  let vm = Jvm.Bootlib.fresh_vm ~provider () in
  List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg)
    [
      B.class_ ~super:"Gone" "Orphan" [];
      B.class_ "Poke"
        [
          B.meth ~flags:static "f" "(LOrphan;)V"
            [ B.Aload 0; B.Invokevirtual ("Orphan", "m", "()V"); B.Return ];
        ];
    ];
  let o = V.Obj (Jvm.Heap.alloc_obj vm.Jvm.Vmstate.heap ~cls:"Orphan" ~field_descs:[]) in
  for k = 1 to 3 do
    expect_throw vm "Poke" "f" "(LOrphan;)V" [ o ] "java/lang/NoSuchMethodError";
    check Alcotest.int "provider consulted again" k !consults
  done

(* Two VMs registering the same [Classfile.t] keep separate caches. *)
let test_site_cache_per_vm () =
  let vm_for nat target =
    let vm = vm_with [ nat_cls; target_cls target; calls_cls ] in
    set_nat vm nat;
    vm
  in
  let vm1 = vm_for 1 10 and vm2 = vm_for 2 20 in
  for _ = 1 to 2 do
    check Alcotest.int "vm1" 11 (calls vm1);
    check Alcotest.int "vm2" 22 (calls vm2)
  done

let () =
  Alcotest.run "jvm"
    [
      ( "basics",
        [
          Alcotest.test_case "hello world" `Quick test_hello;
          Alcotest.test_case "gcd loop" `Quick test_gcd;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic_ops;
          Alcotest.test_case "int32 wraparound" `Quick test_int32_wraparound;
          Alcotest.test_case "tableswitch" `Quick test_tableswitch;
          Alcotest.test_case "jsr/ret" `Quick test_jsr_ret;
        ] );
      ( "objects",
        [
          Alcotest.test_case "virtual dispatch" `Quick test_virtual_dispatch;
          Alcotest.test_case "instance fields" `Quick test_instance_fields;
          Alcotest.test_case "clinit once" `Quick test_clinit_runs_once;
          Alcotest.test_case "inherited fields" `Quick
            test_inherited_fields_visible;
          Alcotest.test_case "checkcast/instanceof" `Quick
            test_checkcast_instanceof;
          Alcotest.test_case "interface dispatch" `Quick
            test_interface_dispatch;
        ] );
      ( "arrays",
        [
          Alcotest.test_case "alloc/fill/sum" `Quick test_arrays;
          Alcotest.test_case "bounds" `Quick test_array_bounds;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "throw/catch" `Quick test_throw_catch;
          Alcotest.test_case "catch subtype only" `Quick
            test_catch_subtype_only;
          Alcotest.test_case "unwinds frames" `Quick
            test_exception_unwinds_frames;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero_uncaught;
          Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
        ] );
      ( "loading",
        [
          Alcotest.test_case "provider" `Quick test_provider_loading;
          Alcotest.test_case "missing class" `Quick test_missing_class;
          Alcotest.test_case "on_load rejects" `Quick test_on_load_hook_rejects;
        ] );
      ( "natives",
        [
          Alcotest.test_case "string ops" `Quick test_string_natives;
          Alcotest.test_case "properties and files" `Quick
            test_properties_and_files;
          Alcotest.test_case "security hook invoked" `Quick
            test_security_hook_invoked;
          Alcotest.test_case "security hook denies" `Quick
            test_security_hook_denies;
          Alcotest.test_case "random lcg" `Quick test_random_lcg;
          Alcotest.test_case "math/integer/stringbuilder" `Quick
            test_math_integer_stringbuilder;
        ] );
      ( "gc",
        [
          Alcotest.test_case "reachability" `Quick test_gc_reachability;
          Alcotest.test_case "traces structures and cycles" `Quick
            test_gc_traces_through_structures;
          Alcotest.test_case "reclaims workload garbage" `Quick
            test_gc_after_workload;
        ] );
      ( "faults",
        [
          Alcotest.test_case "type confusion" `Quick test_fault_type_confusion;
          Alcotest.test_case "stack underflow" `Quick
            test_fault_stack_underflow;
          Alcotest.test_case "falls off end" `Quick test_fault_falls_off_end;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "instruction counting" `Quick
            test_instr_count_accumulates;
          Alcotest.test_case "kind faults keep their messages" `Quick
            test_fault_kind_parity;
        ] );
      ( "frames",
        [
          QCheck_alcotest.to_alcotest prop_int_ops_match_int32;
          Alcotest.test_case "stack moves keep kinds" `Quick
            test_stack_moves_keep_kinds;
          Alcotest.test_case "nested array names" `Quick test_nested_array_names;
          Alcotest.test_case "parseInt java syntax" `Quick test_parse_int_java_syntax;
        ] );
      ( "sites",
        [
          Alcotest.test_case "cp kind kept" `Quick test_site_keeps_cp_kind;
          Alcotest.test_case "replaced class" `Quick test_site_sees_replaced_class;
          Alcotest.test_case "replaced native" `Quick test_site_sees_replaced_native;
          Alcotest.test_case "alternating receivers" `Quick
            test_site_alternating_receivers;
          Alcotest.test_case "provider misses replay" `Quick
            test_site_replays_provider_misses;
          Alcotest.test_case "cache per vm" `Quick test_site_cache_per_vm;
        ] );
    ]
