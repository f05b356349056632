(* The boot class library: the minimal java/lang and java/io surface
   the workloads and the services need, plus the native methods backing
   it. Native operations carry fixed simulated costs (in cost units ~
   microseconds) matching the *baseline* column of the paper's Figure 9
   where the paper reports one; everything else is a small constant.

   Natives that guard a security-relevant operation consult
   [vm.security_hook]. The hook models the monolithic JDK 1.2
   stack-introspection SecurityManager: it is only invoked at the
   points the original system designers anticipated (property access,
   file open, thread priority) — pointedly *not* file read, which is
   the paper's example of a hole that only binary rewriting can
   close. *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile

let run_hook vm op =
  match vm.Vmstate.security_hook with None -> () | Some f -> f op

(* --- Native operation base costs (cost units, ~µs). --- *)

let cost_println = 20L
let cost_get_property = 2L (* Fig. 9 baseline: 0.0020 ms *)
let cost_open_file = 1406L (* Fig. 9 baseline: 1.406 ms *)
let cost_set_priority = 64L (* Fig. 9 baseline: 0.0638 ms *)
let cost_read_file = 14L (* Fig. 9 baseline: 0.0141 ms *)
let cost_string_op = 1L

(* --- Class definitions. --- *)

let object_cls =
  B.class_ "java/lang/Object"
    [
      B.meth "<init>" "()V" [ B.Return ];
      B.native_meth "hashCode" "()I";
      B.native_meth "equals" "(Ljava/lang/Object;)I";
      B.native_meth "toString" "()Ljava/lang/String;";
    ]

let string_cls =
  B.class_ ~flags:[ CF.Public; CF.Final ] "java/lang/String"
    [
      B.native_meth "length" "()I";
      B.native_meth "charAt" "(I)I";
      B.native_meth "concat" "(Ljava/lang/String;)Ljava/lang/String;";
      B.native_meth "equals" "(Ljava/lang/Object;)I";
      B.native_meth "hashCode" "()I";
      B.native_meth "substring" "(II)Ljava/lang/String;";
      B.native_meth ~flags:[ CF.Public; CF.Static; CF.Native ] "valueOf"
        "(I)Ljava/lang/String;";
    ]

let output_stream_cls =
  B.class_ "java/io/OutputStream"
    [
      B.default_init "java/lang/Object";
      B.native_meth "println" "(Ljava/lang/String;)V";
      B.native_meth "println" "(I)V";
      B.native_meth "print" "(Ljava/lang/String;)V";
      B.native_meth "write" "(I)V";
    ]

let system_cls =
  B.class_ "java/lang/System"
    ~fields:
      [ B.field ~flags:[ CF.Public; CF.Static ] "out" "Ljava/io/OutputStream;" ]
    [
      B.native_meth ~flags:[ CF.Public; CF.Static; CF.Native ] "getProperty"
        "(Ljava/lang/String;)Ljava/lang/String;";
      B.native_meth ~flags:[ CF.Public; CF.Static; CF.Native ] "setProperty"
        "(Ljava/lang/String;Ljava/lang/String;)V";
      B.native_meth ~flags:[ CF.Public; CF.Static; CF.Native ]
        "currentTimeMillis" "()I";
    ]

let throwable_cls =
  B.class_ "java/lang/Throwable"
    ~fields:[ B.field "message" "Ljava/lang/String;" ]
    [
      B.meth "<init>" "()V"
        [
          B.Aload 0;
          B.Invokespecial ("java/lang/Object", "<init>", "()V");
          B.Return;
        ];
      B.meth "<init>" "(Ljava/lang/String;)V"
        [
          B.Aload 0;
          B.Invokespecial ("java/lang/Object", "<init>", "()V");
          B.Aload 0;
          B.Aload 1;
          B.Putfield ("java/lang/Throwable", "message", "Ljava/lang/String;");
          B.Return;
        ];
      B.meth "getMessage" "()Ljava/lang/String;"
        [
          B.Aload 0;
          B.Getfield ("java/lang/Throwable", "message", "Ljava/lang/String;");
          B.Areturn;
        ];
    ]

(* A throwable subclass whose constructors chain to the parent. *)
let throwable_sub name ~super =
  B.class_ name ~super
    [
      B.meth "<init>" "()V"
        [ B.Aload 0; B.Invokespecial (super, "<init>", "()V"); B.Return ];
      B.meth "<init>" "(Ljava/lang/String;)V"
        [
          B.Aload 0;
          B.Aload 1;
          B.Invokespecial (super, "<init>", "(Ljava/lang/String;)V");
          B.Return;
        ];
    ]

let thread_cls =
  B.class_ "java/lang/Thread"
    ~fields:
      [ B.field ~flags:[ CF.Public; CF.Static ] "current" "Ljava/lang/Thread;" ]
    [
      B.default_init "java/lang/Object";
      B.native_meth ~flags:[ CF.Public; CF.Static; CF.Native ] "currentThread"
        "()Ljava/lang/Thread;";
      B.native_meth "setPriority" "(I)V";
      B.native_meth "getPriority" "()I";
    ]

let file_cls =
  B.class_ "java/io/File"
    ~fields:[ B.field "path" "Ljava/lang/String;" ]
    [
      B.meth "<init>" "(Ljava/lang/String;)V"
        [
          B.Aload 0;
          B.Invokespecial ("java/lang/Object", "<init>", "()V");
          B.Aload 0;
          B.Aload 1;
          B.Putfield ("java/io/File", "path", "Ljava/lang/String;");
          B.Return;
        ];
      B.native_meth "exists" "()I";
      B.meth "getPath" "()Ljava/lang/String;"
        [
          B.Aload 0;
          B.Getfield ("java/io/File", "path", "Ljava/lang/String;");
          B.Areturn;
        ];
    ]

let file_input_stream_cls =
  B.class_ "java/io/FileInputStream"
    ~fields:
      [
        B.field "path" "Ljava/lang/String;";
        B.field "pos" "I";
      ]
    [
      B.meth "<init>" "(Ljava/lang/String;)V"
        [
          B.Aload 0;
          B.Invokespecial ("java/lang/Object", "<init>", "()V");
          B.Aload 0;
          B.Aload 1;
          B.Putfield ("java/io/FileInputStream", "path", "Ljava/lang/String;");
          B.Aload 0;
          B.Aload 1;
          B.Invokevirtual
            ("java/io/FileInputStream", "open", "(Ljava/lang/String;)V");
          B.Return;
        ];
      B.native_meth "open" "(Ljava/lang/String;)V";
      B.native_meth "read" "()I";
      B.meth "close" "()V" [ B.Return ];
    ]

(* A pure-bytecode linear congruential generator: lives in the boot
   library so workloads can consume pseudo-random numbers while
   exercising the interpreter rather than a native. *)
let random_cls =
  B.class_ "java/util/Random"
    ~fields:[ B.field "seed" "I" ]
    [
      B.meth "<init>" "(I)V"
        [
          B.Aload 0;
          B.Invokespecial ("java/lang/Object", "<init>", "()V");
          B.Aload 0;
          B.Iload 1;
          B.Putfield ("java/util/Random", "seed", "I");
          B.Return;
        ];
      (* next(bound): seed <- seed*1103515245 + 12345; return
         (seed >>> 16) mod bound, non-negative. *)
      B.meth "next" "(I)I"
        [
          B.Aload 0;
          B.Aload 0;
          B.Getfield ("java/util/Random", "seed", "I");
          B.Const 1103515245;
          B.Mul;
          B.Const 12345;
          B.Add;
          B.Putfield ("java/util/Random", "seed", "I");
          B.Aload 0;
          B.Getfield ("java/util/Random", "seed", "I");
          B.Const 16;
          B.Shr;
          B.Iload 1;
          B.Rem;
          B.Dup;
          B.If_z (Bytecode.Instr.Ge, "done");
          B.Iload 1;
          B.Add;
          B.Label "done";
          B.Ireturn;
        ];
    ]

let math_cls =
  B.class_ "java/lang/Math"
    [
      B.native_meth ~flags:[ CF.Public; CF.Static; CF.Native ] "min" "(II)I";
      B.native_meth ~flags:[ CF.Public; CF.Static; CF.Native ] "max" "(II)I";
      B.native_meth ~flags:[ CF.Public; CF.Static; CF.Native ] "abs" "(I)I";
    ]

let integer_cls =
  B.class_ "java/lang/Integer"
    [
      B.native_meth ~flags:[ CF.Public; CF.Static; CF.Native ] "parseInt"
        "(Ljava/lang/String;)I";
      (* toString delegates to the String.valueOf native *)
      B.meth ~flags:[ CF.Public; CF.Static ] "toString" "(I)Ljava/lang/String;"
        [
          B.Iload 0;
          B.Invokestatic ("java/lang/String", "valueOf", "(I)Ljava/lang/String;");
          B.Areturn;
        ];
    ]

(* A pure-bytecode StringBuilder over the String natives: enough for
   the usual append-chain idiom. *)
let string_builder_cls =
  B.class_ "java/lang/StringBuilder"
    ~fields:[ B.field "buf" "Ljava/lang/String;" ]
    [
      B.meth "<init>" "()V"
        [
          B.Aload 0;
          B.Invokespecial ("java/lang/Object", "<init>", "()V");
          B.Aload 0;
          B.Push_str "";
          B.Putfield ("java/lang/StringBuilder", "buf", "Ljava/lang/String;");
          B.Return;
        ];
      B.meth "append" "(Ljava/lang/String;)Ljava/lang/StringBuilder;"
        [
          B.Aload 0;
          B.Aload 0;
          B.Getfield ("java/lang/StringBuilder", "buf", "Ljava/lang/String;");
          B.Aload 1;
          B.Invokevirtual
            ("java/lang/String", "concat", "(Ljava/lang/String;)Ljava/lang/String;");
          B.Putfield ("java/lang/StringBuilder", "buf", "Ljava/lang/String;");
          B.Aload 0;
          B.Areturn;
        ];
      B.meth "appendInt" "(I)Ljava/lang/StringBuilder;"
        [
          B.Aload 0;
          B.Iload 1;
          B.Invokestatic ("java/lang/String", "valueOf", "(I)Ljava/lang/String;");
          B.Invokevirtual
            ( "java/lang/StringBuilder",
              "append",
              "(Ljava/lang/String;)Ljava/lang/StringBuilder;" );
          B.Areturn;
        ];
      B.meth "toString" "()Ljava/lang/String;"
        [
          B.Aload 0;
          B.Getfield ("java/lang/StringBuilder", "buf", "Ljava/lang/String;");
          B.Areturn;
        ];
      B.meth "length" "()I"
        [
          B.Aload 0;
          B.Getfield ("java/lang/StringBuilder", "buf", "Ljava/lang/String;");
          B.Invokevirtual ("java/lang/String", "length", "()I");
          B.Ireturn;
        ];
    ]

let throwable_tree =
  [
    ("java/lang/Exception", "java/lang/Throwable");
    ("java/lang/RuntimeException", "java/lang/Exception");
    ("java/lang/Error", "java/lang/Throwable");
    ("java/lang/LinkageError", "java/lang/Error");
    ("java/lang/VerifyError", "java/lang/LinkageError");
    ("java/lang/NoClassDefFoundError", "java/lang/LinkageError");
    ("java/lang/NoSuchMethodError", "java/lang/LinkageError");
    ("java/lang/NoSuchFieldError", "java/lang/LinkageError");
    ("java/lang/StackOverflowError", "java/lang/Error");
    ("java/lang/ClassCastException", "java/lang/RuntimeException");
    ("java/lang/NullPointerException", "java/lang/RuntimeException");
    ("java/lang/ArithmeticException", "java/lang/RuntimeException");
    ("java/lang/ArrayIndexOutOfBoundsException", "java/lang/RuntimeException");
    ("java/lang/NegativeArraySizeException", "java/lang/RuntimeException");
    ("java/lang/SecurityException", "java/lang/RuntimeException");
    ("java/io/IOException", "java/lang/Exception");
    ("java/lang/NumberFormatException", "java/lang/RuntimeException");
  ]

let boot_classes () =
  [
    object_cls;
    string_cls;
    output_stream_cls;
    system_cls;
    throwable_cls;
    thread_cls;
    file_cls;
    file_input_stream_cls;
    random_cls;
    math_cls;
    integer_cls;
    string_builder_cls;
  ]
  @ List.map (fun (n, s) -> throwable_sub n ~super:s) throwable_tree

(* --- Native implementations. --- *)

let arg n args =
  match List.nth_opt args n with
  | Some v -> v
  | None -> Vmstate.fault "native: missing argument %d" n

let str_arg vm n args =
  match arg n args with
  | Value.Str s -> s
  | Value.Null -> Vmstate.throw vm ~cls:Vmstate.c_npe ~message:"null string"
  | v -> Vmstate.fault "native: expected string, got %s" (Value.to_string v)

let int_arg n args =
  match arg n args with
  | Value.Int v -> Int32.to_int v
  | v -> Vmstate.fault "native: expected int, got %s" (Value.to_string v)

let register_natives vm =
  let reg = Vmstate.register_native vm in
  (* java/lang/Object *)
  reg ~cls:"java/lang/Object" ~name:"hashCode" ~desc:"()I" (fun _ args ->
      match arg 0 args with
      | Value.Obj o -> Some (Value.Int (Int32.of_int o.Value.oid))
      | Value.Str s -> Some (Value.Int (Int32.of_int (Hashtbl.hash s)))
      | v -> Some (Value.Int (Int32.of_int (Hashtbl.hash (Value.to_string v)))));
  reg ~cls:"java/lang/Object" ~name:"equals" ~desc:"(Ljava/lang/Object;)I"
    (fun _ args ->
      let same = Value.ref_equal (arg 0 args) (arg 1 args) in
      Some (Value.Int (if same then 1l else 0l)));
  reg ~cls:"java/lang/Object" ~name:"toString" ~desc:"()Ljava/lang/String;"
    (fun _ args -> Some (Value.Str (Value.to_string (arg 0 args))));
  (* java/lang/String *)
  reg ~cls:"java/lang/String" ~name:"length" ~desc:"()I" (fun vm args ->
      Vmstate.add_cost vm cost_string_op;
      Some (Value.Int (Int32.of_int (String.length (str_arg vm 0 args)))));
  reg ~cls:"java/lang/String" ~name:"charAt" ~desc:"(I)I" (fun vm args ->
      Vmstate.add_cost vm cost_string_op;
      let s = str_arg vm 0 args in
      let i = int_arg 1 args in
      if i < 0 || i >= String.length s then
        Vmstate.throw vm ~cls:Vmstate.c_aioobe ~message:(string_of_int i)
      else Some (Value.Int (Int32.of_int (Char.code s.[i]))));
  reg ~cls:"java/lang/String" ~name:"concat"
    ~desc:"(Ljava/lang/String;)Ljava/lang/String;" (fun vm args ->
      Vmstate.add_cost vm cost_string_op;
      Some (Value.Str (str_arg vm 0 args ^ str_arg vm 1 args)));
  reg ~cls:"java/lang/String" ~name:"equals" ~desc:"(Ljava/lang/Object;)I"
    (fun vm args ->
      Vmstate.add_cost vm cost_string_op;
      let s = str_arg vm 0 args in
      match arg 1 args with
      | Value.Str t -> Some (Value.Int (if String.equal s t then 1l else 0l))
      | _ -> Some (Value.Int 0l));
  reg ~cls:"java/lang/String" ~name:"hashCode" ~desc:"()I" (fun vm args ->
      Vmstate.add_cost vm cost_string_op;
      Some (Value.Int (Int32.of_int (Hashtbl.hash (str_arg vm 0 args)))));
  reg ~cls:"java/lang/String" ~name:"substring" ~desc:"(II)Ljava/lang/String;"
    (fun vm args ->
      Vmstate.add_cost vm cost_string_op;
      let s = str_arg vm 0 args in
      let i = int_arg 1 args and j = int_arg 2 args in
      if i < 0 || j > String.length s || i > j then
        Vmstate.throw vm ~cls:Vmstate.c_aioobe
          ~message:(Printf.sprintf "%d..%d" i j)
      else Some (Value.Str (String.sub s i (j - i))));
  reg ~cls:"java/lang/String" ~name:"valueOf" ~desc:"(I)Ljava/lang/String;"
    (fun vm args ->
      Vmstate.add_cost vm cost_string_op;
      Some (Value.Str (string_of_int (int_arg 0 args))));
  (* java/io/OutputStream *)
  reg ~cls:"java/io/OutputStream" ~name:"println" ~desc:"(Ljava/lang/String;)V"
    (fun vm args ->
      Vmstate.add_cost vm cost_println;
      Buffer.add_string vm.Vmstate.out (str_arg vm 1 args);
      Buffer.add_char vm.Vmstate.out '\n';
      None);
  reg ~cls:"java/io/OutputStream" ~name:"println" ~desc:"(I)V" (fun vm args ->
      Vmstate.add_cost vm cost_println;
      Buffer.add_string vm.Vmstate.out (string_of_int (int_arg 1 args));
      Buffer.add_char vm.Vmstate.out '\n';
      None);
  reg ~cls:"java/io/OutputStream" ~name:"print" ~desc:"(Ljava/lang/String;)V"
    (fun vm args ->
      Vmstate.add_cost vm cost_println;
      Buffer.add_string vm.Vmstate.out (str_arg vm 1 args);
      None);
  reg ~cls:"java/io/OutputStream" ~name:"write" ~desc:"(I)V" (fun vm args ->
      Vmstate.add_cost vm cost_println;
      Buffer.add_char vm.Vmstate.out (Char.chr (int_arg 1 args land 0xff));
      None);
  (* java/lang/System *)
  reg ~cls:"java/lang/System" ~name:"getProperty"
    ~desc:"(Ljava/lang/String;)Ljava/lang/String;" (fun vm args ->
      Vmstate.add_cost vm cost_get_property;
      run_hook vm "property.get";
      let key = str_arg vm 0 args in
      match Hashtbl.find_opt vm.Vmstate.props key with
      | Some v -> Some (Value.Str v)
      | None -> Some Value.Null);
  reg ~cls:"java/lang/System" ~name:"setProperty"
    ~desc:"(Ljava/lang/String;Ljava/lang/String;)V" (fun vm args ->
      Vmstate.add_cost vm cost_get_property;
      run_hook vm "property.set";
      Hashtbl.replace vm.Vmstate.props (str_arg vm 0 args) (str_arg vm 1 args);
      None);
  reg ~cls:"java/lang/System" ~name:"currentTimeMillis" ~desc:"()I"
    (fun vm _ ->
      Some
        (Value.Int (Int64.to_int32 (Int64.div (Vmstate.total_cost vm) 1000L))));
  (* java/lang/Thread *)
  reg ~cls:"java/lang/Thread" ~name:"currentThread"
    ~desc:"()Ljava/lang/Thread;" (fun vm _ ->
      let l = Classreg.lookup vm.Vmstate.reg "java/lang/Thread" in
      match Hashtbl.find_opt l.Classreg.statics "current" with
      | Some (Value.Obj _ as t) -> Some t
      | Some _ | None ->
        let t =
          Value.Obj
            (Heap.alloc_obj vm.Vmstate.heap ~cls:"java/lang/Thread"
               ~field_descs:[])
        in
        Hashtbl.replace l.Classreg.statics "current" t;
        Some t);
  reg ~cls:"java/lang/Thread" ~name:"setPriority" ~desc:"(I)V" (fun vm args ->
      Vmstate.add_cost vm cost_set_priority;
      run_hook vm "thread.setPriority";
      vm.Vmstate.thread_priority <- int_arg 1 args;
      None);
  reg ~cls:"java/lang/Thread" ~name:"getPriority" ~desc:"()I" (fun vm _ ->
      Some (Value.Int (Int32.of_int vm.Vmstate.thread_priority)));
  (* java/io/File *)
  reg ~cls:"java/io/File" ~name:"exists" ~desc:"()I" (fun vm args ->
      match arg 0 args with
      | Value.Obj o -> (
        match Hashtbl.find_opt o.Value.fields "path" with
        | Some (Value.Str p) ->
          Some
            (Value.Int (if Hashtbl.mem vm.Vmstate.files p then 1l else 0l))
        | Some _ | None -> Some (Value.Int 0l))
      | v -> Vmstate.fault "File.exists on %s" (Value.to_string v));
  (* java/io/FileInputStream *)
  reg ~cls:"java/io/FileInputStream" ~name:"open" ~desc:"(Ljava/lang/String;)V"
    (fun vm args ->
      Vmstate.add_cost vm cost_open_file;
      run_hook vm "file.open";
      let path = str_arg vm 1 args in
      if not (Hashtbl.mem vm.Vmstate.files path) then
        Vmstate.throw vm ~cls:Vmstate.c_io ~message:("no such file: " ^ path)
      else None);
  reg ~cls:"java/io/FileInputStream" ~name:"read" ~desc:"()I" (fun vm args ->
      Vmstate.add_cost vm cost_read_file;
      (* Note: no security hook here. The JDK never anticipated a check
         on read — the paper's motivating hole. *)
      match arg 0 args with
      | Value.Obj o -> (
        let path =
          match Hashtbl.find_opt o.Value.fields "path" with
          | Some (Value.Str p) -> p
          | Some _ | None -> ""
        in
        let pos =
          match Hashtbl.find_opt o.Value.fields "pos" with
          | Some (Value.Int p) -> Int32.to_int p
          | Some _ | None -> 0
        in
        match Hashtbl.find_opt vm.Vmstate.files path with
        | Some content when pos < String.length content ->
          Hashtbl.replace o.Value.fields "pos"
            (Value.Int (Int32.of_int (pos + 1)));
          Some (Value.Int (Int32.of_int (Char.code content.[pos])))
        | Some _ -> Some (Value.Int (-1l))
        | None ->
          Vmstate.throw vm ~cls:Vmstate.c_io ~message:("unopened: " ^ path))
      | v -> Vmstate.fault "read on %s" (Value.to_string v))

(* Java's decimal syntax: an optional sign, then ASCII digits, in int32
   range. [Int32.of_string] alone would also take OCaml literals such as
   0x10, 0b101, 0o17 and 1_000. *)
let parse_int s =
  let n = String.length s in
  let digits = if n > 0 && (s.[0] = '-' || s.[0] = '+') then String.sub s 1 (n - 1) else s in
  if digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits then
    Int32.of_string_opt s
  else None

let register_extra_natives vm =
  let reg = Vmstate.register_native vm in
  reg ~cls:"java/lang/Math" ~name:"min" ~desc:"(II)I" (fun _ args ->
      let a = int_arg 0 args and b = int_arg 1 args in
      Some (Value.Int (Int32.of_int (min a b))));
  reg ~cls:"java/lang/Math" ~name:"max" ~desc:"(II)I" (fun _ args ->
      let a = int_arg 0 args and b = int_arg 1 args in
      Some (Value.Int (Int32.of_int (max a b))));
  reg ~cls:"java/lang/Math" ~name:"abs" ~desc:"(I)I" (fun _ args ->
      Some (Value.Int (Int32.abs (Int32.of_int (int_arg 0 args)))));
  reg ~cls:"java/lang/Integer" ~name:"parseInt" ~desc:"(Ljava/lang/String;)I"
    (fun vm args ->
      let s = str_arg vm 0 args in
      match parse_int (String.trim s) with
      | Some n -> Some (Value.Int n)
      | None ->
        Vmstate.throw vm ~cls:"java/lang/NumberFormatException" ~message:s)

(* --- Installation. --- *)

let install vm =
  List.iter
    (fun cf ->
      Classreg.register vm.Vmstate.reg cf;
      match Classreg.find_loaded vm.Vmstate.reg cf.CF.name with
      | Some l -> l.Classreg.init_state <- Classreg.Initialized
      | None -> assert false)
    (boot_classes ());
  register_natives vm;
  register_extra_natives vm;
  (* Wire up System.out. *)
  let sys = Classreg.lookup vm.Vmstate.reg "java/lang/System" in
  let out =
    Value.Obj
      (Heap.alloc_obj vm.Vmstate.heap ~cls:"java/io/OutputStream"
         ~field_descs:[])
  in
  Hashtbl.replace sys.Classreg.statics "out" out

let fresh_vm ?budget ?provider () =
  let vm = Vmstate.create ?budget ?provider () in
  install vm;
  vm
