(* Unit and property tests for the bytecode library: descriptors,
   constant pool, instructions, assembler, encoder/decoder. *)

module D = Bytecode.Descriptor
module CP = Bytecode.Cp
module I = Bytecode.Instr
module CF = Bytecode.Classfile
module B = Bytecode.Builder
module Enc = Bytecode.Encode
module Dec = Bytecode.Decode

let check = Alcotest.check
let fail = Alcotest.fail

(* --- Descriptors. --- *)

let test_descriptor_roundtrip () =
  let cases =
    [ "I"; "Ljava/lang/String;"; "[I"; "[[I"; "[Ljava/lang/Object;" ]
  in
  List.iter
    (fun s -> check Alcotest.string "field" s (D.ty_to_string (D.ty_of_string s)))
    cases;
  let mcases =
    [ "()V"; "(I)I"; "(ILjava/lang/String;[I)Ljava/lang/Object;"; "([[I)V" ]
  in
  List.iter
    (fun s ->
      check Alcotest.string "method" s
        (D.method_sig_to_string (D.method_sig_of_string s)))
    mcases

let test_descriptor_errors () =
  let bad_fields = [ ""; "X"; "L;"; "Lfoo"; "II"; "["; "(I)V" ] in
  List.iter
    (fun s ->
      match D.ty_of_string s with
      | _ -> fail (Printf.sprintf "accepted bad field descriptor %S" s)
      | exception D.Bad_descriptor _ -> ())
    bad_fields;
  let bad_methods = [ ""; "()"; "(I"; "()VV"; "(V)V"; "I" ] in
  List.iter
    (fun s ->
      match D.method_sig_of_string s with
      | _ -> fail (Printf.sprintf "accepted bad method descriptor %S" s)
      | exception D.Bad_descriptor _ -> ())
    bad_methods

let test_descriptor_slots () =
  check Alcotest.int "0 params" 0 (D.param_slots (D.method_sig_of_string "()V"));
  check Alcotest.int "3 params" 3
    (D.param_slots (D.method_sig_of_string "(I[ILjava/lang/String;)I"))

(* --- Constant pool. --- *)

let test_cp_interning () =
  let b = CP.Builder.create () in
  let i1 = CP.Builder.utf8 b "hello" in
  let i2 = CP.Builder.utf8 b "hello" in
  check Alcotest.int "utf8 interned" i1 i2;
  let f1 = CP.Builder.fieldref b ~cls:"A" ~name:"x" ~desc:"I" in
  let f2 = CP.Builder.fieldref b ~cls:"A" ~name:"x" ~desc:"I" in
  check Alcotest.int "fieldref interned" f1 f2;
  let pool = CP.Builder.to_pool b in
  let r = CP.get_fieldref pool f1 in
  check Alcotest.string "class" "A" r.CP.ref_class;
  check Alcotest.string "name" "x" r.CP.ref_name;
  check Alcotest.string "desc" "I" r.CP.ref_desc

let test_cp_of_pool_preserves_indices () =
  let b = CP.Builder.create () in
  let m = CP.Builder.methodref b ~cls:"A" ~name:"f" ~desc:"()V" in
  let pool = CP.Builder.to_pool b in
  let b2 = CP.Builder.of_pool pool in
  let m2 = CP.Builder.methodref b2 ~cls:"A" ~name:"f" ~desc:"()V" in
  check Alcotest.int "existing entry reused" m m2;
  let extra = CP.Builder.utf8 b2 "new" in
  check Alcotest.bool "new entry appended" true (extra >= CP.size pool)

let test_cp_errors () =
  let b = CP.Builder.create () in
  let u = CP.Builder.utf8 b "s" in
  let pool = CP.Builder.to_pool b in
  (match CP.entry pool 0 with
  | _ -> fail "index 0 should be invalid"
  | exception CP.Invalid_index 0 -> ());
  (match CP.get_class_name pool u with
  | _ -> fail "utf8 is not a class"
  | exception CP.Wrong_kind _ -> ());
  match CP.entry pool 999 with
  | _ -> fail "out of range"
  | exception CP.Invalid_index _ -> ()

(* --- Instructions. --- *)

let test_instr_targets () =
  check (Alcotest.list Alcotest.int) "goto" [ 7 ] (I.targets (I.Goto 7));
  check (Alcotest.list Alcotest.int) "switch" [ 1; 2; 3 ]
    (I.targets (I.Tableswitch { low = 0l; targets = [| 2; 3 |]; default = 1 }));
  check (Alcotest.list Alcotest.int) "iadd none" [] (I.targets I.Iadd);
  let mapped = I.map_targets (fun t -> t + 10) (I.If_icmp (I.Lt, 5)) in
  check (Alcotest.list Alcotest.int) "mapped" [ 15 ] (I.targets mapped)

let test_instr_successors () =
  check (Alcotest.list Alcotest.int) "fallthrough" [ 4 ]
    (I.successors 3 I.Iadd);
  check (Alcotest.list Alcotest.int) "branch+fall" [ 9; 4 ]
    (I.successors 3 (I.If_z (I.Eq, 9)));
  check (Alcotest.list Alcotest.int) "return" [] (I.successors 3 I.Return)

(* --- Builder. --- *)

let test_builder_labels () =
  let pool = CP.Builder.create () in
  let code =
    B.assemble pool
      [
        B.Const 10;
        B.Label "loop";
        B.Const 1;
        B.Sub;
        B.Dup;
        B.If_z (I.Gt, "loop");
        B.Return;
      ]
  in
  check Alcotest.int "length" 6 (Array.length code);
  match code.(4) with
  | I.If_z (I.Gt, 1) -> ()
  | i -> fail ("bad branch: " ^ I.to_string i)

let test_builder_duplicate_label () =
  let pool = CP.Builder.create () in
  match B.assemble pool [ B.Label "a"; B.Pop; B.Label "a"; B.Return ] with
  | _ -> fail "duplicate label accepted"
  | exception B.Duplicate_label "a" -> ()

let test_builder_unbound_label () =
  let pool = CP.Builder.create () in
  match B.assemble pool [ B.Goto "nowhere"; B.Return ] with
  | _ -> fail "unbound label accepted"
  | exception B.Unbound_label "nowhere" -> ()

let test_builder_max_locals () =
  let cls =
    B.class_ "T"
      [ B.meth ~flags:[ CF.Public; CF.Static ] "f" "(II)I"
          [ B.Iload 0; B.Iload 1; B.Add; B.Istore 5; B.Iload 5; B.Ireturn ] ]
  in
  match CF.find_method cls "f" "(II)I" with
  | Some { CF.m_code = Some c; _ } ->
    check Alcotest.bool "max_locals >= 6" true (c.CF.max_locals >= 6);
    check Alcotest.bool "max_stack >= 2" true (c.CF.max_stack >= 2)
  | _ -> fail "method not found"

(* --- Encode / decode. --- *)

let sample_class () =
  B.class_ "com/example/Sample" ~super:"java/lang/Object"
    ~interfaces:[ "com/example/Iface" ]
    ~fields:
      [
        B.field "x" "I";
        B.field ~flags:[ CF.Public; CF.Static ] "shared" "Ljava/lang/String;";
      ]
    ~attributes:[ ("com.example.note", "\x00\x01binary\xffdata") ]
    [
      B.default_init "java/lang/Object";
      B.meth ~flags:[ CF.Public; CF.Static ] "main" "()V"
        ~handlers:[ ("try", "end", "catch", Some "java/lang/Exception") ]
        [
          B.Label "try";
          B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
          B.Push_str "hi";
          B.Invokevirtual
            ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
          B.Label "end";
          B.Return;
          B.Label "catch";
          B.Pop;
          B.Return;
        ];
      B.meth "loop" "(I)I"
        [
          B.Const 0;
          B.Istore 2;
          B.Label "top";
          B.Iload 1;
          B.If_z (I.Le, "done");
          B.Iload 2;
          B.Iload 1;
          B.Add;
          B.Istore 2;
          B.Inc (1, -1);
          B.Goto "top";
          B.Label "done";
          B.Iload 2;
          B.Ireturn;
        ];
    ]

let test_roundtrip_sample () =
  let cls = sample_class () in
  let bytes = Enc.class_to_bytes cls in
  let cls' = Dec.class_of_bytes bytes in
  check Alcotest.bool "roundtrip equal" true (cls = cls')

let test_roundtrip_invokeinterface () =
  let cls =
    B.class_ "IfaceUser"
      [
        B.meth ~flags:[ CF.Public; CF.Static ] "f" "(Ljava/lang/Object;)I"
          [
            B.Aload 0;
            B.Invokeinterface ("some/Iface", "m", "()I");
            B.Ireturn;
          ];
      ]
  in
  let cls' = Dec.class_of_bytes (Enc.class_to_bytes cls) in
  check Alcotest.bool "invokeinterface roundtrip" true (cls = cls')

(* One of every opcode, in opcode order: decoding sizes a body with a
   pre-scan over opcodes, which must agree with the decoder on each. *)
let test_roundtrip_every_opcode () =
  let instrs =
    I.
      [|
        Nop; Iconst (-5l); Ldc_str 1; Aconst_null; Iload 0; Istore 1;
        Aload 2; Astore 3; Iinc (4, -300); Iadd; Isub; Imul; Idiv; Irem;
        Ineg; Ishl; Ishr; Iand; Ior; Ixor; Dup; Dup_x1; Pop; Swap; Goto 0;
        If_icmp (Eq, 1); If_icmp (Ne, 2); If_icmp (Lt, 3); If_icmp (Ge, 4);
        If_icmp (Gt, 5); If_icmp (Le, 6); If_z (Eq, 7); If_z (Ne, 8);
        If_z (Lt, 9); If_z (Ge, 10); If_z (Gt, 11); If_z (Le, 12);
        If_acmp (true, 13); If_acmp (false, 14); If_null (true, 15);
        If_null (false, 16); Jsr 17; Ret 5;
        Tableswitch { low = -1l; targets = [| 18; 68 |]; default = 19 };
        Ireturn; Areturn; Return; Getstatic 1; Putstatic 2; Getfield 3;
        Putfield 4; Invokevirtual 5; Invokestatic 6; Invokespecial 7; New 8;
        Newarray; Anewarray 9; Arraylength; Iaload; Iastore; Aaload;
        Aastore; Athrow; Checkcast 10; Instanceof 11; Monitorenter;
        Monitorexit; Invokeinterface 12;
      |]
  in
  check Alcotest.int "every opcode" 68 (Array.length instrs);
  let code = { CF.max_stack = 4; max_locals = 6; instrs; handlers = [] } in
  let cls =
    CF.map_methods
      (fun m -> { m with CF.m_code = Some code })
      (B.class_ "Ops" [ B.meth "m" "()V" [ B.Return ] ])
  in
  check Alcotest.bool "roundtrip" true
    (Dec.class_of_bytes (Enc.class_to_bytes cls) = cls)

let test_attributes_fast_path () =
  let cls = sample_class () in
  let bytes = Enc.class_to_bytes cls in
  check Alcotest.bool "fast path = full decode attributes" true
    (Dec.class_attributes_of_bytes bytes
    = (Dec.class_of_bytes bytes).CF.attributes);
  (match Dec.class_attributes_of_bytes "garbage" with
  | _ -> fail "garbage accepted"
  | exception Dec.Format_error _ -> ());
  (* What full decode rejects, the fast path rejects with the same
     message: an unsupported version, trailing bytes. *)
  let version_99_3 =
    let b = Bytes.of_string bytes in
    Bytes.set_uint16_be b 4 3;
    Bytes.set_uint16_be b 6 99;
    Bytes.to_string b
  in
  List.iter
    (fun (input, want) ->
      let msg decode =
        match decode input with
        | _ -> "ok"
        | exception Dec.Format_error e -> e
      in
      check Alcotest.string "full decode" want (msg Dec.class_of_bytes);
      check Alcotest.string "fast path" want
        (msg Dec.class_attributes_of_bytes))
    [
      (version_99_3, "unsupported version 99.3");
      (bytes ^ "\000\000\000\000", "4 trailing bytes after class");
    ]

let test_roundtrip_switch_and_jsr () =
  let cls =
    B.class_ "S"
      [
        B.meth ~flags:[ CF.Public; CF.Static ] "f" "(I)I"
          [
            B.Iload 0;
            B.Switch (0, [ "a"; "b" ], "dflt");
            B.Label "a";
            B.Const 100;
            B.Ireturn;
            B.Label "b";
            B.Jsr "sub";
            B.Const 200;
            B.Ireturn;
            B.Label "dflt";
            B.Const (-1);
            B.Ireturn;
            B.Label "sub";
            B.Astore 3;
            B.Ret 3;
          ];
      ]
  in
  let cls' = Dec.class_of_bytes (Enc.class_to_bytes cls) in
  check Alcotest.bool "switch/jsr roundtrip" true (cls = cls')

let test_decode_bad_magic () =
  match Dec.class_of_bytes "NOTACLASSFILE---" with
  | _ -> fail "bad magic accepted"
  | exception Dec.Format_error _ -> ()

let test_decode_truncated () =
  let bytes = Enc.class_to_bytes (sample_class ()) in
  for cut = 1 to 20 do
    let len = String.length bytes * cut / 21 in
    match Dec.class_of_bytes (String.sub bytes 0 len) with
    | _ -> fail (Printf.sprintf "truncation at %d accepted" len)
    | exception Dec.Format_error _ -> ()
  done

let test_decode_trailing_junk () =
  let bytes = Enc.class_to_bytes (sample_class ()) ^ "junk" in
  match Dec.class_of_bytes bytes with
  | _ -> fail "trailing junk accepted"
  | exception Dec.Format_error _ -> ()

let test_decode_misaligned_branch () =
  (* Encode a goto, then corrupt its target to point into the middle
     of an instruction. Goto encodes as [opcode; u4 offset]. *)
  let cls =
    B.class_ "M"
      [
        B.meth ~flags:[ CF.Public; CF.Static ] "f" "()V"
          [ B.Const 1; B.Pop; B.Goto "l"; B.Label "l"; B.Return ];
      ]
  in
  let bytes = Bytes.of_string (Enc.class_to_bytes cls) in
  (* Find the goto opcode (24) and nudge its 4-byte operand to an
     offset inside the iconst instruction (offset 1). *)
  let found = ref false in
  for i = 0 to Bytes.length bytes - 5 do
    if (not !found) && Bytes.get_uint8 bytes i = 24 then begin
      found := true;
      Bytes.set_uint8 bytes (i + 1) 0;
      Bytes.set_uint8 bytes (i + 2) 0;
      Bytes.set_uint8 bytes (i + 3) 0;
      Bytes.set_uint8 bytes (i + 4) 3
      (* byte 3 is inside the 5-byte iconst at offset 0 *)
    end
  done;
  check Alcotest.bool "found goto" true !found;
  match Dec.class_of_bytes (Bytes.to_string bytes) with
  | _ -> fail "misaligned branch accepted"
  | exception Dec.Format_error _ -> ()

let test_size_accounting () =
  let cls = sample_class () in
  check Alcotest.int "class_size = length"
    (String.length (Enc.class_to_bytes cls))
    (Enc.class_size cls);
  check Alcotest.bool "non-trivial" true (Enc.class_size cls > 100)

(* --- Writer overflow (regression). ---

   The u2/i2/str writers used to mask out-of-range values with [land
   0xff] per byte, silently corrupting any class whose pool, table or
   string outgrew a 16-bit field. They must raise [Overflow] instead. *)

let expect_overflow what ~msg f =
  match f () with
  | () -> fail (what ^ ": expected Overflow")
  | exception Bytecode.Io.Overflow m -> check Alcotest.string what msg m

let test_writer_overflow () =
  let module W = Bytecode.Io.Writer in
  expect_overflow "u2 65536" ~msg:"u2: value 65536 exceeds 16 bits" (fun () ->
      W.u2 (W.create ()) 65536);
  expect_overflow "u2 negative" ~msg:"u2: value -1 exceeds 16 bits" (fun () ->
      W.u2 (W.create ()) (-1));
  expect_overflow "i2 32768" ~msg:"i2: value 32768 exceeds 16 bits" (fun () ->
      W.i2 (W.create ()) 32768);
  expect_overflow "i2 -32769" ~msg:"i2: value -32769 exceeds 16 bits"
    (fun () -> W.i2 (W.create ()) (-32769));
  (* a length-prefixed string over 64 KiB - 1 *)
  expect_overflow "str 65536 bytes"
    ~msg:"str: string length 65536 exceeds 65535" (fun () ->
      W.str (W.create ()) (String.make 65536 'x'));
  (* boundary values still encode *)
  let w = W.create () in
  W.u2 w 65535;
  W.i2 w (-32768);
  W.i2 w 32767;
  W.str w (String.make 65535 'x');
  check Alcotest.int "boundary bytes" (2 + 2 + 2 + 2 + 65535)
    (String.length (W.contents w))

(* A byte-at-a-time writer, one [Buffer.add_char] per byte: the
   reference the word-wide writes must match byte for byte. *)
module Bytewise = struct
  let u1 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u2 b v =
    u1 b (v lsr 8);
    u1 b (v land 0xff)

  let u4 b v =
    u1 b ((v lsr 24) land 0xff);
    u1 b ((v lsr 16) land 0xff);
    u1 b ((v lsr 8) land 0xff);
    u1 b (v land 0xff)

  let i4 b (v : int32) = u4 b (Int32.to_int v land 0xffffffff)
  let i2 b v = u2 b (v land 0xffff)
end

type write = U1 of int | U2 of int | U4 of int | I4 of int32 | I2 of int

let write_both ops =
  let module W = Bytecode.Io.Writer in
  let w = W.create () and r = Buffer.create 16 in
  List.iter
    (function
      | U1 v ->
        W.u1 w v;
        Bytewise.u1 r v
      | U2 v ->
        W.u2 w v;
        Bytewise.u2 r v
      | U4 v ->
        W.u4 w v;
        Bytewise.u4 r v
      | I4 v ->
        W.i4 w v;
        Bytewise.i4 r v
      | I2 v ->
        W.i2 w v;
        Bytewise.i2 r v)
    ops;
  (W.contents w, Buffer.contents r)

let test_writer_bytewise () =
  let words =
    [ 0; 0xff; 0x100; 0xffff; 0x10000; 0x7fffffff; 0x80000000; 0xcafebabe;
      0xffffffff; 0x1_0000_0001; -1; Int32.to_int Int32.min_int; max_int;
      min_int ]
  in
  let ops =
    List.map (fun v -> U1 v) words
    @ List.map (fun v -> U2 v) [ 0; 0xff; 0x100; 0x7fff; 0x8000; 0xffff ]
    @ List.map (fun v -> U4 v) words
    @ List.map
        (fun v -> I4 v)
        [ 0l; 0xffl; 0xffffl; Int32.max_int; Int32.min_int; 0xcafebabel; -1l ]
    @ List.map (fun v -> I2 v) [ -32768; -1; 0; 0xff; 32767 ]
  in
  (* Each value alone, then all in one buffer past its first resize. *)
  List.iter
    (fun op ->
      let word, bytewise = write_both [ op ] in
      check Alcotest.string "one value" bytewise word)
    ops;
  let word, bytewise = write_both (ops @ ops @ ops @ ops @ ops) in
  check Alcotest.bool "past the first resize" true (String.length word > 256);
  check Alcotest.string "one buffer" bytewise word

let prop_writer_bytewise =
  let open QCheck in
  let op =
    oneof
      [
        map (fun v -> U1 v) int;
        map (fun v -> U2 v) (int_range 0 0xffff);
        map (fun v -> U4 v) int;
        map (fun v -> I4 v) int32;
        map (fun v -> I2 v) (int_range (-32768) 32767);
      ]
  in
  Test.make ~name:"word-wide writes match byte-wise" ~count:300
    (list op)
    (fun ops ->
      let word, bytewise = write_both ops in
      String.equal word bytewise)

let test_encode_overwide_table () =
  (* A method whose locals outgrow the u2 max_locals field: the encoder
     must refuse the class rather than emit a truncated count. *)
  let cls = sample_class () in
  let cls =
    {
      cls with
      CF.methods =
        List.map
          (fun m ->
            match m.CF.m_code with
            | None -> m
            | Some c ->
              { m with CF.m_code = Some { c with CF.max_locals = 70_000 } })
          cls.CF.methods;
    }
  in
  expect_overflow "max_locals 70000" ~msg:"u2: value 70000 exceeds 16 bits"
    (fun () -> ignore (Enc.class_to_bytes cls))

(* --- Reader slice boundaries. ---

   [Reader.sub] readers share the parent's backing buffer; the
   interesting cases are the edges: empty slices, slices ending exactly
   at the parent's end, and slices of slices. *)

let test_reader_slice_boundaries () =
  let module R = Bytecode.Io.Reader in
  let r = R.of_string "\x00\x01\x02\x03\x04\x05\x06\x07" in
  (* empty slice: valid, immediately at end, parent not advanced past it *)
  let empty = R.sub r 0 in
  check Alcotest.bool "empty slice at_end" true (R.at_end empty);
  check Alcotest.int "empty slice pos" 0 (R.pos empty);
  (match R.u1 empty with
  | _ -> fail "read past empty slice"
  | exception Bytecode.Io.Truncated _ -> ());
  check Alcotest.int "parent pos unchanged" 0 (R.pos r);
  (* nested slices: positions are relative to each slice's start *)
  check Alcotest.int "parent u2" 0x0001 (R.u2 r);
  let outer = R.sub r 4 in
  check Alcotest.int "outer pos" 0 (R.pos outer);
  check Alcotest.int "outer u1" 2 (R.u1 outer);
  let inner = R.sub outer 2 in
  check Alcotest.int "inner pos" 0 (R.pos inner);
  check Alcotest.int "inner u2" 0x0304 (R.u2 inner);
  check Alcotest.bool "inner at_end" true (R.at_end inner);
  (* the outer slice advanced past the inner's bytes *)
  check Alcotest.int "outer u1 after inner" 5 (R.u1 outer);
  check Alcotest.bool "outer at_end" true (R.at_end outer);
  (match R.u1 outer with
  | _ -> fail "read past outer slice"
  | exception Bytecode.Io.Truncated _ -> ());
  (* slice ending exactly at the parent's end *)
  check Alcotest.int "parent resumes after slice" 6 (R.pos r);
  let tail = R.sub r 2 in
  check Alcotest.bool "parent at_end" true (R.at_end r);
  check Alcotest.int "tail u2" 0x0607 (R.u2 tail);
  check Alcotest.bool "tail at_end" true (R.at_end tail);
  (* a slice cannot extend past its parent's remaining bytes *)
  let r2 = R.of_string "ab" in
  match R.sub r2 3 with
  | _ -> fail "oversized slice accepted"
  | exception Bytecode.Io.Truncated _ -> ()

(* --- Disassembler smoke. --- *)

let test_disasm () =
  let s = Bytecode.Disasm.class_to_string (sample_class ()) in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "has class name" true (contains "com/example/Sample");
  check Alcotest.bool "has println ref" true (contains "println");
  check Alcotest.bool "has handler" true (contains "handler")

(* --- Property tests. --- *)

(* Generator of random but structurally valid classes: straight-line
   arithmetic bodies with occasional forward branches, always ending in
   return. *)
let gen_class =
  let open QCheck.Gen in
  let gen_name =
    map (fun n -> Printf.sprintf "gen/Class%d" n) (int_range 0 1000)
  in
  let gen_body =
    let* n = int_range 1 30 in
    let* ops =
      list_repeat n
        (oneof
           [
             return (B.Const 1);
             return (B.Const 42);
             map (fun k -> B.Const k) (int_range (-100) 100);
             return B.Dup;
             return (B.Push_str "s");
             return B.Pop;
           ])
    in
    (* Keep the stack non-empty at the end so we can return cleanly;
       pad with consts and end with Return. *)
    return ([ B.Const 0 ] @ ops @ [ B.Label "end"; B.Return ])
  in
  let* name = gen_name in
  let* nmeths = int_range 1 5 in
  let* bodies = list_repeat nmeths gen_body in
  let meths =
    List.mapi
      (fun i body ->
        B.meth
          ~flags:[ CF.Public; CF.Static ]
          (Printf.sprintf "m%d" i) "()V" body)
      bodies
  in
  let* nfields = int_range 0 4 in
  let fields =
    List.init nfields (fun i ->
        B.field (Printf.sprintf "f%d" i) (if i mod 2 = 0 then "I" else "[I"))
  in
  return (B.class_ name ~fields meths)

let arbitrary_class =
  QCheck.make ~print:(fun c -> Bytecode.Disasm.class_to_string c) gen_class

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:200 arbitrary_class
    (fun cls -> Dec.class_of_bytes (Enc.class_to_bytes cls) = cls)

let prop_attrs_fast_path =
  QCheck.Test.make ~name:"attributes-only decode agrees with full decode"
    ~count:200 arbitrary_class (fun cls ->
      let bytes = Enc.class_to_bytes cls in
      Dec.class_attributes_of_bytes bytes
      = (Dec.class_of_bytes bytes).CF.attributes)

let prop_size_matches =
  QCheck.Test.make ~name:"instr encoded_size consistent" ~count:200
    arbitrary_class (fun cls ->
      (* Sum of per-instruction sizes equals the encoded body length
         implied by a re-decode. *)
      let cls' = Dec.class_of_bytes (Enc.class_to_bytes cls) in
      List.for_all2
        (fun m m' ->
          match (m.CF.m_code, m'.CF.m_code) with
          | Some c, Some c' -> Array.length c.CF.instrs = Array.length c'.CF.instrs
          | None, None -> true
          | _ -> false)
        cls.CF.methods cls'.CF.methods)

let () =
  let qt =
    List.map QCheck_alcotest.to_alcotest
      [ prop_roundtrip; prop_size_matches; prop_attrs_fast_path ]
  in
  Alcotest.run "bytecode"
    [
      ( "descriptor",
        [
          Alcotest.test_case "roundtrip" `Quick test_descriptor_roundtrip;
          Alcotest.test_case "errors" `Quick test_descriptor_errors;
          Alcotest.test_case "slots" `Quick test_descriptor_slots;
        ] );
      ( "cp",
        [
          Alcotest.test_case "interning" `Quick test_cp_interning;
          Alcotest.test_case "of_pool" `Quick test_cp_of_pool_preserves_indices;
          Alcotest.test_case "errors" `Quick test_cp_errors;
        ] );
      ( "instr",
        [
          Alcotest.test_case "targets" `Quick test_instr_targets;
          Alcotest.test_case "successors" `Quick test_instr_successors;
        ] );
      ( "builder",
        [
          Alcotest.test_case "labels" `Quick test_builder_labels;
          Alcotest.test_case "duplicate label" `Quick
            test_builder_duplicate_label;
          Alcotest.test_case "unbound label" `Quick test_builder_unbound_label;
          Alcotest.test_case "max locals/stack" `Quick test_builder_max_locals;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip sample" `Quick test_roundtrip_sample;
          Alcotest.test_case "roundtrip switch/jsr" `Quick
            test_roundtrip_switch_and_jsr;
          Alcotest.test_case "roundtrip invokeinterface" `Quick
            test_roundtrip_invokeinterface;
          Alcotest.test_case "roundtrip every opcode" `Quick
            test_roundtrip_every_opcode;
          Alcotest.test_case "attributes fast path" `Quick
            test_attributes_fast_path;
          Alcotest.test_case "bad magic" `Quick test_decode_bad_magic;
          Alcotest.test_case "truncated" `Quick test_decode_truncated;
          Alcotest.test_case "trailing junk" `Quick test_decode_trailing_junk;
          Alcotest.test_case "misaligned branch" `Quick
            test_decode_misaligned_branch;
          Alcotest.test_case "size accounting" `Quick test_size_accounting;
        ] );
      ( "io",
        [
          Alcotest.test_case "writer overflow" `Quick test_writer_overflow;
          Alcotest.test_case "writer matches byte-wise" `Quick
            test_writer_bytewise;
          QCheck_alcotest.to_alcotest prop_writer_bytewise;
          Alcotest.test_case "over-wide table" `Quick
            test_encode_overwide_table;
          Alcotest.test_case "reader slice boundaries" `Quick
            test_reader_slice_boundaries;
        ] );
      ("disasm", [ Alcotest.test_case "smoke" `Quick test_disasm ]);
      ("properties", qt);
    ]
