(* Binary class-file encoder. The layout mirrors the real class-file
   format (magic, versioned header, constant pool, members, attributes)
   with two simplifications documented in DESIGN.md: class names in the
   header are stored as direct strings rather than pool indices, and
   branch operands are absolute byte offsets rather than relative
   ones. *)

let magic = 0xCAFEBABE
let version_major = 45
let version_minor = 3

let encode_cp_entry w = function
  | Cp.Utf8 s ->
    Io.Writer.u1 w 1;
    Io.Writer.str w s
  | Cp.Int_const n ->
    Io.Writer.u1 w 3;
    Io.Writer.i4 w n
  | Cp.Class i ->
    Io.Writer.u1 w 7;
    Io.Writer.u2 w i
  | Cp.Str i ->
    Io.Writer.u1 w 8;
    Io.Writer.u2 w i
  | Cp.Fieldref (c, nt) ->
    Io.Writer.u1 w 9;
    Io.Writer.u2 w c;
    Io.Writer.u2 w nt
  | Cp.Methodref (c, nt) ->
    Io.Writer.u1 w 10;
    Io.Writer.u2 w c;
    Io.Writer.u2 w nt
  | Cp.Name_and_type (n, d) ->
    Io.Writer.u1 w 12;
    Io.Writer.u2 w n;
    Io.Writer.u2 w d

(* Byte offset of each instruction index; one extra slot holds the
   total code size so that exclusive end indices are encodable. *)
let offsets (instrs : Instr.t array) =
  let n = Array.length instrs in
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + Instr.encoded_size instrs.(i)
  done;
  off

let opcode_of : Instr.t -> int = function
  | Instr.Nop -> 0
  | Instr.Iconst _ -> 1
  | Instr.Ldc_str _ -> 2
  | Instr.Aconst_null -> 3
  | Instr.Iload _ -> 4
  | Instr.Istore _ -> 5
  | Instr.Aload _ -> 6
  | Instr.Astore _ -> 7
  | Instr.Iinc _ -> 8
  | Instr.Iadd -> 9
  | Instr.Isub -> 10
  | Instr.Imul -> 11
  | Instr.Idiv -> 12
  | Instr.Irem -> 13
  | Instr.Ineg -> 14
  | Instr.Ishl -> 15
  | Instr.Ishr -> 16
  | Instr.Iand -> 17
  | Instr.Ior -> 18
  | Instr.Ixor -> 19
  | Instr.Dup -> 20
  | Instr.Dup_x1 -> 21
  | Instr.Pop -> 22
  | Instr.Swap -> 23
  | Instr.Goto _ -> 24
  | Instr.If_icmp (Instr.Eq, _) -> 25
  | Instr.If_icmp (Instr.Ne, _) -> 26
  | Instr.If_icmp (Instr.Lt, _) -> 27
  | Instr.If_icmp (Instr.Ge, _) -> 28
  | Instr.If_icmp (Instr.Gt, _) -> 29
  | Instr.If_icmp (Instr.Le, _) -> 30
  | Instr.If_z (Instr.Eq, _) -> 31
  | Instr.If_z (Instr.Ne, _) -> 32
  | Instr.If_z (Instr.Lt, _) -> 33
  | Instr.If_z (Instr.Ge, _) -> 34
  | Instr.If_z (Instr.Gt, _) -> 35
  | Instr.If_z (Instr.Le, _) -> 36
  | Instr.If_acmp (true, _) -> 37
  | Instr.If_acmp (false, _) -> 38
  | Instr.If_null (true, _) -> 39
  | Instr.If_null (false, _) -> 40
  | Instr.Jsr _ -> 41
  | Instr.Ret _ -> 42
  | Instr.Tableswitch _ -> 43
  | Instr.Ireturn -> 44
  | Instr.Areturn -> 45
  | Instr.Return -> 46
  | Instr.Getstatic _ -> 47
  | Instr.Putstatic _ -> 48
  | Instr.Getfield _ -> 49
  | Instr.Putfield _ -> 50
  | Instr.Invokevirtual _ -> 51
  | Instr.Invokestatic _ -> 52
  | Instr.Invokespecial _ -> 53
  | Instr.New _ -> 54
  | Instr.Newarray -> 55
  | Instr.Anewarray _ -> 56
  | Instr.Arraylength -> 57
  | Instr.Iaload -> 58
  | Instr.Iastore -> 59
  | Instr.Aaload -> 60
  | Instr.Aastore -> 61
  | Instr.Athrow -> 62
  | Instr.Checkcast _ -> 63
  | Instr.Instanceof _ -> 64
  | Instr.Monitorenter -> 65
  | Instr.Monitorexit -> 66
  | Instr.Invokeinterface _ -> 67

let encode_instr w off i =
  Io.Writer.u1 w (opcode_of i);
  match i with
  | Instr.Nop | Instr.Aconst_null | Instr.Iadd | Instr.Isub | Instr.Imul
  | Instr.Idiv | Instr.Irem | Instr.Ineg | Instr.Ishl | Instr.Ishr
  | Instr.Iand | Instr.Ior | Instr.Ixor | Instr.Dup | Instr.Dup_x1 | Instr.Pop
  | Instr.Swap | Instr.Ireturn | Instr.Areturn | Instr.Return | Instr.Newarray
  | Instr.Arraylength | Instr.Iaload | Instr.Iastore | Instr.Aaload
  | Instr.Aastore | Instr.Athrow | Instr.Monitorenter | Instr.Monitorexit ->
    ()
  | Instr.Iconst n -> Io.Writer.i4 w n
  | Instr.Ldc_str k
  | Instr.Getstatic k
  | Instr.Putstatic k
  | Instr.Getfield k
  | Instr.Putfield k
  | Instr.Invokevirtual k
  | Instr.Invokestatic k
  | Instr.Invokespecial k
  | Instr.Invokeinterface k
  | Instr.New k
  | Instr.Anewarray k
  | Instr.Checkcast k
  | Instr.Instanceof k ->
    Io.Writer.u2 w k
  | Instr.Iload n | Instr.Istore n | Instr.Aload n | Instr.Astore n
  | Instr.Ret n ->
    Io.Writer.u2 w n
  | Instr.Iinc (n, d) ->
    Io.Writer.u2 w n;
    Io.Writer.i2 w d
  | Instr.Goto t
  | Instr.If_icmp (_, t)
  | Instr.If_z (_, t)
  | Instr.If_acmp (_, t)
  | Instr.If_null (_, t)
  | Instr.Jsr t ->
    Io.Writer.u4 w off.(t)
  | Instr.Tableswitch { low; targets; default } ->
    Io.Writer.i4 w low;
    Io.Writer.u4 w off.(default);
    Io.Writer.u4 w (Array.length targets);
    for j = 0 to Array.length targets - 1 do
      Io.Writer.u4 w off.(targets.(j))
    done

let encode_code w (code : Classfile.code) =
  let instrs = code.instrs in
  let off = offsets instrs in
  Io.Writer.u2 w code.max_stack;
  Io.Writer.u2 w code.max_locals;
  (* [offsets] already knows the body size (its final slot), so the
     body streams straight into [w] — no staging buffer, no copy. *)
  Io.Writer.u4 w off.(Array.length instrs);
  for i = 0 to Array.length instrs - 1 do
    encode_instr w off instrs.(i)
  done;
  Io.Writer.u2 w (List.length code.handlers);
  List.iter
    (fun h ->
      Io.Writer.u4 w off.(h.Classfile.h_start);
      Io.Writer.u4 w off.(h.Classfile.h_end);
      Io.Writer.u4 w off.(h.Classfile.h_target);
      match h.Classfile.h_catch with
      | None -> Io.Writer.u1 w 0
      | Some c ->
        Io.Writer.u1 w 1;
        Io.Writer.str w c)
    code.handlers

let encode_method w (m : Classfile.meth) =
  Io.Writer.u2 w (Classfile.access_to_u16 m.m_flags);
  Io.Writer.str w m.m_name;
  Io.Writer.str w m.m_desc;
  match m.m_code with
  | None -> Io.Writer.u1 w 0
  | Some code ->
    Io.Writer.u1 w 1;
    encode_code w code

let encode_field w (f : Classfile.field) =
  Io.Writer.u2 w (Classfile.access_to_u16 f.f_flags);
  Io.Writer.str w f.f_name;
  Io.Writer.str w f.f_desc

let class_to_bytes (cls : Classfile.t) =
  let w = Io.Writer.create () in
  Io.Writer.u4 w magic;
  Io.Writer.u2 w version_minor;
  Io.Writer.u2 w version_major;
  Io.Writer.u2 w (Cp.size cls.pool);
  for i = 1 to Array.length cls.pool - 1 do
    encode_cp_entry w cls.pool.(i)
  done;
  Io.Writer.u2 w (Classfile.access_to_u16 cls.c_flags);
  Io.Writer.str w cls.name;
  (match cls.super with
  | None -> Io.Writer.u1 w 0
  | Some s ->
    Io.Writer.u1 w 1;
    Io.Writer.str w s);
  Io.Writer.u2 w (List.length cls.interfaces);
  List.iter (Io.Writer.str w) cls.interfaces;
  Io.Writer.u2 w (List.length cls.fields);
  List.iter (encode_field w) cls.fields;
  Io.Writer.u2 w (List.length cls.methods);
  List.iter (encode_method w) cls.methods;
  Io.Writer.u2 w (List.length cls.attributes);
  List.iter
    (fun (name, value) ->
      Io.Writer.str w name;
      Io.Writer.u4 w (String.length value);
      Io.Writer.raw w value)
    cls.attributes;
  Io.Writer.contents w

let class_size cls = String.length (class_to_bytes cls)
