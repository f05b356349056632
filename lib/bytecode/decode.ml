(* Binary class-file decoder. Decoding performs the *syntactic* part of
   class-file checking: magic/version, pool-entry tags, and — because
   branch targets are converted from byte offsets back to instruction
   indices — the "branches land on instruction boundaries" part of the
   paper's phase-2 instruction-integrity verification. Everything else
   (pool-index kinds, bounds, type safety) belongs to the verifier. *)

exception Format_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Format_error s)) fmt

(* List.init does not guarantee left-to-right evaluation; decoding
   relies on it, so use an explicitly ordered variant. *)
let init_in_order n f =
  let rec go acc i = if i = n then List.rev acc else go (f i :: acc) (i + 1) in
  go [] 0

let decode_cp_entry r =
  match Io.Reader.u1 r with
  | 1 -> Cp.Utf8 (Io.Reader.str r)
  | 3 -> Cp.Int_const (Io.Reader.i4 r)
  | 7 -> Cp.Class (Io.Reader.u2 r)
  | 8 -> Cp.Str (Io.Reader.u2 r)
  | 9 ->
    let c = Io.Reader.u2 r in
    Cp.Fieldref (c, Io.Reader.u2 r)
  | 10 ->
    let c = Io.Reader.u2 r in
    Cp.Methodref (c, Io.Reader.u2 r)
  | 12 ->
    let n = Io.Reader.u2 r in
    Cp.Name_and_type (n, Io.Reader.u2 r)
  | tag -> fail "unknown constant-pool tag %d" tag

(* Decode one instruction; branch operands stay as byte offsets and are
   remapped to indices in a second pass. *)
let decode_instr r =
  match Io.Reader.u1 r with
  | 0 -> Instr.Nop
  | 1 -> Instr.Iconst (Io.Reader.i4 r)
  | 2 -> Instr.Ldc_str (Io.Reader.u2 r)
  | 3 -> Instr.Aconst_null
  | 4 -> Instr.Iload (Io.Reader.u2 r)
  | 5 -> Instr.Istore (Io.Reader.u2 r)
  | 6 -> Instr.Aload (Io.Reader.u2 r)
  | 7 -> Instr.Astore (Io.Reader.u2 r)
  | 8 ->
    let n = Io.Reader.u2 r in
    Instr.Iinc (n, Io.Reader.i2 r)
  | 9 -> Instr.Iadd
  | 10 -> Instr.Isub
  | 11 -> Instr.Imul
  | 12 -> Instr.Idiv
  | 13 -> Instr.Irem
  | 14 -> Instr.Ineg
  | 15 -> Instr.Ishl
  | 16 -> Instr.Ishr
  | 17 -> Instr.Iand
  | 18 -> Instr.Ior
  | 19 -> Instr.Ixor
  | 20 -> Instr.Dup
  | 21 -> Instr.Dup_x1
  | 22 -> Instr.Pop
  | 23 -> Instr.Swap
  | 24 -> Instr.Goto (Io.Reader.u4 r)
  | 25 -> Instr.If_icmp (Instr.Eq, Io.Reader.u4 r)
  | 26 -> Instr.If_icmp (Instr.Ne, Io.Reader.u4 r)
  | 27 -> Instr.If_icmp (Instr.Lt, Io.Reader.u4 r)
  | 28 -> Instr.If_icmp (Instr.Ge, Io.Reader.u4 r)
  | 29 -> Instr.If_icmp (Instr.Gt, Io.Reader.u4 r)
  | 30 -> Instr.If_icmp (Instr.Le, Io.Reader.u4 r)
  | 31 -> Instr.If_z (Instr.Eq, Io.Reader.u4 r)
  | 32 -> Instr.If_z (Instr.Ne, Io.Reader.u4 r)
  | 33 -> Instr.If_z (Instr.Lt, Io.Reader.u4 r)
  | 34 -> Instr.If_z (Instr.Ge, Io.Reader.u4 r)
  | 35 -> Instr.If_z (Instr.Gt, Io.Reader.u4 r)
  | 36 -> Instr.If_z (Instr.Le, Io.Reader.u4 r)
  | 37 -> Instr.If_acmp (true, Io.Reader.u4 r)
  | 38 -> Instr.If_acmp (false, Io.Reader.u4 r)
  | 39 -> Instr.If_null (true, Io.Reader.u4 r)
  | 40 -> Instr.If_null (false, Io.Reader.u4 r)
  | 41 -> Instr.Jsr (Io.Reader.u4 r)
  | 42 -> Instr.Ret (Io.Reader.u2 r)
  | 43 ->
    let low = Io.Reader.i4 r in
    let default = Io.Reader.u4 r in
    let n = Io.Reader.u4 r in
    if n > 0xffff then fail "oversized tableswitch (%d targets)" n;
    let targets = Array.make n 0 in
    for k = 0 to n - 1 do
      targets.(k) <- Io.Reader.u4 r
    done;
    Instr.Tableswitch { low; targets; default }
  | 44 -> Instr.Ireturn
  | 45 -> Instr.Areturn
  | 46 -> Instr.Return
  | 47 -> Instr.Getstatic (Io.Reader.u2 r)
  | 48 -> Instr.Putstatic (Io.Reader.u2 r)
  | 49 -> Instr.Getfield (Io.Reader.u2 r)
  | 50 -> Instr.Putfield (Io.Reader.u2 r)
  | 51 -> Instr.Invokevirtual (Io.Reader.u2 r)
  | 52 -> Instr.Invokestatic (Io.Reader.u2 r)
  | 53 -> Instr.Invokespecial (Io.Reader.u2 r)
  | 54 -> Instr.New (Io.Reader.u2 r)
  | 55 -> Instr.Newarray
  | 56 -> Instr.Anewarray (Io.Reader.u2 r)
  | 57 -> Instr.Arraylength
  | 58 -> Instr.Iaload
  | 59 -> Instr.Iastore
  | 60 -> Instr.Aaload
  | 61 -> Instr.Aastore
  | 62 -> Instr.Athrow
  | 63 -> Instr.Checkcast (Io.Reader.u2 r)
  | 64 -> Instr.Instanceof (Io.Reader.u2 r)
  | 65 -> Instr.Monitorenter
  | 66 -> Instr.Monitorexit
  | 67 -> Instr.Invokeinterface (Io.Reader.u2 r)
  | op -> fail "unknown opcode %d" op

(* Encoded size of the instruction an opcode starts, operands included:
   0 for the variable-size tableswitch, -1 for an unknown opcode. *)
let opcode_size op =
  match op with
  | 43 -> 0
  | 1 | 8 -> 5
  | 2 | 4 | 5 | 6 | 7 | 42 | 47 | 48 | 49 | 50 | 51 | 52 | 53 | 54 | 56 | 63
  | 64 | 67 ->
    3
  | _ when op >= 24 && op <= 41 -> 5
  | _ when op >= 0 && op <= 67 -> 1
  | _ -> -1

(* The opcode-size pre-scan: how many instructions the body in [r]
   holds, so decoding fills an exact-size array. It reads the bytes in
   place, without consuming them. An instruction the scan cannot size
   (unknown opcode, truncated, oversized switch) is the last one
   counted; decoding raises there, at the same index. *)
let count_instrs r =
  let data, start, limit = Io.Reader.unread r in
  let rec go pos n =
    if pos >= limit then n
    else
      match opcode_size (Char.code data.[pos]) with
      | 0 ->
        (* opcode, i4 low, u4 default, u4 count — oversized unless its
           high half is 0 — then the u4 targets *)
        if pos + 13 > limit || String.get_uint16_be data (pos + 9) <> 0 then
          n + 1
        else go (pos + 13 + (4 * String.get_uint16_be data (pos + 11))) (n + 1)
      | size when size > 0 && pos + size <= limit -> go (pos + size) (n + 1)
      | _ -> n + 1
  in
  go start 0

let decode_code r =
  let max_stack = Io.Reader.u2 r in
  let max_locals = Io.Reader.u2 r in
  let body_len = Io.Reader.u4 r in
  (* A zero-copy view of the body: offsets inside [br] are body-relative
     exactly as they were when the body was carved out with String.sub. *)
  let br = Io.Reader.sub r body_len in
  let n = count_instrs br in
  (* First pass: decode instructions, remembering each one's byte
     offset. *)
  let starts = Array.make n 0 in
  let instrs = Array.make n Instr.Nop in
  let idx = ref 0 in
  (try
     while !idx < n do
       starts.(!idx) <- Io.Reader.pos br;
       instrs.(!idx) <- decode_instr br;
       incr idx
     done
   with Io.Truncated _ -> fail "truncated instruction at index %d" !idx);
  (* Byte offset -> instruction index, by binary search over the start
     offsets; the body's end maps to [n]. *)
  let to_index off =
    if off = body_len then n
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if starts.(mid) < off then lo := mid + 1 else hi := mid
      done;
      if n > 0 && starts.(!lo) = off then !lo
      else fail "branch target %d not on an instruction boundary" off
    end
  in
  (* Last instruction first: with several bad targets, the one reported
     is the last instruction's. Only branches change, so only they are
     written back. *)
  for i = n - 1 downto 0 do
    let ins = instrs.(i) in
    let ins' = Instr.map_targets to_index ins in
    if ins' != ins then instrs.(i) <- ins'
  done;
  let n_handlers = Io.Reader.u2 r in
  let handlers =
    init_in_order n_handlers (fun _ ->
        let h_start = to_index (Io.Reader.u4 r) in
        let h_end = to_index (Io.Reader.u4 r) in
        let h_target = to_index (Io.Reader.u4 r) in
        let h_catch =
          match Io.Reader.u1 r with
          | 0 -> None
          | 1 -> Some (Io.Reader.str r)
          | k -> fail "bad catch-type flag %d" k
        in
        { Classfile.h_start; h_end; h_target; h_catch })
  in
  { Classfile.max_stack; max_locals; instrs; handlers }

let decode_method r =
  let m_flags = Classfile.access_of_u16 (Io.Reader.u2 r) in
  let m_name = Io.Reader.str r in
  let m_desc = Io.Reader.str r in
  let m_code =
    match Io.Reader.u1 r with
    | 0 -> None
    | 1 -> Some (decode_code r)
    | k -> fail "bad has-code flag %d" k
  in
  { Classfile.m_name; m_desc; m_flags; m_code }

let decode_field r =
  let f_flags = Classfile.access_of_u16 (Io.Reader.u2 r) in
  let f_name = Io.Reader.str r in
  let f_desc = Io.Reader.str r in
  { Classfile.f_name; f_desc; f_flags }

let decode_header r =
  if Io.Reader.u4 r <> Encode.magic then fail "bad magic";
  let minor = Io.Reader.u2 r in
  let major = Io.Reader.u2 r in
  if major <> Encode.version_major || minor <> Encode.version_minor then
    fail "unsupported version %d.%d" major minor

(* The class attributes, which end the file. *)
let decode_attributes r =
  let attributes =
    init_in_order (Io.Reader.u2 r) (fun _ ->
        let aname = Io.Reader.str r in
        let len = Io.Reader.u4 r in
        (aname, Io.Reader.raw r len))
  in
  if not (Io.Reader.at_end r) then
    fail "%d trailing bytes after class" (Io.Reader.remaining r);
  attributes

let class_of_bytes data =
  let r = Io.Reader.of_string data in
  try
    decode_header r;
    let cp_count = Io.Reader.u2 r in
    if cp_count < 1 then fail "empty constant pool";
    let pool = Array.make cp_count (Cp.Utf8 "") in
    for i = 1 to cp_count - 1 do
      pool.(i) <- decode_cp_entry r
    done;
    let c_flags = Classfile.access_of_u16 (Io.Reader.u2 r) in
    let name = Io.Reader.str r in
    let super =
      match Io.Reader.u1 r with
      | 0 -> None
      | 1 -> Some (Io.Reader.str r)
      | k -> fail "bad has-super flag %d" k
    in
    let interfaces =
      init_in_order (Io.Reader.u2 r) (fun _ -> Io.Reader.str r)
    in
    let fields = init_in_order (Io.Reader.u2 r) (fun _ -> decode_field r) in
    let methods = init_in_order (Io.Reader.u2 r) (fun _ -> decode_method r) in
    let attributes = decode_attributes r in
    {
      Classfile.name;
      super;
      interfaces;
      c_flags;
      fields;
      methods;
      pool;
      attributes;
    }
  with Io.Truncated msg -> fail "truncated class file (%s)" msg

(* Fast path for services that only need a class's attributes (e.g.
   the reflection service): walks the file skipping code bodies via
   their length prefixes instead of decoding instructions. *)
let class_attributes_of_bytes data =
  let r = Io.Reader.of_string data in
  try
    decode_header r;
    let cp_count = Io.Reader.u2 r in
    if cp_count < 1 then fail "empty constant pool";
    for _ = 1 to cp_count - 1 do
      ignore (decode_cp_entry r)
    done;
    let _flags = Io.Reader.u2 r in
    let _name = Io.Reader.str r in
    (match Io.Reader.u1 r with
    | 0 -> ()
    | 1 -> ignore (Io.Reader.str r)
    | k -> fail "bad has-super flag %d" k);
    for _ = 1 to Io.Reader.u2 r do
      ignore (Io.Reader.str r)
    done;
    (* fields *)
    for _ = 1 to Io.Reader.u2 r do
      ignore (Io.Reader.u2 r);
      ignore (Io.Reader.str r);
      ignore (Io.Reader.str r)
    done;
    (* methods: skip code bodies wholesale *)
    for _ = 1 to Io.Reader.u2 r do
      ignore (Io.Reader.u2 r);
      ignore (Io.Reader.str r);
      ignore (Io.Reader.str r);
      match Io.Reader.u1 r with
      | 0 -> ()
      | 1 ->
        ignore (Io.Reader.u2 r);
        ignore (Io.Reader.u2 r);
        let body_len = Io.Reader.u4 r in
        Io.Reader.skip r body_len;
        for _ = 1 to Io.Reader.u2 r do
          ignore (Io.Reader.u4 r);
          ignore (Io.Reader.u4 r);
          ignore (Io.Reader.u4 r);
          match Io.Reader.u1 r with
          | 0 -> ()
          | 1 -> ignore (Io.Reader.str r)
          | k -> fail "bad catch-type flag %d" k
        done
      | k -> fail "bad has-code flag %d" k
    done;
    decode_attributes r
  with Io.Truncated msg -> fail "truncated class file (%s)" msg
