(* Symbolic assembler: the convenient front end for constructing
   classes. Instructions reference labels by name and members by
   (class, name, descriptor) triples; [assemble] resolves labels to
   instruction indices and interns member references into the constant
   pool. Labels occupy no code slot. *)

type instr =
  | Label of string
  | Const of int
  | Push_str of string
  | Null
  | Iload of int
  | Istore of int
  | Aload of int
  | Astore of int
  | Inc of int * int
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Neg
  | Shl
  | Shr
  | And
  | Or
  | Xor
  | Dup
  | Dup_x1
  | Pop
  | Swap
  | Goto of string
  | If_icmp of Instr.icmp * string
  | If_z of Instr.icmp * string
  | If_acmp of bool * string
  | If_null of bool * string
  | Jsr of string
  | Ret of int
  | Switch of int * string list * string (* low, targets, default *)
  | Ireturn
  | Areturn
  | Return
  | Getstatic of string * string * string
  | Putstatic of string * string * string
  | Getfield of string * string * string
  | Putfield of string * string * string
  | Invokevirtual of string * string * string
  | Invokestatic of string * string * string
  | Invokespecial of string * string * string
  | Invokeinterface of string * string * string
  | New of string
  | Newarray
  | Anewarray of string
  | Arraylength
  | Iaload
  | Iastore
  | Aaload
  | Aastore
  | Athrow
  | Checkcast of string
  | Instanceof of string
  | Monitorenter
  | Monitorexit

exception Unbound_label of string
exception Duplicate_label of string

let is_label = function Label _ -> true | _ -> false

(* Map label name -> instruction index of the next real instruction. *)
let label_table instrs =
  let tbl = Hashtbl.create 16 in
  let idx = ref 0 in
  List.iter
    (fun i ->
      match i with
      | Label l ->
        if Hashtbl.mem tbl l then raise (Duplicate_label l);
        Hashtbl.add tbl l !idx
      | _ -> incr idx)
    instrs;
  tbl

let resolve tbl l =
  match Hashtbl.find_opt tbl l with
  | Some i -> i
  | None -> raise (Unbound_label l)

let assemble pool instrs : Instr.t array =
  let tbl = label_table instrs in
  let r l = resolve tbl l in
  let lower = function
    | Label _ -> assert false
    | Const n -> Instr.Iconst (Int32.of_int n)
    | Push_str s -> Instr.Ldc_str (Cp.Builder.string pool s)
    | Null -> Instr.Aconst_null
    | Iload n -> Instr.Iload n
    | Istore n -> Instr.Istore n
    | Aload n -> Instr.Aload n
    | Astore n -> Instr.Astore n
    | Inc (n, d) -> Instr.Iinc (n, d)
    | Add -> Instr.Iadd
    | Sub -> Instr.Isub
    | Mul -> Instr.Imul
    | Div -> Instr.Idiv
    | Rem -> Instr.Irem
    | Neg -> Instr.Ineg
    | Shl -> Instr.Ishl
    | Shr -> Instr.Ishr
    | And -> Instr.Iand
    | Or -> Instr.Ior
    | Xor -> Instr.Ixor
    | Dup -> Instr.Dup
    | Dup_x1 -> Instr.Dup_x1
    | Pop -> Instr.Pop
    | Swap -> Instr.Swap
    | Goto l -> Instr.Goto (r l)
    | If_icmp (c, l) -> Instr.If_icmp (c, r l)
    | If_z (c, l) -> Instr.If_z (c, r l)
    | If_acmp (eq, l) -> Instr.If_acmp (eq, r l)
    | If_null (isnull, l) -> Instr.If_null (isnull, r l)
    | Jsr l -> Instr.Jsr (r l)
    | Ret n -> Instr.Ret n
    | Switch (low, ts, d) ->
      Instr.Tableswitch
        {
          low = Int32.of_int low;
          targets = Array.of_list (List.map r ts);
          default = r d;
        }
    | Ireturn -> Instr.Ireturn
    | Areturn -> Instr.Areturn
    | Return -> Instr.Return
    | Getstatic (c, n, d) ->
      Instr.Getstatic (Cp.Builder.fieldref pool ~cls:c ~name:n ~desc:d)
    | Putstatic (c, n, d) ->
      Instr.Putstatic (Cp.Builder.fieldref pool ~cls:c ~name:n ~desc:d)
    | Getfield (c, n, d) ->
      Instr.Getfield (Cp.Builder.fieldref pool ~cls:c ~name:n ~desc:d)
    | Putfield (c, n, d) ->
      Instr.Putfield (Cp.Builder.fieldref pool ~cls:c ~name:n ~desc:d)
    | Invokevirtual (c, n, d) ->
      Instr.Invokevirtual (Cp.Builder.methodref pool ~cls:c ~name:n ~desc:d)
    | Invokestatic (c, n, d) ->
      Instr.Invokestatic (Cp.Builder.methodref pool ~cls:c ~name:n ~desc:d)
    | Invokespecial (c, n, d) ->
      Instr.Invokespecial (Cp.Builder.methodref pool ~cls:c ~name:n ~desc:d)
    | Invokeinterface (c, n, d) ->
      Instr.Invokeinterface (Cp.Builder.methodref pool ~cls:c ~name:n ~desc:d)
    | New c -> Instr.New (Cp.Builder.class_ pool c)
    | Newarray -> Instr.Newarray
    | Anewarray c -> Instr.Anewarray (Cp.Builder.class_ pool c)
    | Arraylength -> Instr.Arraylength
    | Iaload -> Instr.Iaload
    | Iastore -> Instr.Iastore
    | Aaload -> Instr.Aaload
    | Aastore -> Instr.Aastore
    | Athrow -> Instr.Athrow
    | Checkcast c -> Instr.Checkcast (Cp.Builder.class_ pool c)
    | Instanceof c -> Instr.Instanceof (Cp.Builder.class_ pool c)
    | Monitorenter -> Instr.Monitorenter
    | Monitorexit -> Instr.Monitorexit
  in
  instrs
  |> List.filter (fun i -> not (is_label i))
  |> List.map lower
  |> Array.of_list

(* Net operand-stack effect of one instruction. An invoke's comes from
   its descriptor; a field store checks that its pool entry is a field
   reference. *)
let invoke_delta pool idx ~receiver =
  let mref = Cp.get_methodref pool idx in
  let sg = Descriptor.method_sig_of_string mref.Cp.ref_desc in
  let pop = List.length sg.Descriptor.params + if receiver then 1 else 0 in
  let push = match sg.Descriptor.ret with None -> 0 | Some _ -> 1 in
  push - pop

let stack_delta pool (i : Instr.t) =
  match i with
  | Instr.Nop | Instr.Iinc _ | Instr.Ineg | Instr.Swap | Instr.Goto _
  | Instr.Ret _ | Instr.Return | Instr.Getfield _ | Instr.Newarray
  | Instr.Anewarray _ | Instr.Arraylength | Instr.Checkcast _
  | Instr.Instanceof _ ->
    0
  | Instr.Iconst _ | Instr.Ldc_str _ | Instr.Aconst_null | Instr.Iload _
  | Instr.Aload _ | Instr.Dup | Instr.Dup_x1 | Instr.Jsr _ | Instr.Getstatic _
  | Instr.New _ ->
    1
  | Instr.Istore _ | Instr.Astore _ | Instr.Iadd | Instr.Isub | Instr.Imul
  | Instr.Idiv | Instr.Irem | Instr.Ishl | Instr.Ishr | Instr.Iand | Instr.Ior
  | Instr.Ixor | Instr.Pop | Instr.If_z _ | Instr.If_null _
  | Instr.Tableswitch _ | Instr.Ireturn | Instr.Areturn | Instr.Iaload
  | Instr.Aaload | Instr.Athrow | Instr.Monitorenter | Instr.Monitorexit ->
    -1
  | Instr.If_icmp _ | Instr.If_acmp _ -> -2
  | Instr.Iastore | Instr.Aastore -> -3
  | Instr.Putstatic k ->
    ignore (Cp.get_fieldref pool k);
    -1
  | Instr.Putfield k ->
    ignore (Cp.get_fieldref pool k);
    -2
  | Instr.Invokevirtual k | Instr.Invokespecial k | Instr.Invokeinterface k ->
    invoke_delta pool k ~receiver:true
  | Instr.Invokestatic k -> invoke_delta pool k ~receiver:false

(* Conservative upper bound on operand-stack height: a depth-first walk
   over the CFG from entry (handlers start with height 1, the thrown
   exception), tracking the greatest entry height per instruction and
   never letting the height drop below zero. Pending (index, height)
   pairs sit on an explicit stack in the preorder of a recursive walk
   over [Instr.successors] — fall-through pushed first, then targets
   last to first, the visit test made at pop — because with the height
   cap the bound depends on visit order; test_rewrite checks the walk
   against the recursive one. Ints are compared directly: [Stdlib.max]
   is a polymorphic compare. *)
let estimate_max_stack ?(handler_targets = []) pool (code : Instr.t array) =
  let n = Array.length code in
  if n = 0 then 0
  else begin
    let entry = Array.make n (-1) in
    let maxh = ref 0 in
    (* Ill-formed code whose stack grows around a loop would make this
       walk diverge; cap the height (the verifier rejects such code
       later on the height mismatch). *)
    let cap = (4 * n) + 64 in
    let pending = ref (Array.make 64 0) and sp = ref 0 in
    let push idx h =
      if !sp + 2 > Array.length !pending then begin
        let a = Array.make (2 * Array.length !pending) 0 in
        Array.blit !pending 0 a 0 !sp;
        pending := a
      end;
      !pending.(!sp) <- idx;
      !pending.(!sp + 1) <- h;
      sp := !sp + 2
    in
    let walk idx h =
      push idx h;
      while !sp > 0 do
        sp := !sp - 2;
        let idx = !pending.(!sp) and h = !pending.(!sp + 1) in
        if idx >= 0 && idx < n && entry.(idx) < h && h <= cap then begin
          entry.(idx) <- h;
          let i = code.(idx) in
          let d = stack_delta pool i in
          let top = if d > 0 then h + d else h in
          if top > !maxh then maxh := top;
          let h' = if h + d > 0 then h + d else 0 in
          if not (Instr.is_terminator i) then push (idx + 1) h';
          match i with
          | Instr.Goto t | Instr.If_icmp (_, t) | Instr.If_z (_, t)
          | Instr.If_acmp (_, t) | Instr.If_null (_, t) | Instr.Jsr t ->
            push t h'
          | Instr.Tableswitch { targets; default; _ } ->
            for k = Array.length targets - 1 downto 0 do
              push targets.(k) h'
            done;
            push default h'
          | _ -> ()
        end
      done
    in
    walk 0 0;
    List.iter (fun t -> walk t 1) handler_targets;
    Int.max 1 !maxh
  end

let estimate_max_locals ~params ~is_static (code : Instr.t array) =
  let base = params + if is_static then 0 else 1 in
  let m = ref (Int.max 1 base) in
  for i = 0 to Array.length code - 1 do
    match code.(i) with
    | Instr.Iload k | Instr.Istore k | Instr.Aload k | Instr.Astore k
    | Instr.Iinc (k, _) | Instr.Ret k ->
      if k + 1 > !m then m := k + 1
    | _ -> ()
  done;
  !m

type mdef = {
  md_name : string;
  md_desc : string;
  md_flags : Classfile.access list;
  md_body : instr list option;
  md_handlers : (string * string * string * string option) list;
      (* start label, end label, handler label, catch type *)
}

let meth ?(flags = [ Classfile.Public ]) ?(handlers = []) name desc body =
  {
    md_name = name;
    md_desc = desc;
    md_flags = flags;
    md_body = Some body;
    md_handlers = handlers;
  }

let native_meth ?(flags = [ Classfile.Public; Classfile.Native ]) name desc =
  let flags =
    if List.mem Classfile.Native flags then flags else Classfile.Native :: flags
  in
  { md_name = name; md_desc = desc; md_flags = flags; md_body = None;
    md_handlers = [] }

let abstract_meth name desc =
  { md_name = name; md_desc = desc;
    md_flags = [ Classfile.Public; Classfile.Abstract ]; md_body = None;
    md_handlers = [] }

let field ?(flags = [ Classfile.Public ]) name desc =
  { Classfile.f_name = name; f_desc = desc; f_flags = flags }

(* A default no-argument constructor that just calls super's. *)
let default_init super =
  meth "<init>" "()V"
    [ Aload 0; Invokespecial (super, "<init>", "()V"); Return ]

let build_method pool md =
  match md.md_body with
  | None ->
    {
      Classfile.m_name = md.md_name;
      m_desc = md.md_desc;
      m_flags = md.md_flags;
      m_code = None;
    }
  | Some body ->
    let tbl = label_table body in
    let instrs = assemble pool body in
    let sg = Descriptor.method_sig_of_string md.md_desc in
    let handlers =
      List.map
        (fun (s, e, h, catch) ->
          {
            Classfile.h_start = resolve tbl s;
            h_end = resolve tbl e;
            h_target = resolve tbl h;
            h_catch = catch;
          })
        md.md_handlers
    in
    let cur_pool = Cp.Builder.to_pool pool in
    let handler_targets =
      List.map (fun h -> h.Classfile.h_target) handlers
    in
    {
      Classfile.m_name = md.md_name;
      m_desc = md.md_desc;
      m_flags = md.md_flags;
      m_code =
        Some
          {
            Classfile.max_stack =
              estimate_max_stack ~handler_targets cur_pool instrs;
            max_locals =
              estimate_max_locals
                ~params:(Descriptor.param_slots sg)
                ~is_static:(List.mem Classfile.Static md.md_flags)
                instrs;
            instrs;
            handlers;
          };
    }

let class_ ?(super = Classfile.java_lang_object) ?(interfaces = [])
    ?(flags = [ Classfile.Public ]) ?(fields = []) ?(attributes = []) name
    mdefs =
  let pool = Cp.Builder.create () in
  (* Intern this class and its super so every class file names itself,
     mirroring the real format. *)
  let _ = Cp.Builder.class_ pool name in
  let _ = Cp.Builder.class_ pool super in
  let methods = List.map (build_method pool) mdefs in
  {
    Classfile.name;
    super = (if String.equal name Classfile.java_lang_object then None
             else Some super);
    interfaces;
    c_flags = flags;
    fields;
    methods;
    pool = Cp.Builder.to_pool pool;
    attributes;
  }
