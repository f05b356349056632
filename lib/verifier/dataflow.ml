(* Verification phase 3: dataflow type inference over each method body.

   A worklist abstract interpretation computes, for every instruction,
   the verification types of locals and operand stack on entry. Checks
   that cannot be decided against the oracle's knowledge of the
   environment are recorded as assumptions (deferred to the client)
   rather than errors — the static/dynamic partitioning of §3.1.

   Subroutines (jsr/ret) use the classic merged-frame approximation: a
   return address carries its subroutine entry, and ret flows to the
   instruction after every jsr targeting that entry. *)

module CF = Bytecode.Classfile
module CP = Bytecode.Cp
module I = Bytecode.Instr
module D = Bytecode.Descriptor
module V = Vtype

type frame = { locals : V.t array; stack : V.t list }

type result = {
  r_errors : Verror.t list;
  r_checks : int; (* static checks performed *)
}

exception Fail of string

let failv fmt = Format.kasprintf (fun s -> raise (Fail s)) fmt

(* Frames merge on every edge of every worklist step, and at a
   fixpoint almost every merge leaves the stored frame unchanged — so
   merging is copy-on-write: the stored locals array is duplicated only
   when some slot actually widens, and the stored stack list is reused
   when no stack slot changes. Merge order (locals first, then stack,
   both left to right) matches the old Array.map2/List.map2 pass. *)

let throwable = "java/lang/Throwable"

type ctx = {
  oracle : Oracle.t;
  asms : Assumptions.t;
  scope : Assumptions.scope;
  this_class : string;
  super_class : string option;
  pool : CP.t;
  mutable checks : int;
}

let tick ctx = ctx.checks <- ctx.checks + 1

let assignable_desc ctx v ty =
  tick ctx;
  V.assignable_to_desc ctx.oracle ctx.asms ~scope:ctx.scope v ty

let assignable_class ctx v ~target =
  tick ctx;
  V.assignable_to_class ctx.oracle ctx.asms ~scope:ctx.scope v ~target

(* Member resolution against the oracle, turning `Unknown into an
   assumption and `Absent into a hard error. *)
let resolve_field ctx ~cls ~name ~desc ~want_static =
  tick ctx;
  match Oracle.lookup_field ctx.oracle cls name with
  | `Found (declaring, d, s, private_) ->
    if not (String.equal d desc) then
      failv "field %s.%s has type %s, expected %s" cls name d desc;
    if s <> want_static then failv "field %s.%s static mismatch" cls name;
    if private_ && not (String.equal declaring ctx.this_class) then
      failv "access to private field %s.%s from %s" declaring name
        ctx.this_class
  | `Absent -> failv "no field %s in class %s" name cls
  | `Unknown ->
    Assumptions.add ctx.asms ~scope:ctx.scope
      (Assumptions.Field_exists { cls; name; desc; static = want_static })

let resolve_method_ref ctx ~cls ~name ~desc ~want_static =
  tick ctx;
  match Oracle.lookup_method ctx.oracle cls name desc with
  | `Found (declaring, s, private_) ->
    if s <> want_static then failv "method %s.%s static mismatch" cls name;
    if
      private_
      && not (String.equal declaring ctx.this_class)
      && not (String.equal name "<init>")
    then
      failv "call to private method %s.%s from %s" declaring name
        ctx.this_class
  | `Absent -> failv "no method %s:%s in class %s" name desc cls
  | `Unknown ->
    Assumptions.add ctx.asms ~scope:ctx.scope
      (Assumptions.Method_exists { cls; name; desc; static = want_static })

let is_array_name n = String.length n > 0 && n.[0] = '['

let entry_frame ctx (m : CF.meth) (code : CF.code) =
  let sg = D.method_sig_of_string m.CF.m_desc in
  let locals = Array.make code.CF.max_locals V.Top in
  let is_static = CF.has_flag m.CF.m_flags CF.Static in
  let base =
    if is_static then 0
    else begin
      locals.(0) <-
        (if
           String.equal m.CF.m_name "<init>"
           && not (String.equal ctx.this_class CF.java_lang_object)
         then V.Uninit_this ctx.this_class
         else V.Ref ctx.this_class);
      1
    end
  in
  List.iteri (fun i ty -> locals.(base + i) <- V.of_desc_ty ty) sg.D.params;
  { locals; stack = [] }

(* Simulate one instruction on a mutable working frame. Returns the
   list of successor indices (exception edges handled by caller). *)
let step ctx ~method_sig (code : CF.code) ~jsr_sites idx frame =
  let max_stack = code.CF.max_stack in
  let locals = frame.locals in
  let stack = ref frame.stack in
  (* Depth tracked incrementally: the overflow check was O(depth) per
     push via List.length. *)
  let depth = ref (List.length frame.stack) in
  let push v =
    if !depth >= max_stack then failv "operand stack overflow";
    incr depth;
    stack := v :: !stack
  in
  let pop () =
    match !stack with
    | [] -> failv "operand stack underflow"
    | v :: rest ->
      decr depth;
      stack := rest;
      v
  in
  let pop_int () =
    match pop () with
    | V.VInt -> ()
    | v -> failv "expected int on stack, found %s" (V.to_string v)
  in
  let pop_ref () =
    let v = pop () in
    if V.is_reference v then v
    else failv "expected reference on stack, found %s" (V.to_string v)
  in
  let local n =
    if n < 0 || n >= Array.length locals then failv "local %d out of range" n
    else locals.(n)
  in
  let set_local n v =
    if n < 0 || n >= Array.length locals then failv "local %d out of range" n
    else locals.(n) <- v
  in
  let fieldref k = CP.get_fieldref ctx.pool k in
  let methodref k = CP.get_methodref ctx.pool k in
  let class_at k = CP.get_class_name ctx.pool k in
  let sig_of desc = D.method_sig_of_string desc in
  let pop_args sg =
    (* last parameter is on top: check in reverse *)
    List.iter
      (fun ty ->
        let v = pop () in
        if not (assignable_desc ctx v ty) then
          failv "argument of type %s where %s expected" (V.to_string v)
            (D.ty_to_string ty))
      (List.rev sg.D.params)
  in
  let push_ret sg =
    match sg.D.ret with None -> () | Some ty -> push (V.of_desc_ty ty)
  in
  let insn = code.CF.instrs.(idx) in
  tick ctx;
  let fall = [ idx + 1 ] in
  let succs =
    match insn with
    | I.Nop -> fall
    | I.Iconst _ ->
      push V.VInt;
      fall
    | I.Ldc_str _ ->
      push (V.Ref "java/lang/String");
      fall
    | I.Aconst_null ->
      push V.Null;
      fall
    | I.Iload n ->
      (match local n with
      | V.VInt -> push V.VInt
      | v -> failv "iload of %s" (V.to_string v));
      fall
    | I.Istore n ->
      pop_int ();
      set_local n V.VInt;
      fall
    | I.Aload n ->
      (match local n with
      | (V.Null | V.Ref _ | V.Uninit _ | V.Uninit_this _) as v -> push v
      | v -> failv "aload of %s" (V.to_string v));
      fall
    | I.Astore n ->
      (match pop () with
      | (V.Null | V.Ref _ | V.Uninit _ | V.Uninit_this _ | V.Retaddr _) as v
        ->
        set_local n v
      | v -> failv "astore of %s" (V.to_string v));
      fall
    | I.Iinc (n, _) ->
      (match local n with
      | V.VInt -> ()
      | v -> failv "iinc of %s" (V.to_string v));
      fall
    | I.Iadd | I.Isub | I.Imul | I.Idiv | I.Irem | I.Ishl | I.Ishr | I.Iand
    | I.Ior | I.Ixor ->
      pop_int ();
      pop_int ();
      push V.VInt;
      fall
    | I.Ineg ->
      pop_int ();
      push V.VInt;
      fall
    | I.Dup ->
      let v = pop () in
      push v;
      push v;
      fall
    | I.Dup_x1 ->
      let a = pop () in
      let b = pop () in
      push a;
      push b;
      push a;
      fall
    | I.Pop ->
      ignore (pop ());
      fall
    | I.Swap ->
      let a = pop () in
      let b = pop () in
      push a;
      push b;
      fall
    | I.Goto t -> [ t ]
    | I.If_icmp (_, t) ->
      pop_int ();
      pop_int ();
      t :: fall
    | I.If_z (_, t) ->
      pop_int ();
      t :: fall
    | I.If_acmp (_, t) ->
      ignore (pop_ref ());
      ignore (pop_ref ());
      t :: fall
    | I.If_null (_, t) ->
      ignore (pop_ref ());
      t :: fall
    | I.Jsr t ->
      push (V.Retaddr t);
      [ t ]
    | I.Ret n -> (
      match local n with
      | V.Retaddr entry -> (
        match Hashtbl.find_opt jsr_sites entry with
        | Some sites -> List.map (fun s -> s + 1) sites
        | None -> failv "ret from subroutine %d with no jsr sites" entry)
      | v -> failv "ret via local holding %s" (V.to_string v))
    | I.Tableswitch { targets; default; _ } ->
      pop_int ();
      default :: Array.to_list targets
    | I.Ireturn ->
      (match method_sig.D.ret with
      | Some D.Int -> ()
      | Some ty -> failv "ireturn from method returning %s" (D.ty_to_string ty)
      | None -> failv "ireturn from void method");
      pop_int ();
      []
    | I.Areturn ->
      (match method_sig.D.ret with
      | Some (D.Obj _ | D.Arr _) ->
        let v = pop_ref () in
        let ty = Option.get method_sig.D.ret in
        if not (assignable_desc ctx v ty) then
          failv "areturn of %s from method returning %s" (V.to_string v)
            (D.ty_to_string ty)
      | Some D.Int -> failv "areturn from int method"
      | None -> failv "areturn from void method");
      []
    | I.Return ->
      (match method_sig.D.ret with
      | None -> ()
      | Some _ -> failv "return from non-void method");
      []
    | I.Getstatic k ->
      let fr = fieldref k in
      resolve_field ctx ~cls:fr.CP.ref_class ~name:fr.CP.ref_name
        ~desc:fr.CP.ref_desc ~want_static:true;
      push (V.of_desc_string fr.CP.ref_desc);
      fall
    | I.Putstatic k ->
      let fr = fieldref k in
      resolve_field ctx ~cls:fr.CP.ref_class ~name:fr.CP.ref_name
        ~desc:fr.CP.ref_desc ~want_static:true;
      let v = pop () in
      if not (assignable_desc ctx v (D.ty_of_string fr.CP.ref_desc)) then
        failv "putstatic of %s into %s" (V.to_string v) fr.CP.ref_desc;
      fall
    | I.Getfield k ->
      let fr = fieldref k in
      resolve_field ctx ~cls:fr.CP.ref_class ~name:fr.CP.ref_name
        ~desc:fr.CP.ref_desc ~want_static:false;
      let recv = pop () in
      if not (assignable_class ctx recv ~target:fr.CP.ref_class) then
        failv "getfield on %s, expected %s" (V.to_string recv) fr.CP.ref_class;
      push (V.of_desc_string fr.CP.ref_desc);
      fall
    | I.Putfield k ->
      let fr = fieldref k in
      resolve_field ctx ~cls:fr.CP.ref_class ~name:fr.CP.ref_name
        ~desc:fr.CP.ref_desc ~want_static:false;
      let v = pop () in
      if not (assignable_desc ctx v (D.ty_of_string fr.CP.ref_desc)) then
        failv "putfield of %s into %s" (V.to_string v) fr.CP.ref_desc;
      let recv = pop () in
      (* An uninitialized this may set fields of its own class (the
         standard constructor-initialization allowance). *)
      (match recv with
      | V.Uninit_this c when String.equal c fr.CP.ref_class -> ()
      | recv ->
        if not (assignable_class ctx recv ~target:fr.CP.ref_class) then
          failv "putfield on %s, expected %s" (V.to_string recv)
            fr.CP.ref_class);
      fall
    | I.Invokevirtual k | I.Invokeinterface k ->
      let mr = methodref k in
      if String.equal mr.CP.ref_name "<init>" then
        failv "invokevirtual of constructor";
      resolve_method_ref ctx ~cls:mr.CP.ref_class ~name:mr.CP.ref_name
        ~desc:mr.CP.ref_desc ~want_static:false;
      let sg = sig_of mr.CP.ref_desc in
      pop_args sg;
      let recv = pop () in
      if not (assignable_class ctx recv ~target:mr.CP.ref_class) then
        failv "receiver %s for %s.%s" (V.to_string recv) mr.CP.ref_class
          mr.CP.ref_name;
      push_ret sg;
      fall
    | I.Invokestatic k ->
      let mr = methodref k in
      if String.equal mr.CP.ref_name "<init>" then
        failv "invokestatic of constructor";
      resolve_method_ref ctx ~cls:mr.CP.ref_class ~name:mr.CP.ref_name
        ~desc:mr.CP.ref_desc ~want_static:true;
      let sg = sig_of mr.CP.ref_desc in
      pop_args sg;
      push_ret sg;
      fall
    | I.Invokespecial k ->
      let mr = methodref k in
      let sg = sig_of mr.CP.ref_desc in
      if String.equal mr.CP.ref_name "<init>" then begin
        if sg.D.ret <> None then failv "constructor with non-void descriptor";
        resolve_method_ref ctx ~cls:mr.CP.ref_class ~name:"<init>"
          ~desc:mr.CP.ref_desc ~want_static:false;
        pop_args sg;
        let recv = pop () in
        let init_to =
          match recv with
          | V.Uninit { cls; _ } ->
            tick ctx;
            if not (String.equal cls mr.CP.ref_class) then
              failv "constructor of %s called on uninitialized %s"
                mr.CP.ref_class cls;
            V.Ref cls
          | V.Uninit_this cls ->
            tick ctx;
            let ok =
              String.equal mr.CP.ref_class cls
              ||
              match ctx.super_class with
              | Some s -> String.equal mr.CP.ref_class s
              | None -> false
            in
            if not ok then
              failv "uninitialized this of %s initialized via %s" cls
                mr.CP.ref_class;
            V.Ref cls
          | v -> failv "constructor called on %s" (V.to_string v)
        in
        (* Initialization substitutes the freshly initialized type for
           every alias of the uninitialized value. *)
        let subst v = if V.equal v recv then init_to else v in
        Array.iteri (fun i v -> locals.(i) <- subst v) locals;
        stack := List.map subst !stack
      end
      else begin
        resolve_method_ref ctx ~cls:mr.CP.ref_class ~name:mr.CP.ref_name
          ~desc:mr.CP.ref_desc ~want_static:false;
        pop_args sg;
        let recv = pop () in
        if not (assignable_class ctx recv ~target:mr.CP.ref_class) then
          failv "receiver %s for special %s.%s" (V.to_string recv)
            mr.CP.ref_class mr.CP.ref_name;
        push_ret sg
      end;
      fall
    | I.New k ->
      let cls = class_at k in
      tick ctx;
      if ctx.oracle cls = None then
        Assumptions.add ctx.asms ~scope:ctx.scope (Assumptions.Class_exists cls);
      (* Kill stale aliases of a previous allocation at this pc. *)
      let kill v =
        match v with V.Uninit { pc; _ } when pc = idx -> V.Top | v -> v
      in
      Array.iteri (fun i v -> locals.(i) <- kill v) locals;
      stack := List.map kill !stack;
      push (V.Uninit { pc = idx; cls });
      fall
    | I.Newarray ->
      pop_int ();
      push (V.Ref "[I");
      fall
    | I.Anewarray k ->
      let elem = class_at k in
      pop_int ();
      push (V.Ref (Jvm.Value.array_class elem));
      fall
    | I.Arraylength ->
      (match pop_ref () with
      | V.Null -> ()
      | V.Ref n when is_array_name n -> ()
      | v -> failv "arraylength of %s" (V.to_string v));
      push V.VInt;
      fall
    | I.Iaload ->
      pop_int ();
      (match pop_ref () with
      | V.Null | V.Ref "[I" -> ()
      | v -> failv "iaload from %s" (V.to_string v));
      push V.VInt;
      fall
    | I.Iastore ->
      pop_int ();
      pop_int ();
      (match pop_ref () with
      | V.Null | V.Ref "[I" -> ()
      | v -> failv "iastore into %s" (V.to_string v));
      fall
    | I.Aaload ->
      pop_int ();
      (match pop_ref () with
      | V.Null -> push V.Null
      | V.Ref n when is_array_name n && not (String.equal n "[I") -> (
        match Oracle.elem_of n with
        | Some e -> push (V.Ref e)
        | None -> failv "aaload from %s" n)
      | v -> failv "aaload from %s" (V.to_string v));
      fall
    | I.Aastore ->
      let v = pop_ref () in
      pop_int ();
      (match pop_ref () with
      | V.Null -> ()
      | V.Ref n when is_array_name n && not (String.equal n "[I") -> (
        match Oracle.elem_of n with
        | Some e ->
          if not (assignable_class ctx v ~target:e) then
            failv "aastore of %s into %s" (V.to_string v) n
        | None -> failv "aastore into %s" n)
      | arr -> failv "aastore into %s" (V.to_string arr));
      fall
    | I.Athrow ->
      let v = pop_ref () in
      if not (assignable_class ctx v ~target:throwable) then
        failv "athrow of non-throwable %s" (V.to_string v);
      []
    | I.Checkcast k ->
      let target = class_at k in
      ignore (pop_ref ());
      if ctx.oracle target = None && not (is_array_name target) then
        Assumptions.add ctx.asms ~scope:ctx.scope
          (Assumptions.Class_exists target);
      push (V.Ref target);
      fall
    | I.Instanceof k ->
      let target = class_at k in
      ignore (pop_ref ());
      if ctx.oracle target = None && not (is_array_name target) then
        Assumptions.add ctx.asms ~scope:ctx.scope
          (Assumptions.Class_exists target);
      push V.VInt;
      fall
    | I.Monitorenter | I.Monitorexit ->
      ignore (pop_ref ());
      fall
  in
  ({ locals; stack = !stack }, succs)

let verify_method oracle asms (cf : CF.t) (m : CF.meth) : result =
  match m.CF.m_code with
  | None -> { r_errors = []; r_checks = 0 }
  | Some code -> (
    let meth_key = m.CF.m_name ^ m.CF.m_desc in
    let ctx =
      {
        oracle;
        asms;
        scope = Assumptions.In_method meth_key;
        this_class = cf.CF.name;
        super_class = cf.CF.super;
        pool = cf.CF.pool;
        checks = 0;
      }
    in
    let n = Array.length code.CF.instrs in
    let jsr_sites = Hashtbl.create 4 in
    Array.iteri
      (fun i insn ->
        match insn with
        | I.Jsr t ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt jsr_sites t) in
          Hashtbl.replace jsr_sites t (i :: cur)
        | _ -> ())
      code.CF.instrs;
    let frames : frame option array = Array.make n None in
    let queue = Queue.create () in
    (* [locals]/[stack] are NOT retained as-is: the first-visit branch
       copies the array, and the merge branch writes into (a copy of)
       the stored frame — so callers may pass a working array shared
       between successors. *)
    let merge_into idx locals stack =
      if idx < 0 || idx >= n then failv "flow to out-of-range index %d" idx;
      match frames.(idx) with
      | None ->
        frames.(idx) <- Some { locals = Array.copy locals; stack };
        Queue.add idx queue
      | Some old ->
        if List.length old.stack <> List.length stack then
          failv "stack height mismatch at merge (%d vs %d)"
            (List.length old.stack) (List.length stack);
        let merged_locals = ref old.locals in
        let locals_changed = ref false in
        Array.iteri
          (fun i ov ->
            let m = V.merge ctx.oracle ov locals.(i) in
            if not (V.equal m ov) then begin
              if not !locals_changed then begin
                merged_locals := Array.copy old.locals;
                locals_changed := true
              end;
              !merged_locals.(i) <- m
            end)
          old.locals;
        let merged_stack = List.map2 (V.merge ctx.oracle) old.stack stack in
        let stack_changed = not (List.for_all2 V.equal merged_stack old.stack) in
        if !locals_changed || stack_changed then begin
          frames.(idx) <-
            Some
              {
                locals = !merged_locals;
                stack = (if stack_changed then merged_stack else old.stack);
              };
          Queue.add idx queue
        end
    in
    let handler_edges idx entry_locals =
      List.iter
        (fun h ->
          if idx >= h.CF.h_start && idx < h.CF.h_end then begin
            let catch = Option.value ~default:throwable h.CF.h_catch in
            (if ctx.oracle catch = None then
               Assumptions.add ctx.asms ~scope:ctx.scope
                 (Assumptions.Class_exists catch));
            tick ctx;
            merge_into h.CF.h_target entry_locals [ V.Ref catch ]
          end)
        code.CF.handlers
    in
    try
      (* Parsed once per method, not once per worklist step; inside the
         try so a bad descriptor still reports as a verification error
         exactly as before (entry_frame parsed it first anyway). *)
      let method_sig = D.method_sig_of_string m.CF.m_desc in
      let entry = entry_frame ctx m code in
      merge_into 0 entry.locals entry.stack;
      let rounds = ref 0 in
      while not (Queue.is_empty queue) do
        incr rounds;
        if !rounds > 200_000 then failv "verification did not converge";
        let idx = Queue.take queue in
        match frames.(idx) with
        | None -> ()
        | Some fr ->
          (* Exception edges use the state on entry: the handler sees
             locals as they were when the covered instruction began. *)
          handler_edges idx fr.locals;
          let work = { locals = Array.copy fr.locals; stack = fr.stack } in
          let out, succs = step ctx ~method_sig code ~jsr_sites idx work in
          List.iter (fun s -> merge_into s out.locals out.stack) succs
      done;
      { r_errors = []; r_checks = ctx.checks }
    with
    | Fail msg ->
      {
        r_errors = [ Verror.make ~cls:cf.CF.name ~meth:meth_key msg ];
        r_checks = ctx.checks;
      }
    | CP.Invalid_index i ->
      {
        r_errors =
          [
            Verror.make ~cls:cf.CF.name ~meth:meth_key
              (Printf.sprintf "invalid constant-pool index %d" i);
          ];
        r_checks = ctx.checks;
      }
    | CP.Wrong_kind { index; expected } ->
      {
        r_errors =
          [
            Verror.make ~cls:cf.CF.name ~meth:meth_key
              (Printf.sprintf "constant-pool entry %d is not a %s" index
                 expected);
          ];
        r_checks = ctx.checks;
      }
    | D.Bad_descriptor d ->
      {
        r_errors =
          [
            Verror.make ~cls:cf.CF.name ~meth:meth_key
              (Printf.sprintf "bad descriptor: %s" d);
          ];
        r_checks = ctx.checks;
      })

let verify_class oracle asms (cf : CF.t) =
  List.fold_left
    (fun (errs, checks) m ->
      let r = verify_method oracle asms cf m in
      (errs @ r.r_errors, checks + r.r_checks))
    ([], 0) cf.CF.methods
