(* Verification phase 3: dataflow type inference over each method body.

   Abstract interpretation on `Analysis.Solver` computes, for every
   reachable instruction, the verification types of locals and operand
   stack on entry. Checks that cannot be decided against the oracle's
   knowledge of the environment are recorded as assumptions (deferred
   to the client) rather than errors — the static/dynamic partitioning
   of §3.1.

   Subroutines (jsr/ret) use the classic merged-frame approximation: a
   return address carries its subroutine entry, and ret flows to the
   instruction after every jsr targeting that entry. The CFG does not
   model subroutines, so the solver's successor hook names those
   edges: [jsr t] flows only to [t], and [ret n] to the successors the
   return address in local [n] selects. *)

module CF = Bytecode.Classfile
module CP = Bytecode.Cp
module I = Bytecode.Instr
module D = Bytecode.Descriptor
module V = Vtype

type frame = { locals : V.t array; stack : V.t list }

exception Fail of string

let failv fmt = Format.kasprintf (fun s -> raise (Fail s)) fmt

let equal_frame a b =
  a == b
  || Array.for_all2 V.equal a.locals b.locals
     && List.equal V.equal a.stack b.stack

(* Frames join on every edge the solver follows, and at a fixpoint
   almost every join leaves the stored frame unchanged — so joining is
   copy-on-write: the stored locals array is duplicated only when some
   slot actually widens, the stored stack list is reused when no stack
   slot changes, and an unchanged join returns the stored frame
   itself. Locals merge first, then the stack, both left to right. *)
let join_frames oracle old fr =
  let h_old = List.length old.stack and h = List.length fr.stack in
  if h_old <> h then failv "stack height mismatch at merge (%d vs %d)" h_old h;
  let locals = ref old.locals in
  Array.iteri
    (fun i ov ->
      let m = V.merge oracle ov fr.locals.(i) in
      if not (V.equal m ov) then begin
        if !locals == old.locals then locals := Array.copy old.locals;
        !locals.(i) <- m
      end)
    old.locals;
  let merged = List.map2 (V.merge oracle) old.stack fr.stack in
  let stack =
    if List.for_all2 V.equal merged old.stack then old.stack else merged
  in
  if !locals == old.locals && stack == old.stack then old
  else { locals = !locals; stack }

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

let entry_frame ctx (m : CF.meth) (code : CF.code) sg =
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


let local (fr : frame) n =
  if n < 0 || n >= Array.length fr.locals then failv "local %d out of range" n
  else fr.locals.(n)

(* Simulate one instruction. The solver keeps [frame] as the entry
   fact, so the step never writes it: the locals array is copied on the
   first write. *)
let step ctx ~method_sig ~max_stack idx insn frame =
  let locals = ref frame.locals in
  let stack = ref frame.stack in
  (* Depth tracked incrementally, so the overflow check is O(1). *)
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
  let local n = local frame n in
  let set_local n v =
    if n < 0 || n >= Array.length frame.locals then
      failv "local %d out of range" n;
    if !locals == frame.locals then locals := Array.copy frame.locals;
    !locals.(n) <- v
  in
  (* Rewrite every slot, locals and stack, through [f]. *)
  let map_slots f =
    Array.iteri
      (fun i v ->
        let v' = f v in
        if v' != v then set_local i v')
      frame.locals;
    stack := List.map f !stack
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
  tick ctx;
  (match insn with
  | I.Nop | I.Goto _ -> ()
  | I.Iconst _ -> push V.VInt
  | I.Ldc_str _ -> push (V.Ref "java/lang/String")
  | I.Aconst_null -> push V.Null
  | I.Iload n -> (
    match local n with
    | V.VInt -> push V.VInt
    | v -> failv "iload of %s" (V.to_string v))
  | I.Istore n ->
    pop_int ();
    set_local n V.VInt
  | I.Aload n -> (
    match local n with
    | (V.Null | V.Ref _ | V.Uninit _ | V.Uninit_this _) as v -> push v
    | v -> failv "aload of %s" (V.to_string v))
  | I.Astore n -> (
    match pop () with
    | (V.Null | V.Ref _ | V.Uninit _ | V.Uninit_this _ | V.Retaddr _) as v ->
      set_local n v
    | v -> failv "astore of %s" (V.to_string v))
  | I.Iinc (n, _) -> (
    match local n with
    | V.VInt -> ()
    | v -> failv "iinc of %s" (V.to_string v))
  | I.Iadd | I.Isub | I.Imul | I.Idiv | I.Irem | I.Ishl | I.Ishr | I.Iand
  | I.Ior | I.Ixor ->
    pop_int ();
    pop_int ();
    push V.VInt
  | I.Ineg ->
    pop_int ();
    push V.VInt
  | I.Dup ->
    let v = pop () in
    push v;
    push v
  | I.Dup_x1 ->
    let a = pop () in
    let b = pop () in
    push a;
    push b;
    push a
  | I.Pop -> ignore (pop ())
  | I.Swap ->
    let a = pop () in
    let b = pop () in
    push a;
    push b
  | I.If_icmp _ ->
    pop_int ();
    pop_int ()
  | I.If_z _ | I.Tableswitch _ -> pop_int ()
  | I.If_acmp _ ->
    ignore (pop_ref ());
    ignore (pop_ref ())
  | I.If_null _ -> ignore (pop_ref ())
  | I.Jsr t -> push (V.Retaddr t)
  | I.Ret _ -> () (* its local is read by [subroutine_succs] *)
  | I.Ireturn ->
    (match method_sig.D.ret with
    | Some D.Int -> ()
    | Some ty -> failv "ireturn from method returning %s" (D.ty_to_string ty)
    | None -> failv "ireturn from void method");
    pop_int ()
  | I.Areturn -> (
    match method_sig.D.ret with
    | Some (D.Obj _ | D.Arr _) ->
      let v = pop_ref () in
      let ty = Option.get method_sig.D.ret in
      if not (assignable_desc ctx v ty) then
        failv "areturn of %s from method returning %s" (V.to_string v)
          (D.ty_to_string ty)
    | Some D.Int -> failv "areturn from int method"
    | None -> failv "areturn from void method")
  | I.Return -> (
    match method_sig.D.ret with
    | None -> ()
    | Some _ -> failv "return from non-void method")
  | I.Getstatic k ->
    let fr = fieldref k in
    resolve_field ctx ~cls:fr.CP.ref_class ~name:fr.CP.ref_name
      ~desc:fr.CP.ref_desc ~want_static:true;
    push (V.of_desc_string fr.CP.ref_desc)
  | I.Putstatic k ->
    let fr = fieldref k in
    resolve_field ctx ~cls:fr.CP.ref_class ~name:fr.CP.ref_name
      ~desc:fr.CP.ref_desc ~want_static:true;
    let v = pop () in
    if not (assignable_desc ctx v (D.ty_of_string fr.CP.ref_desc)) then
      failv "putstatic of %s into %s" (V.to_string v) fr.CP.ref_desc
  | I.Getfield k ->
    let fr = fieldref k in
    resolve_field ctx ~cls:fr.CP.ref_class ~name:fr.CP.ref_name
      ~desc:fr.CP.ref_desc ~want_static:false;
    let recv = pop () in
    if not (assignable_class ctx recv ~target:fr.CP.ref_class) then
      failv "getfield on %s, expected %s" (V.to_string recv) fr.CP.ref_class;
    push (V.of_desc_string fr.CP.ref_desc)
  | I.Putfield k -> (
    let fr = fieldref k in
    resolve_field ctx ~cls:fr.CP.ref_class ~name:fr.CP.ref_name
      ~desc:fr.CP.ref_desc ~want_static:false;
    let v = pop () in
    if not (assignable_desc ctx v (D.ty_of_string fr.CP.ref_desc)) then
      failv "putfield of %s into %s" (V.to_string v) fr.CP.ref_desc;
    let recv = pop () in
    (* An uninitialized this may set fields of its own class (the
       standard constructor-initialization allowance). *)
    match recv with
    | V.Uninit_this c when String.equal c fr.CP.ref_class -> ()
    | recv ->
      if not (assignable_class ctx recv ~target:fr.CP.ref_class) then
        failv "putfield on %s, expected %s" (V.to_string recv)
          fr.CP.ref_class)
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
    push_ret sg
  | I.Invokestatic k ->
    let mr = methodref k in
    if String.equal mr.CP.ref_name "<init>" then
      failv "invokestatic of constructor";
    resolve_method_ref ctx ~cls:mr.CP.ref_class ~name:mr.CP.ref_name
      ~desc:mr.CP.ref_desc ~want_static:true;
    let sg = sig_of mr.CP.ref_desc in
    pop_args sg;
    push_ret sg
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
      map_slots (fun v -> if V.equal v recv then init_to else v)
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
    end
  | I.New k ->
    let cls = class_at k in
    tick ctx;
    if ctx.oracle cls = None then
      Assumptions.add ctx.asms ~scope:ctx.scope (Assumptions.Class_exists cls);
    (* Kill stale aliases of a previous allocation at this pc. *)
    map_slots (function V.Uninit { pc; _ } when pc = idx -> V.Top | v -> v);
    push (V.Uninit { pc = idx; cls })
  | I.Newarray ->
    pop_int ();
    push (V.Ref "[I")
  | I.Anewarray k ->
    let elem = class_at k in
    pop_int ();
    push (V.Ref (Jvm.Value.array_class elem))
  | I.Arraylength ->
    (match pop_ref () with
    | V.Null -> ()
    | V.Ref n when is_array_name n -> ()
    | v -> failv "arraylength of %s" (V.to_string v));
    push V.VInt
  | I.Iaload ->
    pop_int ();
    (match pop_ref () with
    | V.Null | V.Ref "[I" -> ()
    | v -> failv "iaload from %s" (V.to_string v));
    push V.VInt
  | I.Iastore -> (
    pop_int ();
    pop_int ();
    match pop_ref () with
    | V.Null | V.Ref "[I" -> ()
    | v -> failv "iastore into %s" (V.to_string v))
  | I.Aaload -> (
    pop_int ();
    match pop_ref () with
    | V.Null -> push V.Null
    | V.Ref n when is_array_name n && not (String.equal n "[I") -> (
      match Oracle.elem_of n with
      | Some e -> push (V.Ref e)
      | None -> failv "aaload from %s" n)
    | v -> failv "aaload from %s" (V.to_string v))
  | I.Aastore -> (
    let v = pop_ref () in
    pop_int ();
    match pop_ref () with
    | V.Null -> ()
    | V.Ref n when is_array_name n && not (String.equal n "[I") -> (
      match Oracle.elem_of n with
      | Some e ->
        if not (assignable_class ctx v ~target:e) then
          failv "aastore of %s into %s" (V.to_string v) n
      | None -> failv "aastore into %s" n)
    | arr -> failv "aastore into %s" (V.to_string arr))
  | I.Athrow ->
    let v = pop_ref () in
    if not (assignable_class ctx v ~target:throwable) then
      failv "athrow of non-throwable %s" (V.to_string v)
  | I.Checkcast k ->
    let target = class_at k in
    ignore (pop_ref ());
    if ctx.oracle target = None && not (is_array_name target) then
      Assumptions.add ctx.asms ~scope:ctx.scope
        (Assumptions.Class_exists target);
    push (V.Ref target)
  | I.Instanceof k ->
    let target = class_at k in
    ignore (pop_ref ());
    if ctx.oracle target = None && not (is_array_name target) then
      Assumptions.add ctx.asms ~scope:ctx.scope
        (Assumptions.Class_exists target);
    push V.VInt
  | I.Monitorenter | I.Monitorexit -> ignore (pop_ref ()));
  if !locals == frame.locals && !stack == frame.stack then frame
  else { locals = !locals; stack = !stack }

(* The successors the CFG cannot name. [ret] returns past every [jsr]
   to the subroutine its return address carries, latest site first (a
   return address only ever comes from such a [jsr]). *)
let subroutine_succs (code : CF.code) ~at:_ ~instr frame =
  match instr with
  | I.Jsr t -> Some [ t ]
  | I.Ret n -> (
    match local frame n with
    | V.Retaddr entry ->
      let sites = ref [] in
      Array.iteri
        (fun i insn ->
          match insn with
          | I.Jsr t when t = entry -> sites := (i + 1) :: !sites
          | _ -> ())
        code.CF.instrs;
      Some !sites
    | v -> failv "ret via local holding %s" (V.to_string v))
  | _ -> None

let verify_method oracle asms (cf : CF.t) (m : CF.meth) =
  match m.CF.m_code with
  | None -> ([], 0)
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
    (* A handler's entry frame: the covered instruction's locals and
       the caught reference. *)
    let exn_adjust h fr =
      let catch = Option.value ~default:throwable h.CF.h_catch in
      if ctx.oracle catch = None then
        Assumptions.add ctx.asms ~scope:ctx.scope
          (Assumptions.Class_exists catch);
      tick ctx;
      { fr with stack = [ V.Ref catch ] }
    in
    let module S = Analysis.Solver.Make (struct
      type t = frame

      let equal = equal_frame
      let join = join_frames oracle
    end) in
    let error msg =
      ([ Verror.make ~cls:cf.CF.name ~meth:meth_key msg ], ctx.checks)
    in
    match
      let method_sig = D.method_sig_of_string m.CF.m_desc in
      let max_stack = code.CF.max_stack in
      S.solve (Analysis.Cfg.of_code code)
        ~init:(entry_frame ctx m code method_sig)
        ~transfer:(fun ~at ~instr fr ->
          step ctx ~method_sig ~max_stack at instr fr)
        ~exn_adjust ~succs:(subroutine_succs code)
    with
    | _ -> ([], ctx.checks)
    | exception Fail msg -> error msg
    | exception Analysis.Solver.Diverged _ ->
      error "verification did not converge"
    | exception Analysis.Cfg.Malformed msg -> error msg
    | exception CP.Invalid_index i ->
      error (Printf.sprintf "invalid constant-pool index %d" i)
    | exception CP.Wrong_kind { index; expected } ->
      error (Printf.sprintf "constant-pool entry %d is not a %s" index expected)
    | exception D.Bad_descriptor d ->
      error (Printf.sprintf "bad descriptor: %s" d))

let verify_class oracle asms (cf : CF.t) =
  List.fold_left
    (fun (errs, checks) m ->
      let e, c = verify_method oracle asms cf m in
      (errs @ e, checks + c))
    ([], 0) cf.CF.methods
