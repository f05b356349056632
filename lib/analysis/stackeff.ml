(* Exact per-instruction stack effects, and the dataflow-exact
   max-stack / max-locals computation over *reachable* code that
   `Rewrite.Patch.recompute` exposes. Unlike the builder's
   conservative estimator, dead instructions (e.g. left behind after
   an unconditional branch by a rewriting pass) contribute nothing. *)

module I = Bytecode.Instr
module CF = Bytecode.Classfile
module CP = Bytecode.Cp
module D = Bytecode.Descriptor

(* (pops, pushes). Every DVM type is one slot. Raises the constant
   pool / descriptor exceptions on a malformed invoke site. *)
let effect pool (i : I.t) : int * int =
  let invoke k ~virt =
    let mr = CP.get_methodref pool k in
    let sg = D.method_sig_of_string mr.CP.ref_desc in
    let nargs = List.length sg.D.params + if virt then 1 else 0 in
    (nargs, match sg.D.ret with None -> 0 | Some _ -> 1)
  in
  match i with
  | I.Nop | I.Iinc _ | I.Goto _ | I.Ret _ | I.Return -> (0, 0)
  | I.Iconst _ | I.Ldc_str _ | I.Aconst_null | I.Iload _ | I.Aload _
  | I.Getstatic _ | I.New _ | I.Jsr _ ->
    (0, 1)
  | I.Istore _ | I.Astore _ | I.Putstatic _ | I.Pop | I.If_z _ | I.If_null _
  | I.Tableswitch _ | I.Ireturn | I.Areturn | I.Athrow | I.Monitorenter
  | I.Monitorexit ->
    (1, 0)
  | I.Iadd | I.Isub | I.Imul | I.Idiv | I.Irem | I.Ishl | I.Ishr | I.Iand
  | I.Ior | I.Ixor ->
    (2, 1)
  | I.Ineg | I.Checkcast _ | I.Instanceof _ | I.Getfield _ | I.Newarray
  | I.Anewarray _ | I.Arraylength ->
    (1, 1)
  | I.Dup -> (1, 2)
  | I.Dup_x1 -> (2, 3)
  | I.Swap -> (2, 2)
  | I.If_icmp _ | I.If_acmp _ | I.Putfield _ -> (2, 0)
  | I.Iaload | I.Aaload -> (2, 1)
  | I.Iastore | I.Aastore -> (3, 0)
  | I.Invokestatic k -> invoke k ~virt:false
  | I.Invokevirtual k | I.Invokespecial k | I.Invokeinterface k ->
    invoke k ~virt:true

(* Exact maximum operand-stack height over reachable paths. Depths are
   propagated along normal edges; a handler entry holds exactly the
   thrown reference (depth 1). On a join-depth mismatch — impossible
   in verifiable code, tolerated here — the maximum is kept. *)
module Depth = struct
  type t = int

  let equal = Int.equal
  let join = max
end

module DS = Solver.Make (Depth)

let max_stack pool (cfg : Cfg.t) : int =
  let deepest = ref 0 in
  let transfer ~at:_ ~instr d =
    let pops, pushes = effect pool instr in
    let d' = max 0 (d - pops) + pushes in
    if d' > !deepest then deepest := d';
    d'
  in
  let r = DS.solve cfg ~init:0 ~transfer ~exn_adjust:(fun _ _ -> 1) in
  (* The transfer only runs where the solver walks; seed with entry
     depths too so a lone-return method reports 0 correctly. *)
  Array.iter (function Some d -> if d > !deepest then deepest := d | None -> ()) r.before;
  !deepest

(* Exact locals requirement over reachable instructions. *)
let max_locals ~params ~is_static (cfg : Cfg.t) : int =
  let reach = Cfg.instr_reachable cfg in
  let need = ref (params + if is_static then 0 else 1) in
  Array.iteri
    (fun idx ins ->
      if reach.(idx) then
        match ins with
        | I.Iload n | I.Istore n | I.Aload n | I.Astore n | I.Iinc (n, _)
        | I.Ret n ->
          if n + 1 > !need then need := n + 1
        | _ -> ())
    cfg.Cfg.code.CF.instrs;
  !need
