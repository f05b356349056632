(* Instruction-stream patching: the core mechanic of every static
   service component. Services insert instruction blocks before
   existing instructions; branch targets, exception tables and stack
   bounds are fixed up so the result is again a well-formed method.

   Inserted blocks may contain internal branches; their targets are
   interpreted *relative to the block* (0 = first inserted
   instruction). Falling off the end of a block continues into the
   instruction the block was inserted before, so straight-line
   instrumentation needs no explicit jump.

   Each insertion chooses how existing branches interact with it:

   - [redirect = true] (the common case): old branch targets pointing
     at the insertion point are redirected to the block, so the
     instrumentation runs no matter how control reaches the guarded
     instruction.
   - [redirect = false]: branches keep pointing at the original
     instruction; the block runs only when control *falls through*
     into the insertion point. This is how a loop-invariant check is
     hoisted to a loop header — the back edge must skip it.

   At a shared insertion point, fall-through-only blocks are laid out
   first, then redirected blocks, then the original instruction, so
   both semantics hold simultaneously. *)

module I = Bytecode.Instr
module CF = Bytecode.Classfile

type insertion = {
  at : int; (* insert before the instruction currently at this index *)
  block : I.t list; (* targets are block-relative *)
  redirect : bool;
}

let before ?(redirect = true) at block = { at; block; redirect }

(* The layout of a patched method: where every original instruction
   landed, where branches into an old index now go, and where each
   inserted block begins. Certificate emission needs exactly this —
   the rewriter's elision facts are computed over the original code
   but certificates must name positions in the rewritten code the
   validator sees. *)
type layout = {
  l_instr : int array;
      (* old instruction index -> its new index (length n+1; slot n is
         the append point) *)
  l_target : int array;
      (* old branch target -> new target (skips fall-through-only
         blocks, runs redirected ones) *)
  l_starts : int array;
      (* per input insertion, in list order: new index of the block's
         first instruction *)
}

(* [n] (the code length) is a valid insertion point meaning "append at
   the very end" — used when instrumenting past the last instruction
   is needed (rare; returns are usually the anchor). *)
let apply_insertions_layout (code : CF.code) (insertions : insertion list) :
    CF.code * layout =
  let n = Array.length code.CF.instrs in
  List.iter
    (fun { at; _ } ->
      if at < 0 || at > n then invalid_arg "Patch.apply_insertions: bad index")
    insertions;
  (* Group blocks by insertion point, preserving order of same-point
     insertions within each redirect class. Each block keeps its input
     position so the layout can report where it landed. While grouping,
     l_instr.(i) sums the lengths of every block at old index i and
     l_target.(i) those of the fall-through-only ones. *)
  let fall_only = Array.make (n + 1) [] in
  let redirected = Array.make (n + 1) [] in
  let l_instr = Array.make (n + 1) 0 in
  let l_target = Array.make (n + 1) 0 in
  List.iteri
    (fun pos { at; block; redirect } ->
      let len = List.length block in
      if redirect then redirected.(at) <- redirected.(at) @ [ (pos, block) ]
      else begin
        fall_only.(at) <- fall_only.(at) @ [ (pos, block) ];
        l_target.(at) <- l_target.(at) + len
      end;
      l_instr.(at) <- l_instr.(at) + len)
    insertions;
  (* start.(i): new index of the first inserted instruction at old
     index i (fall-through-only blocks first). The old instruction i
     lands after all its blocks; an old branch target skips the
     fall-through-only blocks but runs the redirected ones. *)
  let start = Array.make (n + 1) 0 in
  for i = 0 to n do
    if i > 0 then start.(i) <- l_instr.(i - 1) + 1;
    l_instr.(i) <- start.(i) + l_instr.(i);
    l_target.(i) <- start.(i) + l_target.(i)
  done;
  (* The new length is known up front, so the result is written straight
     into an exact-size array instead of accumulating a list and
     reversing. *)
  let total = l_instr.(n) in
  let instrs = Array.make (Int.max total 1) I.Nop in
  let starts = Array.make (List.length insertions) 0 in
  let emit_blocks i =
    let base = ref start.(i) in
    List.iter
      (fun (pos, block) ->
        let b = !base in
        let rel j = b + j in
        starts.(pos) <- b;
        List.iter
          (fun ins ->
            instrs.(!base) <- I.map_targets rel ins;
            incr base)
          block)
      (fall_only.(i) @ redirected.(i))
  in
  let retarget t = l_target.(t) in
  (* Only positions holding a block pay for emitting one; an empty
     block still records its start. *)
  for i = 0 to n do
    if fall_only.(i) != [] || redirected.(i) != [] then emit_blocks i;
    if i < n then
      instrs.(l_instr.(i)) <- I.map_targets retarget code.CF.instrs.(i)
  done;
  let instrs = if total = 0 then [||] else instrs in
  let handlers =
    List.map
      (fun h ->
        {
          CF.h_start = start.(h.CF.h_start);
          h_end = start.(h.CF.h_end);
          h_target = retarget h.CF.h_target;
          h_catch = h.CF.h_catch;
        })
      code.CF.handlers
  in
  ({ code with CF.instrs; handlers }, { l_instr; l_target; l_starts = starts })

let apply_insertions code insertions =
  fst (apply_insertions_layout code insertions)

(* Recompute stack/locals bounds after patching. The estimate walks the
   new CFG; we keep at least the original bounds, so instrumentation
   can only widen. *)
let refit_bounds pool ~params ~is_static (code : CF.code) : CF.code =
  let handler_targets = List.map (fun h -> h.CF.h_target) code.CF.handlers in
  let max_stack =
    Int.max code.CF.max_stack
      (Bytecode.Builder.estimate_max_stack ~handler_targets pool code.CF.instrs)
  in
  let max_locals =
    Int.max code.CF.max_locals
      (Bytecode.Builder.estimate_max_locals ~params ~is_static code.CF.instrs)
  in
  { code with CF.max_stack; max_locals }

(* Dataflow-exact bounds over *reachable* code. Unlike [refit_bounds],
   dead instructions — e.g. left stranded after an unconditional
   branch by an eliding pass — contribute nothing, and the original
   bounds are not a floor: a method whose deepest-stack path was
   removed gets smaller bounds back. Falls back to [refit_bounds]
   when the code is outside the CFG builder's model — including
   [Solver.Diverged]: the depth lattice has no widening, so a
   net-stack-increasing loop (unverifiable, but decodable) never
   reaches a fixpoint. *)
let recompute pool ~params ~is_static (code : CF.code) : CF.code =
  match
    let cfg = Analysis.Cfg.of_code code in
    let max_stack = Analysis.Stackeff.max_stack pool cfg in
    let max_locals = Analysis.Stackeff.max_locals ~params ~is_static cfg in
    { code with CF.max_stack; max_locals }
  with
  | code -> code
  | exception
      ( Analysis.Cfg.Malformed _ | Analysis.Solver.Diverged _
      | Bytecode.Cp.Invalid_index _ | Bytecode.Cp.Wrong_kind _
      | Bytecode.Descriptor.Bad_descriptor _ ) ->
    refit_bounds pool ~params ~is_static code

let is_return = function
  | I.Ireturn | I.Areturn | I.Return -> true
  | _ -> false

let return_sites (code : CF.code) =
  let sites = ref [] in
  Array.iteri
    (fun i ins -> if is_return ins then sites := i :: !sites)
    code.CF.instrs;
  List.rev !sites

(* Instrument a method body: [entry] runs before the first instruction,
   [before_return] runs before every return. Both blocks must preserve
   the operand stack. *)
let instrument_method pool (m : CF.meth) ~entry ~before_return : CF.meth =
  match m.CF.m_code with
  | None -> m
  | Some code ->
    let insertions =
      (if entry = [] then [] else [ before 0 entry ])
      @
      if before_return = [] then []
      else List.map (fun at -> before at before_return) (return_sites code)
    in
    if insertions = [] then m
    else
      let code = apply_insertions code insertions in
      let sg = Bytecode.Descriptor.method_sig_of_string m.CF.m_desc in
      let code =
        refit_bounds pool
          ~params:(Bytecode.Descriptor.param_slots sg)
          ~is_static:(CF.has_flag m.CF.m_flags CF.Static)
          code
      in
      { m with CF.m_code = Some code }
