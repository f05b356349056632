(* Tests for the proxy-side dataflow analysis framework: CFG
   construction, dominators and loops, the abstract domains, the
   dataflow-exact bound recomputation behind `Rewrite.Patch.recompute`,
   JIT guard elision, static repartitioning — and the end-to-end
   property that security-check elision is observationally equivalent
   on every bundled workload. *)

module A = Analysis
module B = Bytecode.Builder
module CF = Bytecode.Classfile
module I = Bytecode.Instr

let check = Alcotest.check
let fail = Alcotest.fail
let static = [ CF.Public; CF.Static ]

let code_of cls name desc =
  match CF.find_method cls name desc with
  | Some { CF.m_code = Some c; _ } -> c
  | _ -> fail "method not found"

let meth_of cls name desc =
  match CF.find_method cls name desc with
  | Some m -> m
  | None -> fail "method not found"

(* Index of the first instruction matching [p]. *)
let idx_of (code : CF.code) p =
  let found = ref (-1) in
  Array.iteri
    (fun i ins -> if !found < 0 && p ins then found := i)
    code.CF.instrs;
  if !found < 0 then fail "instruction not found";
  !found

let facts_of cls name desc =
  match
    A.Pass.for_method cls.CF.pool ~cls:cls.CF.name (meth_of cls name desc)
  with
  | Some f -> f
  | None -> fail "no analysis facts"

(* ------------------------------------------------------------------ *)
(* CFG construction                                                    *)

(* Diamond: 0:Iload 1:If_z->4 | 2:Const 3:Goto->5 | 4:Const | 5:Ireturn *)
let diamond_cls =
  B.class_ "D"
    [
      B.meth ~flags:static "f" "(I)I"
        [
          B.Iload 0;
          B.If_z (I.Ne, "else");
          B.Const 1;
          B.Goto "join";
          B.Label "else";
          B.Const 2;
          B.Label "join";
          B.Ireturn;
        ];
    ]

let test_cfg_blocks () =
  let cfg = A.Cfg.of_code (code_of diamond_cls "f" "(I)I") in
  check Alcotest.int "blocks" 4 (A.Cfg.block_count cfg);
  check Alcotest.int "entry block spans [0..1]" 1 (A.Cfg.block cfg 0).A.Cfg.last;
  check Alcotest.int "instr 3 in block 1" 1 cfg.A.Cfg.block_of.(3);
  check Alcotest.int "instr 4 in block 2" 2 cfg.A.Cfg.block_of.(4);
  let succ_ids b = List.map fst (A.Cfg.block cfg b).A.Cfg.succs in
  check
    Alcotest.(list int)
    "entry branches to else and falls to then" [ 2; 1 ]
    (succ_ids 0);
  check Alcotest.(list int) "then jumps to join" [ 3 ] (succ_ids 1);
  check Alcotest.(list int) "else falls to join" [ 3 ] (succ_ids 2);
  Array.iter
    (fun r -> check Alcotest.bool "all blocks reachable" true r)
    cfg.A.Cfg.reachable

let test_cfg_exception_edges () =
  let cls =
    B.class_ "E"
      [
        B.meth ~flags:static
          ~handlers:[ ("try_s", "try_e", "h", None) ]
          "f" "()I"
          [
            B.Label "try_s";
            B.Const 1;
            B.Pop;
            B.Label "try_e";
            B.Const 0;
            B.Ireturn;
            B.Label "h";
            B.Pop;
            B.Const 9;
            B.Ireturn;
          ];
      ]
  in
  let cfg = A.Cfg.of_code (code_of cls "f" "()I") in
  let handler_block = cfg.A.Cfg.block_of.(4) in
  let exn_succs =
    List.filter (fun (_, k) -> k = A.Cfg.Exn) (A.Cfg.block cfg 0).A.Cfg.succs
  in
  check
    Alcotest.(list int)
    "covered block has an exn edge to the handler" [ handler_block ]
    (List.map fst exn_succs);
  check Alcotest.bool "handler reachable via the exn edge" true
    cfg.A.Cfg.reachable.(handler_block)

(* The message is pinned as well as the exception: the leader scan
   checks targets in instruction order (a switch's default first) and
   finds a fall off the end at the last instruction, after that
   instruction's own targets. *)
let test_cfg_malformed () =
  let raises msg instrs =
    match
      A.Cfg.of_code { CF.max_stack = 1; max_locals = 1; instrs; handlers = [] }
    with
    | _ -> fail ("expected Malformed: " ^ msg)
    | exception A.Cfg.Malformed m -> check Alcotest.string msg msg m
  in
  let off_end = "control falls off the end of the code array" in
  raises "branch target @99 out of range at instruction 0" [| I.Goto 99 |];
  raises off_end [| I.Iconst 1l |];
  raises "branch target @50 out of range at instruction 1"
    [| I.Nop; I.If_z (I.Eq, 50); I.Goto 70; I.Return |];
  raises "branch target @-1 out of range at instruction 0"
    [| I.Goto (-1); I.If_z (I.Eq, 9); I.Return |];
  raises "branch target @9 out of range at instruction 0"
    [|
      I.Tableswitch { low = 0l; targets = [| 1; 7 |]; default = 9 };
      I.Return;
    |];
  raises "branch target @7 out of range at instruction 0"
    [|
      I.Tableswitch { low = 0l; targets = [| 1; 7; 8 |]; default = 1 };
      I.Return;
    |];
  (* falling off the end is reported at the last instruction: after
     every earlier instruction's targets and the last one's own *)
  raises "branch target @5 out of range at instruction 0"
    [| I.Goto 5; I.Iconst 1l |];
  raises "branch target @4 out of range at instruction 1"
    [| I.Iconst 1l; I.If_z (I.Eq, 4) |];
  raises off_end [| I.Iconst 1l; I.If_z (I.Eq, 0) |];
  raises off_end [| I.Goto 1; I.Nop |]

(* ------------------------------------------------------------------ *)
(* Dominators and loops                                                *)

let test_dominators () =
  let cfg = A.Cfg.of_code (code_of diamond_cls "f" "(I)I") in
  let d = A.Dom.compute cfg in
  check Alcotest.(option int) "entry has no idom" None (A.Dom.idom d 0);
  check Alcotest.(option int) "then's idom is entry" (Some 0) (A.Dom.idom d 1);
  check Alcotest.(option int) "else's idom is entry" (Some 0) (A.Dom.idom d 2);
  check
    Alcotest.(option int)
    "join's idom is entry (not a branch arm)" (Some 0) (A.Dom.idom d 3);
  check Alcotest.bool "entry dominates join" true (A.Dom.dominates d 0 3);
  check Alcotest.bool "then does not dominate join" false (A.Dom.dominates d 1 3);
  check Alcotest.(list (pair int int)) "diamond has no back edges" []
    (List.concat_map
       (fun l -> List.map (fun latch -> (latch, l.A.Dom.header)) l.A.Dom.latches)
       (A.Dom.loops d))

let test_loops () =
  let cls =
    B.class_ "L"
      [
        B.meth ~flags:static "count" "(I)I"
          [
            B.Const 0;
            B.Istore 1;
            B.Label "head";
            B.Iload 1;
            B.Iload 0;
            B.If_icmp (I.Ge, "exit");
            B.Inc (1, 1);
            B.Goto "head";
            B.Label "exit";
            B.Iload 1;
            B.Ireturn;
          ];
      ]
  in
  let cfg = A.Cfg.of_code (code_of cls "count" "(I)I") in
  let d = A.Dom.compute cfg in
  match A.Dom.loops d with
  | [ loop ] ->
    check Alcotest.int "loop header holds the comparison"
      cfg.A.Cfg.block_of.(2)
      loop.A.Dom.header;
    check Alcotest.int "one latch" 1 (List.length loop.A.Dom.latches);
    check Alcotest.int "body is header + latch" 2
      (Hashtbl.length loop.A.Dom.body)
  | ls -> fail (Printf.sprintf "expected 1 loop, found %d" (List.length ls))

(* --- QCheck: [Dom.compute] (the RPO fixpoint) vs the textbook
   definition — a dominates b iff every entry→b path passes through a,
   i.e. iff b becomes unreachable once a is removed from the graph.
   Random small CFGs of gotos, conditionals and early returns cover
   joins, unreachable tails and irreducible shapes. --- *)

let naive_dominates cfg a b =
  let n = A.Cfg.block_count cfg in
  let reach_avoiding skip =
    let seen = Array.make n false in
    let rec go u =
      if u <> skip && not seen.(u) then begin
        seen.(u) <- true;
        List.iter (fun (v, _) -> go v) (A.Cfg.block cfg u).A.Cfg.succs
      end
    in
    if skip <> 0 then go 0;
    seen
  in
  if not (reach_avoiding (-1)).(b) then false
  else if a = b then true
  else not (reach_avoiding a).(b)

let arbitrary_dom_code =
  let gen =
    QCheck.Gen.(
      int_range 2 14 >>= fun n ->
      let instr i =
        if i = n - 1 then return I.Return
        else
          frequency
            [
              (4, return I.Nop);
              (2, map (fun t -> I.Goto t) (int_range 0 (n - 1)));
              (3, map (fun t -> I.If_z (I.Eq, t)) (int_range 0 (n - 1)));
              (1, return I.Return);
            ]
      in
      map
        (fun instrs ->
          {
            CF.max_stack = 2;
            max_locals = 1;
            instrs = Array.of_list instrs;
            handlers = [];
          })
        (flatten_l (List.init n instr)))
  in
  QCheck.make gen ~print:(fun code ->
      String.concat "\n"
        (List.mapi
           (fun i ins -> Printf.sprintf "%2d: %s" i (I.to_string ins))
           (Array.to_list code.CF.instrs)))

let prop_dom_matches_naive =
  QCheck.Test.make ~name:"dominators match the path-based definition"
    ~count:300 arbitrary_dom_code (fun code ->
      let cfg = A.Cfg.of_code code in
      let dom = A.Dom.compute cfg in
      let n = A.Cfg.block_count cfg in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if A.Dom.dominates dom a b <> naive_dominates cfg a b then
            ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Abstract domains                                                    *)

let nullness_cls =
  B.class_ "N"
    [
      (* the array in local 1 comes from newarray: provably non-null *)
      B.meth ~flags:static "nn" "()I"
        [
          B.Const 8;
          B.Newarray;
          B.Astore 1;
          B.Aload 1;
          B.Arraylength;
          B.Ireturn;
        ];
      (* local 1 is provably null *)
      B.meth ~flags:static "nl" "()I"
        [ B.Null; B.Astore 1; B.Aload 1; B.Arraylength; B.Ireturn ];
    ]

let nullness_at cls name =
  let f = facts_of cls name "()I" in
  let at = idx_of f.A.Pass.code (fun i -> i = I.Arraylength) in
  match (Lazy.force f.A.Pass.nullness).A.Nullness.before.(at) with
  | Some st -> A.Nullness.stack_nonnull st ~depth:0
  | None -> fail "arraylength unreachable?"

let test_nullness () =
  check Alcotest.bool "newarray-origin value is non-null" true
    (nullness_at nullness_cls "nn");
  check Alcotest.bool "null-origin value is not provably non-null" false
    (nullness_at nullness_cls "nl")

let range_cls =
  B.class_ "R"
    [
      (* constant index 3 into a length-8 array, through a local *)
      B.meth ~flags:static "ib" "()I"
        [
          B.Const 8;
          B.Newarray;
          B.Astore 1;
          B.Aload 1;
          B.Const 3;
          B.Iaload;
          B.Ireturn;
        ];
      (* index 8 into a length-8 array: not provable *)
      B.meth ~flags:static "ob" "()I"
        [
          B.Const 8;
          B.Newarray;
          B.Astore 1;
          B.Aload 1;
          B.Const 8;
          B.Iaload;
          B.Ireturn;
        ];
    ]

let in_bounds_at cls name =
  let f = facts_of cls name "()I" in
  let at = idx_of f.A.Pass.code (fun i -> i = I.Iaload) in
  match (Lazy.force f.A.Pass.ranges).A.Intrange.before.(at) with
  | Some st -> A.Intrange.in_bounds st ~idx_depth:0 ~arr_depth:1
  | None -> fail "iaload unreachable?"

let test_intrange () =
  check Alcotest.bool "constant index within newarray length" true
    (in_bounds_at range_cls "ib");
  check Alcotest.bool "index = length is not in bounds" false
    (in_bounds_at range_cls "ob")

(* Regression: a store to a local must sever the origin link held by
   stale stack slots. Here local 1 is overwritten with null while its
   *old* (non-null) value is still on the stack; the dereference of
   that old value must not settle the overwritten local as non-null. *)
let test_nullness_stale_origin () =
  let cls =
    B.class_ "NStale"
      [
        B.meth ~flags:static "s" "()I"
          [
            B.Const 8;
            B.Newarray;
            B.Astore 1;
            B.Aload 1;
            B.Null;
            B.Astore 1;
            (* deref of the stale stack value: must not refine local 1 *)
            B.Arraylength;
            B.Pop;
            B.Aload 1;
            B.Arraylength;
            B.Ireturn;
          ];
      ]
  in
  let f = facts_of cls "s" "()I" in
  let last = ref (-1) in
  Array.iteri
    (fun i ins -> if ins = I.Arraylength then last := i)
    f.A.Pass.code.CF.instrs;
  match (Lazy.force f.A.Pass.nullness).A.Nullness.before.(!last) with
  | Some st ->
    check Alcotest.bool
      "null local is not marked non-null through a stale stack slot" false
      (A.Nullness.stack_nonnull st ~depth:0)
  | None -> fail "final arraylength unreachable?"

(* Regression: `ifnull` whose target *is* the fall-through reaches the
   same successor whether the value is null or not, so neither edge may
   refine the origin local. *)
let test_nullness_degenerate_branch () =
  let cls =
    B.class_ "NDegen"
      [
        B.meth ~flags:static "d" "(Ljava/lang/Object;)I"
          [
            B.Aload 0;
            B.If_null (true, "next");
            B.Label "next";
            B.Aload 0;
            B.Arraylength;
            B.Ireturn;
          ];
      ]
  in
  let f = facts_of cls "d" "(Ljava/lang/Object;)I" in
  let at = idx_of f.A.Pass.code (fun i -> i = I.Arraylength) in
  match (Lazy.force f.A.Pass.nullness).A.Nullness.before.(at) with
  | Some st ->
    check Alcotest.bool
      "self-targeting ifnull proves nothing about its operand" false
      (A.Nullness.stack_nonnull st ~depth:0)
  | None -> fail "arraylength unreachable?"

(* Regression (intrange flavour of the stale-origin bug): local 0 is
   overwritten with an unbounded value while its old value is compared
   on the stack; the branch must not narrow the *new* local through
   the stale origin link. *)
let test_intrange_stale_origin () =
  let cls =
    B.class_ "RStale"
      [
        B.meth ~flags:static "s" "(II)I"
          [
            B.Iload 0;
            B.Iload 1;
            B.Istore 0;
            B.Const 8;
            (* compares the OLD local 0; the new one is unbounded *)
            B.If_icmp (I.Ge, "exit");
            B.Iload 0;
            B.Ireturn;
            B.Label "exit";
            B.Const 0;
            B.Ireturn;
          ];
      ]
  in
  let f = facts_of cls "s" "(II)I" in
  let at = idx_of f.A.Pass.code (fun i -> i = I.Ireturn) in
  match (Lazy.force f.A.Pass.ranges).A.Intrange.before.(at) with
  | Some st -> (
    match A.Intrange.stack_at st ~depth:0 with
    | Some av ->
      check
        Alcotest.(option int)
        "overwritten local is not narrowed through a stale stack slot" None
        av.A.Intrange.iv.A.Intrange.hi
    | None -> fail "empty stack at return?")
  | None -> fail "return unreachable?"

(* Regression: an integer branch whose target is the fall-through
   proves nothing on either edge. *)
let test_intrange_degenerate_branch () =
  let cls =
    B.class_ "RDegen"
      [
        B.meth ~flags:static "d" "(I)I"
          [
            B.Iload 0;
            B.If_z (I.Ge, "next");
            B.Label "next";
            B.Iload 0;
            B.Ireturn;
          ];
      ]
  in
  let f = facts_of cls "d" "(I)I" in
  let at = idx_of f.A.Pass.code (fun i -> i = I.Ireturn) in
  match (Lazy.force f.A.Pass.ranges).A.Intrange.before.(at) with
  | Some st -> (
    match A.Intrange.stack_at st ~depth:0 with
    | Some av ->
      check
        Alcotest.(option int)
        "self-targeting ifge does not bound the operand below" None
        av.A.Intrange.iv.A.Intrange.lo;
      check
        Alcotest.(option int)
        "self-targeting ifge does not bound the operand above" None
        av.A.Intrange.iv.A.Intrange.hi
    | None -> fail "empty stack at return?")
  | None -> fail "return unreachable?"

let test_checks_available () =
  let body tail = (B.Const 1 :: tail) @ [ B.Const 0; B.Ireturn ] in
  let cls =
    B.class_ "C"
      [
        B.meth ~flags:static "plain" "()I" (body [ B.Pop; B.Const 2; B.Pop ]);
        B.meth ~flags:static "locked" "()I"
          (body [ B.Pop; B.Null; B.Monitorenter ]);
      ]
  in
  let gen at = if at = 0 then [ "p" ] else [] in
  let r name =
    A.Checks.analyze (A.Cfg.of_code (code_of cls name "()I")) ~gen
  in
  let plain = r "plain" in
  check Alcotest.bool "not available before the generating site" false
    (A.Checks.available plain ~at:0 ~fact:"p");
  check Alcotest.bool "available downstream" true
    (A.Checks.available plain ~at:2 ~fact:"p");
  let locked = r "locked" in
  let after_monitor =
    idx_of (code_of cls "locked" "()I") (fun i -> i = I.Monitorenter) + 1
  in
  check Alcotest.bool "monitorenter kills availability" false
    (A.Checks.available locked ~at:after_monitor ~fact:"p")

(* ------------------------------------------------------------------ *)
(* Call-graph reachability and static repartitioning                   *)

let reach_cls =
  B.class_ "A"
    [
      B.meth ~flags:static "main" "()V"
        [ B.Invokestatic ("A", "used", "()I"); B.Pop; B.Return ];
      B.meth ~flags:static "used" "()I" [ B.Const 1; B.Ireturn ];
      B.meth ~flags:static "dead" "()I" [ B.Const 2; B.Ireturn ];
    ]

let test_reach () =
  let r = A.Reach.analyze [ reach_cls ] ~entries:[ ("A", "main", "()V") ] in
  check Alcotest.bool "called method reachable" true
    (A.Reach.is_reachable r ~cls:"A" ~meth:"used" ~desc:"()I");
  check Alcotest.bool "uncalled method not reachable" false
    (A.Reach.is_reachable r ~cls:"A" ~meth:"dead" ~desc:"()I")

let test_of_static () =
  let p =
    Opt.First_use.of_static [ reach_cls ] ~entries:[ ("A", "main", "()V") ]
  in
  check Alcotest.bool "reachable method is used" true
    (Opt.First_use.is_used p (Opt.First_use.method_key "A" "used" "()I"));
  check Alcotest.bool "dead method is cold" false
    (Opt.First_use.is_used p (Opt.First_use.method_key "A" "dead" "()I"));
  let _hot, cold = Opt.First_use.partition p reach_cls in
  check Alcotest.bool "partition sends the dead method cold" true
    (List.exists (fun m -> m.CF.m_name = "dead") cold)

(* ------------------------------------------------------------------ *)
(* Patch.recompute regression: dead bytecode after an unconditional
   branch. The original method reaches a depth-5 region through a
   conditional branch; an eliding pass turns the branch into a goto,
   stranding the deep region. `refit_bounds` keeps the stale bound 5
   (the original bounds are a floor); `recompute` walks only reachable
   paths and shrinks max_stack back to the true depth 2. *)

let test_recompute_dead_code () =
  let cls =
    B.class_ "P"
      [
        B.meth ~flags:static "p" "(I)I"
          [
            B.Iload 0;
            B.If_z (I.Ne, "deep");
            B.Const 1;
            B.Ireturn;
            B.Label "deep";
            B.Const 1;
            B.Const 2;
            B.Const 3;
            B.Const 4;
            B.Const 5;
            B.Add;
            B.Add;
            B.Add;
            B.Add;
            B.Ireturn;
          ];
      ]
  in
  let code = code_of cls "p" "(I)I" in
  check Alcotest.int "original bound covers the deep region" 5
    code.CF.max_stack;
  (* the "eliding pass": branch becomes an unconditional goto *)
  let instrs = Array.copy code.CF.instrs in
  instrs.(1) <- I.Goto 2;
  let dead = { code with CF.instrs } in
  let refit =
    Rewrite.Patch.refit_bounds cls.CF.pool ~params:1 ~is_static:true dead
  in
  let exact =
    Rewrite.Patch.recompute cls.CF.pool ~params:1 ~is_static:true dead
  in
  check Alcotest.int "refit keeps the stale over-estimate" 5
    refit.CF.max_stack;
  check Alcotest.int "recompute is exact over reachable paths" 2
    exact.CF.max_stack;
  check Alcotest.bool "regression: recompute below refit" true
    (exact.CF.max_stack < refit.CF.max_stack);
  check Alcotest.int "locals unchanged" 1 exact.CF.max_locals

(* Regression: a net-stack-increasing loop has no depth fixpoint (the
   depth lattice joins by max, unwidened); recompute must fall back to
   the conservative estimate instead of leaking Solver.Diverged. *)
let test_recompute_divergent_loop () =
  let code =
    {
      CF.max_stack = 1;
      max_locals = 1;
      instrs = [| I.Iconst 1l; I.Goto 0 |];
      handlers = [];
    }
  in
  let r =
    Rewrite.Patch.recompute diamond_cls.CF.pool ~params:0 ~is_static:true code
  in
  check Alcotest.bool "divergent code keeps a conservative bound" true
    (r.CF.max_stack >= 1)

(* ------------------------------------------------------------------ *)
(* JIT guard elision                                                   *)

let guard_cls =
  B.class_ "G"
    [
      B.meth ~flags:static "get" "()I"
        [
          B.Const 8;
          B.Newarray;
          B.Astore 1;
          B.Aload 1;
          B.Const 3;
          B.Iaload;
          B.Ireturn;
        ];
      B.meth ~flags:static "oob" "()I"
        [
          B.Const 2;
          B.Newarray;
          B.Astore 1;
          B.Aload 1;
          B.Const 5;
          B.Iaload;
          B.Ireturn;
        ];
    ]

let translate_guarded ?facts name =
  let stats = Jit.Translate.fresh_guard_stats () in
  let ir =
    Jit.Translate.translate_method ?facts ~stats guard_cls.CF.pool
      (meth_of guard_cls name "()I")
  in
  (ir, stats)

let test_guard_elision () =
  let plain, s0 = translate_guarded "get" in
  check Alcotest.int "without facts: null + bounds guards emitted" 2
    s0.Jit.Translate.emitted;
  check Alcotest.int "without facts: nothing elided" 0 s0.Jit.Translate.elided;
  let facts = facts_of guard_cls "get" "()I" in
  let elided, s1 = translate_guarded ~facts "get" in
  check Alcotest.int "with facts: both guards elided" 2 s1.Jit.Translate.elided;
  check Alcotest.int "with facts: nothing emitted" 0 s1.Jit.Translate.emitted;
  let result ir =
    match Jit.Exec.run ir [] with
    | Some (Jit.Exec.Vint r) -> Int32.to_int r
    | _ -> fail "kernel: no result"
  in
  check Alcotest.int "guarded and elided kernels agree" (result plain)
    (result elided)

let test_guard_catches_fault () =
  let faults (ir, _) =
    match Jit.Exec.run ir [] with
    | _ -> false
    | exception Jit.Exec.Kernel_fault _ -> true
  in
  check Alcotest.bool "unprovable access keeps its guard (no facts)" true
    (faults (translate_guarded "oob"));
  let facts = facts_of guard_cls "oob" "()I" in
  check Alcotest.bool "unprovable access keeps its guard (with facts)" true
    (faults (translate_guarded ~facts "oob"))

(* Random straight-line array programs with constant in-bounds
   indices: guard elision must never change the kernel's result, and
   facts must never make the translation emit more guards. *)
let prop_guard_elision_equivalent =
  let gen =
    QCheck.Gen.(
      let* n = 1 -- 8 in
      let* writes = list_size (0 -- 6) (pair (0 -- (n - 1)) (0 -- 100)) in
      let* k = 0 -- (n - 1) in
      return (n, writes, k))
  in
  let arbitrary =
    QCheck.make gen ~print:(fun (n, writes, k) ->
        Printf.sprintf "n=%d writes=[%s] read=%d" n
          (String.concat ";"
             (List.map (fun (i, v) -> Printf.sprintf "%d<-%d" i v) writes))
          k)
  in
  QCheck.Test.make ~name:"guard elision preserves kernel semantics" ~count:60
    arbitrary
    (fun (n, writes, k) ->
      let body =
        [ B.Const n; B.Newarray; B.Astore 1 ]
        @ List.concat_map
            (fun (i, v) -> [ B.Aload 1; B.Const i; B.Const v; B.Iastore ])
            writes
        @ [ B.Aload 1; B.Const k; B.Iaload; B.Ireturn ]
      in
      let cls = B.class_ "Q" [ B.meth ~flags:static "q" "()I" body ] in
      let m = meth_of cls "q" "()I" in
      let run ?facts () =
        let stats = Jit.Translate.fresh_guard_stats () in
        let ir =
          Jit.Translate.translate_method ?facts ~stats cls.CF.pool m
        in
        match Jit.Exec.run ir [] with
        | Some (Jit.Exec.Vint r) -> (Int32.to_int r, stats)
        | _ -> fail "kernel: no result"
      in
      let plain, s0 = run () in
      A.Pass.clear ();
      let facts = facts_of cls "q" "()I" in
      let elided, s1 = run ~facts () in
      let expected =
        List.fold_left (fun acc (i, v) -> if i = k then v else acc) 0 writes
      in
      plain = expected && elided = expected
      && s1.Jit.Translate.emitted <= s0.Jit.Translate.emitted
      && s1.Jit.Translate.elided > 0)

(* ------------------------------------------------------------------ *)
(* Observational equivalence of security-check elision                 *)

(* One permission per app, every worker class covered — the same
   policy shape the bench's elide phase uses, so elision and hoisting
   both actually fire. *)
let cover_policy ~default (app : Workloads.Appgen.app) =
  let perm = "work." ^ app.Workloads.Appgen.spec.Workloads.Appgen.name in
  let ops =
    List.filter_map
      (fun (c : CF.t) ->
        if List.exists (fun (m : CF.meth) -> m.CF.m_name = "hot") c.CF.methods
        then
          Some
            (Printf.sprintf {|<operation permission="%s" class="%s" method="*"/>|}
               perm c.CF.name)
        else None)
      app.Workloads.Appgen.classes
  in
  let grant =
    if default = "allow" then
      Printf.sprintf {|<grant permission="%s"/>|} perm
    else ""
  in
  Security.Policy_xml.parse
    (Printf.sprintf
       {|<policy default="%s">
           <domain name="apps">%s</domain>
           %s
           <principal classprefix="" domain="apps"/>
         </policy>|}
       default grant
       (String.concat "\n" ops))

let rec is_subseq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' -> if x = y then is_subseq xs' ys' else is_subseq xs ys'

let run_pair ~default spec =
  let app = Workloads.Apps.build_small spec in
  let policy = cover_policy ~default app in
  let arch = Dvm.Experiment.Dvm { cached = false } in
  A.Pass.clear ();
  let off = Dvm.Experiment.run ~policy ~elide:false ~arch app in
  A.Pass.clear ();
  let on = Dvm.Experiment.run ~policy ~elide:true ~arch app in
  (off, on)

let check_equivalent name (off : Dvm.Experiment.result)
    (on : Dvm.Experiment.result) =
  check Alcotest.string (name ^ ": output byte-identical")
    off.Dvm.Experiment.r_output on.Dvm.Experiment.r_output;
  check Alcotest.bool (name ^ ": unelided run decided something") true
    (off.Dvm.Experiment.r_decisions <> []);
  check Alcotest.bool
    (name ^ ": elided decisions are a subsequence of the unelided ones")
    true
    (is_subseq on.Dvm.Experiment.r_decisions off.Dvm.Experiment.r_decisions);
  let verdicts r =
    List.sort_uniq compare r.Dvm.Experiment.r_decisions
  in
  check
    Alcotest.(list (pair string bool))
    (name ^ ": same (permission, verdict) set")
    (verdicts off) (verdicts on);
  check Alcotest.bool (name ^ ": elision never adds checks") true
    (on.Dvm.Experiment.r_enforcement_checks
    <= off.Dvm.Experiment.r_enforcement_checks)

let test_workload_equivalence () =
  let improved = ref 0 in
  List.iter
    (fun spec ->
      let name = spec.Workloads.Appgen.name in
      let off, on = run_pair ~default:"allow" spec in
      check_equivalent name off on;
      if
        on.Dvm.Experiment.r_enforcement_checks
        < off.Dvm.Experiment.r_enforcement_checks
      then incr improved)
    Workloads.Apps.all_specs;
  check Alcotest.bool "elision strictly reduces checks on most workloads" true
    (!improved >= 3)

(* Denial path: with a default-deny policy the very first (possibly
   hoisted) check throws; elided and unelided runs must fail at the
   same observable point with the same decisions. *)
let test_workload_denial_equivalence () =
  let off, on = run_pair ~default:"deny" Workloads.Apps.jlex in
  check Alcotest.string "denied runs produce identical output"
    off.Dvm.Experiment.r_output on.Dvm.Experiment.r_output;
  check Alcotest.bool "the denial decision is recorded" true
    (List.exists (fun (_, v) -> not v) off.Dvm.Experiment.r_decisions);
  check
    Alcotest.(list (pair string bool))
    "identical decision sequences on the denial path"
    off.Dvm.Experiment.r_decisions on.Dvm.Experiment.r_decisions

let () =
  Alcotest.run "analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "basic blocks and edges" `Quick test_cfg_blocks;
          Alcotest.test_case "exception edges" `Quick test_cfg_exception_edges;
          Alcotest.test_case "malformed code rejected" `Quick
            test_cfg_malformed;
        ] );
      ( "dom",
        [
          Alcotest.test_case "dominators on a diamond" `Quick test_dominators;
          Alcotest.test_case "natural loop detection" `Quick test_loops;
          QCheck_alcotest.to_alcotest prop_dom_matches_naive;
        ] );
      ( "domains",
        [
          Alcotest.test_case "nullness" `Quick test_nullness;
          Alcotest.test_case "nullness: stale origin severed" `Quick
            test_nullness_stale_origin;
          Alcotest.test_case "nullness: degenerate branch" `Quick
            test_nullness_degenerate_branch;
          Alcotest.test_case "integer ranges" `Quick test_intrange;
          Alcotest.test_case "ranges: stale origin severed" `Quick
            test_intrange_stale_origin;
          Alcotest.test_case "ranges: degenerate branch" `Quick
            test_intrange_degenerate_branch;
          Alcotest.test_case "available checks" `Quick test_checks_available;
        ] );
      ( "reach",
        [
          Alcotest.test_case "call-graph reachability" `Quick test_reach;
          Alcotest.test_case "static cold partition" `Quick test_of_static;
        ] );
      ( "recompute",
        [
          Alcotest.test_case "dead code after unconditional branch" `Quick
            test_recompute_dead_code;
          Alcotest.test_case "divergent stack loop falls back" `Quick
            test_recompute_divergent_loop;
        ] );
      ( "guards",
        [
          Alcotest.test_case "elision on provable accesses" `Quick
            test_guard_elision;
          Alcotest.test_case "unprovable accesses keep guards" `Quick
            test_guard_catches_fault;
          QCheck_alcotest.to_alcotest prop_guard_elision_equivalent;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "elision is observationally equivalent" `Slow
            test_workload_equivalence;
          Alcotest.test_case "denial path unchanged" `Quick
            test_workload_denial_equivalence;
        ] );
    ]
