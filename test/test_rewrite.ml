(* Tests for the binary-rewriting engine: insertion semantics, target
   remapping, handler adjustment, bound refitting — and the property
   that patching preserves program behaviour. *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile
module I = Bytecode.Instr
module P = Rewrite.Patch

let check = Alcotest.check
let fail = Alcotest.fail
let static = [ CF.Public; CF.Static ]

let code_of cls name desc =
  match CF.find_method cls name desc with
  | Some { CF.m_code = Some c; _ } -> c
  | _ -> fail "method not found"

let run_static classes cls name desc args =
  let vm = Jvm.Bootlib.fresh_vm () in
  List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg) classes;
  Jvm.Interp.invoke vm ~cls ~name ~desc args

(* A branchy method: f(n) = if n < 10 then n*2 else n-10, via a loop. *)
let subject =
  B.class_ "Subject"
    [
      B.meth ~flags:static "f" "(I)I"
        [
          B.Iload 0;
          B.Const 10;
          B.If_icmp (I.Lt, "small");
          B.Iload 0;
          B.Const 10;
          B.Sub;
          B.Ireturn;
          B.Label "small";
          B.Iload 0;
          B.Const 2;
          B.Mul;
          B.Ireturn;
        ];
    ]

let expect_f classes n =
  match
    run_static classes "Subject" "f" "(I)I" [ Jvm.Value.Int (Int32.of_int n) ]
  with
  | Some (Jvm.Value.Int r) -> Int32.to_int r
  | _ -> fail "no result"

let test_insert_preserves_semantics () =
  let code = code_of subject "f" "(I)I" in
  (* Insert stack-neutral no-ops before every instruction. *)
  let insertions =
    List.init (Array.length code.CF.instrs) (fun at ->
        P.before at [ I.Nop; I.Iconst 7l; I.Pop ])
  in
  let code' = P.apply_insertions code insertions in
  let code' = P.refit_bounds subject.CF.pool ~params:1 ~is_static:true code' in
  let patched =
    CF.map_methods
      (fun m ->
        if m.CF.m_name = "f" then { m with CF.m_code = Some code' } else m)
      subject
  in
  List.iter
    (fun n ->
      check Alcotest.int
        (Printf.sprintf "f(%d) unchanged" n)
        (expect_f [ subject ] n)
        (expect_f [ patched ] n))
    [ 0; 5; 9; 10; 25 ]

let test_branch_targets_hit_inserted_code () =
  (* Instrument the "small" branch target with a counter bump; both the
     fallthrough path and the branch path must execute it. *)
  let counter =
    B.class_ "Ctr"
      ~fields:[ B.field ~flags:static "n" "I" ]
      [
        B.meth ~flags:static "bump" "()V"
          [
            B.Getstatic ("Ctr", "n", "I");
            B.Const 1;
            B.Add;
            B.Putstatic ("Ctr", "n", "I");
            B.Return;
          ];
        B.meth ~flags:static "get" "()I"
          [ B.Getstatic ("Ctr", "n", "I"); B.Ireturn ];
      ]
  in
  let code = code_of subject "f" "(I)I" in
  (* Find the index the Lt branch targets (the "small" label). *)
  let target =
    Array.to_list code.CF.instrs
    |> List.find_map (function I.If_icmp (I.Lt, t) -> Some t | _ -> None)
    |> Option.get
  in
  let pool = Bytecode.Cp.Builder.of_pool subject.CF.pool in
  let bump =
    I.Invokestatic
      (Bytecode.Cp.Builder.methodref pool ~cls:"Ctr" ~name:"bump" ~desc:"()V")
  in
  let code' = P.apply_insertions code [ P.before target [ bump ] ] in
  let patched =
    {
      (CF.map_methods
         (fun m ->
           if m.CF.m_name = "f" then { m with CF.m_code = Some code' } else m)
         subject)
      with
      CF.pool = Bytecode.Cp.Builder.to_pool pool;
    }
  in
  let vm = Jvm.Bootlib.fresh_vm () in
  List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg) [ patched; counter ];
  (* n=5 takes the branch to "small"; the inserted bump must run. *)
  ignore (Jvm.Interp.invoke vm ~cls:"Subject" ~name:"f" ~desc:"(I)I" [ Jvm.Value.Int 5l ]);
  (match Jvm.Interp.invoke vm ~cls:"Ctr" ~name:"get" ~desc:"()I" [] with
  | Some (Jvm.Value.Int 1l) -> ()
  | Some v -> fail ("count after branch: " ^ Jvm.Value.to_string v)
  | None -> fail "no result");
  (* n=50 does not reach "small": count unchanged. *)
  ignore (Jvm.Interp.invoke vm ~cls:"Subject" ~name:"f" ~desc:"(I)I" [ Jvm.Value.Int 50l ]);
  match Jvm.Interp.invoke vm ~cls:"Ctr" ~name:"get" ~desc:"()I" [] with
  | Some (Jvm.Value.Int 1l) -> ()
  | _ -> fail "branch-not-taken ran inserted code"

let test_block_relative_targets () =
  (* An inserted block with an internal branch that skips to the end of
     the block (target = block length). *)
  let code = code_of subject "f" "(I)I" in
  let block =
    [ I.Iconst 1l; I.If_z (I.Ne, 4); I.Iconst 9l; I.Pop ]
    (* target 4 = one past block end - 0? block length is 4; jumping to
       4 lands on the original instruction *)
  in
  let code' = P.apply_insertions code [ P.before 0 block ] in
  let code' = P.refit_bounds subject.CF.pool ~params:1 ~is_static:true code' in
  let patched =
    CF.map_methods
      (fun m ->
        if m.CF.m_name = "f" then { m with CF.m_code = Some code' } else m)
      subject
  in
  check Alcotest.int "semantics preserved" 10 (expect_f [ patched ] 5)

let test_handlers_remapped () =
  let cls =
    B.class_ "H"
      [
        B.meth ~flags:static "f" "()I"
          ~handlers:[ ("try", "end", "catch", None) ]
          [
            B.Label "try";
            B.Const 1;
            B.Const 0;
            B.Div;
            B.Ireturn;
            B.Label "end";
            B.Label "catch";
            B.Pop;
            B.Const 42;
            B.Ireturn;
          ];
      ]
  in
  let code = code_of cls "f" "()I" in
  let insertions =
    List.init (Array.length code.CF.instrs) (fun at ->
        P.before at [ I.Nop ])
  in
  let code' = P.apply_insertions code insertions in
  let patched =
    CF.map_methods
      (fun m ->
        if m.CF.m_name = "f" then { m with CF.m_code = Some code' } else m)
      cls
  in
  match run_static [ patched ] "H" "f" "()I" [] with
  | Some (Jvm.Value.Int 42l) -> ()
  | _ -> fail "handler did not survive patching"

let test_instrument_method_entry_exit () =
  let cls = subject in
  let pool = Bytecode.Cp.Builder.of_pool cls.CF.pool in
  let probe name =
    [
      I.Ldc_str (Bytecode.Cp.Builder.string pool name);
      I.Invokestatic
        (Bytecode.Cp.Builder.methodref pool ~cls:"Probe" ~name:"hit"
           ~desc:"(Ljava/lang/String;)V");
    ]
  in
  let m = Option.get (CF.find_method cls "f" "(I)I") in
  let m' =
    P.instrument_method
      (Bytecode.Cp.Builder.to_pool pool)
      m ~entry:(probe "enter") ~before_return:(probe "exit")
  in
  let patched =
    {
      cls with
      CF.methods = [ m' ];
      pool = Bytecode.Cp.Builder.to_pool pool;
    }
  in
  let hits = ref [] in
  let vm = Jvm.Bootlib.fresh_vm () in
  let probe_cls =
    B.class_ "Probe" [ B.native_meth ~flags:(CF.Native :: static) "hit" "(Ljava/lang/String;)V" ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg probe_cls;
  Jvm.Classreg.register vm.Jvm.Vmstate.reg patched;
  Jvm.Vmstate.register_native vm ~cls:"Probe" ~name:"hit"
    ~desc:"(Ljava/lang/String;)V" (fun _ args ->
      (match args with
      | [ Jvm.Value.Str s ] -> hits := s :: !hits
      | _ -> ());
      None);
  (match
     Jvm.Interp.invoke vm ~cls:"Subject" ~name:"f" ~desc:"(I)I"
       [ Jvm.Value.Int 3l ]
   with
  | Some (Jvm.Value.Int 6l) -> ()
  | _ -> fail "wrong result");
  check (Alcotest.list Alcotest.string) "enter/exit seen" [ "enter"; "exit" ]
    (List.rev !hits)

(* Property: random straight-line insertions into a verified method
   leave it verifiable and semantics-preserving. *)
let prop_random_insertions =
  QCheck.Test.make ~name:"random insertions preserve behaviour" ~count:200
    QCheck.(pair (list (int_bound 11)) (int_bound 100))
    (fun (points, n) ->
      let code = code_of subject "f" "(I)I" in
      let len = Array.length code.CF.instrs in
      let insertions =
        List.map
          (fun p -> P.before (p mod (len + 1)) [ I.Iconst 3l; I.Pop ])
          points
      in
      let code' = P.apply_insertions code insertions in
      let code' = P.refit_bounds subject.CF.pool ~params:1 ~is_static:true code' in
      let patched =
        CF.map_methods
          (fun m ->
            if m.CF.m_name = "f" then { m with CF.m_code = Some code' } else m)
          subject
      in
      expect_f [ patched ] n = expect_f [ subject ] n)

(* --- The stack-bound walk against its reference. [Reference] is the
   recursive walk [Builder.estimate_max_stack] replaced, kept verbatim:
   the explicit-stack walk must give the same bound, or raise the same
   exception, on every body. The height cap makes the result depend on
   visit order, so agreement on looping code checks the order too. --- *)

module Reference = struct
  module Cp = Bytecode.Cp
  module Descriptor = Bytecode.Descriptor
  module Instr = Bytecode.Instr

  let stack_delta pool (i : Instr.t) =
    let invoke_delta idx ~receiver =
      let mref = Cp.get_methodref pool idx in
      let sg = Descriptor.method_sig_of_string mref.Cp.ref_desc in
      let pop = List.length sg.Descriptor.params + if receiver then 1 else 0 in
      let push = match sg.Descriptor.ret with None -> 0 | Some _ -> 1 in
      (push - pop, pop)
    in
    let field_width idx = ignore (Cp.get_fieldref pool idx); 1 in
    match i with
    | Instr.Nop -> (0, 0)
    | Instr.Iconst _ | Instr.Ldc_str _ | Instr.Aconst_null -> (1, 0)
    | Instr.Iload _ | Instr.Aload _ -> (1, 0)
    | Instr.Istore _ | Instr.Astore _ -> (-1, 1)
    | Instr.Iinc _ -> (0, 0)
    | Instr.Iadd | Instr.Isub | Instr.Imul | Instr.Idiv | Instr.Irem
    | Instr.Ishl | Instr.Ishr | Instr.Iand | Instr.Ior | Instr.Ixor ->
      (-1, 2)
    | Instr.Ineg -> (0, 1)
    | Instr.Dup -> (1, 1)
    | Instr.Dup_x1 -> (1, 2)
    | Instr.Pop -> (-1, 1)
    | Instr.Swap -> (0, 2)
    | Instr.Goto _ -> (0, 0)
    | Instr.If_icmp _ | Instr.If_acmp _ -> (-2, 2)
    | Instr.If_z _ | Instr.If_null _ -> (-1, 1)
    | Instr.Jsr _ -> (1, 0)
    | Instr.Ret _ -> (0, 0)
    | Instr.Tableswitch _ -> (-1, 1)
    | Instr.Ireturn | Instr.Areturn -> (-1, 1)
    | Instr.Return -> (0, 0)
    | Instr.Getstatic _ -> (1, 0)
    | Instr.Putstatic i -> (-field_width i, 1)
    | Instr.Getfield _ -> (0, 1)
    | Instr.Putfield i -> (-1 - field_width i, 2)
    | Instr.Invokevirtual i | Instr.Invokespecial i | Instr.Invokeinterface i ->
      invoke_delta i ~receiver:true
    | Instr.Invokestatic i -> invoke_delta i ~receiver:false
    | Instr.New _ -> (1, 0)
    | Instr.Newarray | Instr.Anewarray _ -> (0, 1)
    | Instr.Arraylength -> (0, 1)
    | Instr.Iaload | Instr.Aaload -> (-1, 2)
    | Instr.Iastore | Instr.Aastore -> (-3, 3)
    | Instr.Athrow -> (-1, 1)
    | Instr.Checkcast _ -> (0, 1)
    | Instr.Instanceof _ -> (0, 1)
    | Instr.Monitorenter | Instr.Monitorexit -> (-1, 1)

  let estimate_max_stack ?(handler_targets = []) pool (code : Instr.t array) =
    (* Depth-first over the CFG, tracking entry heights per instruction;
       handlers start with height 1 (the thrown exception). *)
    let n = Array.length code in
    if n = 0 then 0
    else begin
      let entry = Array.make n (-1) in
      let maxh = ref 0 in
      (* Ill-formed code whose stack grows around a loop would make this
         walk diverge; cap the height (the verifier rejects such code
         later on the height mismatch). *)
      let cap = (4 * n) + 64 in
      let rec walk idx h =
        if idx >= 0 && idx < n && entry.(idx) < h && h <= cap then begin
          entry.(idx) <- h;
          let d, need = stack_delta pool code.(idx) in
          ignore need;
          let h' = max 0 (h + d) in
          maxh := max !maxh (max h (h + max 0 d));
          List.iter (fun s -> walk s h') (Instr.successors idx code.(idx))
        end
      in
      walk 0 0;
      List.iter (fun t -> walk t 1) handler_targets;
      max 1 !maxh
    end
end

let walk_outcome estimate ~handler_targets pool code =
  match estimate ?handler_targets:(Some handler_targets) pool code with
  | h -> Ok h
  | exception e -> Error (Printexc.to_string e)

let same_walk ~handler_targets pool code =
  walk_outcome B.estimate_max_stack ~handler_targets pool code
  = walk_outcome Reference.estimate_max_stack ~handler_targets pool code

let test_walk_matches_reference_on_workloads () =
  let classes =
    List.concat_map
      (fun spec -> (Workloads.Apps.build spec).Workloads.Appgen.classes)
      Workloads.Apps.all_specs
    @ List.map Workloads.Applets.realize (Workloads.Applets.population ())
  in
  let audit =
    Monitor.Instrument.instrument_class
      ~runtime_class:Monitor.Profiler.auditor_class
  in
  let methods = ref 0 in
  List.iter
    (fun cf ->
      List.iter
        (fun (c : CF.t) ->
          List.iter
            (fun (m : CF.meth) ->
              match m.CF.m_code with
              | None -> ()
              | Some code ->
                incr methods;
                let handler_targets =
                  List.map (fun h -> h.CF.h_target) code.CF.handlers
                in
                if not (same_walk ~handler_targets c.CF.pool code.CF.instrs)
                then
                  fail
                    (Printf.sprintf "%s.%s%s: walk differs" c.CF.name
                       m.CF.m_name m.CF.m_desc))
            c.CF.methods)
        [ cf; audit cf ])
    classes;
  check Alcotest.bool "every workload method, before and after auditing" true
    (!methods > 2 * 501)

(* Random bodies over a pool where one index is named by static and
   virtual invokes alike, with a bad descriptor, a field, a non-member
   entry and indices outside the pool; targets may leave the body, and
   pushes around back edges drive the walk to its height cap. *)
let walk_pool, methods, field =
  let b = Bytecode.Cp.Builder.create () in
  let methods =
    List.map
      (fun desc -> Bytecode.Cp.Builder.methodref b ~cls:"W" ~name:"m" ~desc)
      [ "(II)I"; "()V"; "(Ljava/lang/String;I)Ljava/lang/Object;"; "(I" ]
  in
  let field = Bytecode.Cp.Builder.fieldref b ~cls:"W" ~name:"f" ~desc:"I" in
  (Bytecode.Cp.Builder.to_pool b, Array.of_list methods, field)

let random_body st =
  let n = 1 + Random.State.int st 16 in
  let target () = Random.State.int st (n + 2) - 1 in
  (* Mostly a member of the right kind; otherwise any index, 0 and one
     past the pool included. *)
  let any () = Random.State.int st (Array.length walk_pool + 1) in
  let meth () =
    if Random.State.int st 8 = 0 then any ()
    else methods.(Random.State.int st (Array.length methods))
  in
  let fld () = if Random.State.int st 8 = 0 then any () else field in
  let instr () =
    match Random.State.int st 24 with
    | 0 | 1 -> I.Iconst 0l
    | 2 -> I.Dup
    | 3 -> I.Aconst_null
    | 4 -> I.Iadd
    | 5 -> I.Pop
    | 6 -> I.Istore 1
    | 7 -> I.Iastore
    | 8 | 9 -> I.Invokestatic (meth ())
    | 10 | 11 -> I.Invokevirtual (meth ())
    | 12 -> I.Invokespecial (meth ())
    | 13 -> I.Putstatic (fld ())
    | 14 -> I.Putfield (fld ())
    | 15 | 16 -> I.Goto (target ())
    | 17 -> I.If_icmp (I.Lt, target ())
    | 18 -> I.If_z (I.Eq, target ())
    | 19 -> I.Jsr (target ())
    | 20 -> I.Ret 1
    | 21 ->
      let targets = Array.init (Random.State.int st 3) (fun _ -> target ()) in
      I.Tableswitch { low = 0l; targets; default = target () }
    | 22 -> I.Return
    | _ -> I.Athrow
  in
  let code = Array.init n (fun _ -> instr ()) in
  let handler_targets =
    List.init (Random.State.int st 3) (fun _ -> target ())
  in
  (code, handler_targets)

let test_walk_matches_reference_on_random_bodies () =
  let st = Random.State.make [| 20261017 |] in
  let capped = ref 0 and raised = ref 0 and shared = ref 0 in
  for _ = 1 to 100_000 do
    let code, handler_targets = random_body st in
    let walk estimate = walk_outcome estimate ~handler_targets walk_pool code in
    let got = walk B.estimate_max_stack in
    if got <> walk Reference.estimate_max_stack then
      fail
        (Printf.sprintf "walk differs on [%s] handlers [%s]"
           (String.concat "; " (Array.to_list (Array.map I.to_string code)))
           (String.concat "; " (List.map string_of_int handler_targets)));
    (match got with
    | Ok h when h > 4 * Array.length code -> incr capped
    | Ok _ -> ()
    | Error _ -> incr raised);
    if
      Array.exists
        (function
          | I.Invokestatic k ->
            Array.exists (( = ) (I.Invokevirtual k)) code
          | _ -> false)
        code
    then incr shared
  done;
  check Alcotest.bool "bodies that hit the height cap" true (!capped > 1_000);
  check Alcotest.bool "bodies that raise" true (!raised > 10_000);
  check Alcotest.bool "bodies with static and virtual invokes of one index" true
    (!shared > 1_000)

(* A fall-through-only block, an empty block and a redirected block at
   one point, and a lone empty block at another: the branch into the
   point runs only the redirected code, and both empty blocks still
   report where they start. *)
let test_layout_mixed_blocks_at_one_point () =
  let code =
    {
      CF.max_stack = 1;
      max_locals = 1;
      instrs = [| I.Iconst 1l; I.Goto 2; I.Nop; I.Return |];
      handlers = [];
    }
  in
  let code', layout =
    P.apply_insertions_layout code
      [
        P.before ~redirect:false 2 [ I.Nop; I.Nop ];
        P.before 2 [];
        P.before 2 [ I.Iconst 7l; I.Pop ];
        P.before 3 [];
      ]
  in
  check
    Alcotest.(list string)
    "patched code"
    [ "iconst 1"; "goto @4"; "nop"; "nop"; "iconst 7"; "pop"; "nop"; "return" ]
    (Array.to_list (Array.map I.to_string code'.CF.instrs));
  check Alcotest.(array int) "block starts" [| 2; 4; 4; 7 |] layout.P.l_starts;
  check Alcotest.(array int) "instructions" [| 0; 1; 6; 7; 8 |]
    layout.P.l_instr;
  check Alcotest.(array int) "branch targets" [| 0; 1; 4; 7; 8 |]
    layout.P.l_target

let () =
  Alcotest.run "rewrite"
    [
      ( "patch",
        [
          Alcotest.test_case "insert preserves semantics" `Quick
            test_insert_preserves_semantics;
          Alcotest.test_case "branch targets hit inserted code" `Quick
            test_branch_targets_hit_inserted_code;
          Alcotest.test_case "block-relative targets" `Quick
            test_block_relative_targets;
          Alcotest.test_case "handlers remapped" `Quick test_handlers_remapped;
          Alcotest.test_case "entry/exit instrumentation" `Quick
            test_instrument_method_entry_exit;
          Alcotest.test_case "layout with mixed blocks at one point" `Quick
            test_layout_mixed_blocks_at_one_point;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "stack walk = reference on workloads" `Quick
            test_walk_matches_reference_on_workloads;
          Alcotest.test_case "stack walk = reference on random bodies" `Quick
            test_walk_matches_reference_on_random_bodies;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_insertions ] );
    ]
