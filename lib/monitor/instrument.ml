(* The static component of the monitoring services: transforms
   applications to invoke the auditing/profiling runtime at the
   appropriate places — entry to and exit from methods and
   constructors, and (for the tracing service) at synchronization
   operations. *)

module CF = Bytecode.Classfile
module CP = Bytecode.Cp
module I = Bytecode.Instr

let method_label cls (m : CF.meth) = cls ^ "." ^ m.CF.m_name ^ m.CF.m_desc

type counters = {
  mutable probes_inserted : int;
  mutable methods_instrumented : int;
}

let fresh_counters () = { probes_inserted = 0; methods_instrumented = 0 }

let call pool ~runtime_class ~name label =
  [
    I.Ldc_str (CP.Builder.string pool label);
    I.Invokestatic
      (CP.Builder.methodref pool ~cls:runtime_class ~name
         ~desc:Profiler.desc_s);
  ]

let sync_sites (code : CF.code) =
  let sites = ref [] in
  Array.iteri
    (fun idx insn ->
      match insn with
      | I.Monitorenter | I.Monitorexit -> sites := idx :: !sites
      | _ -> ())
    code.CF.instrs;
  List.rev !sites

(* Refit deferred until the pool stops growing: the builder is
   append-only and interning, so bounds estimated against the final
   snapshot are identical to per-method snapshots — without paying an
   [Array.sub] of the whole pool for every method. *)
let refit_with pool (m : CF.meth) code =
  let sg = Bytecode.Descriptor.method_sig_of_string m.CF.m_desc in
  let code =
    Rewrite.Patch.refit_bounds pool
      ~params:(Bytecode.Descriptor.param_slots sg)
      ~is_static:(CF.has_flag m.CF.m_flags CF.Static)
      code
  in
  { m with CF.m_code = Some code }

let instrument_class ?(counters = fresh_counters ()) ~runtime_class
    ?(sync_trace = false) (cf : CF.t) : CF.t =
  let pool = CP.Builder.of_pool cf.CF.pool in
  if not sync_trace then begin
    let patched =
      List.map
        (fun m ->
          match m.CF.m_code with
          | None -> Either.Left m
          | Some code ->
            let label = method_label cf.CF.name m in
            let entry = call pool ~runtime_class ~name:"enter" label in
            let before_return = call pool ~runtime_class ~name:"exit" label in
            counters.methods_instrumented <- counters.methods_instrumented + 1;
            let returns = Rewrite.Patch.return_sites code in
            counters.probes_inserted <-
              counters.probes_inserted + 1 + List.length returns;
            let insertions =
              Rewrite.Patch.before 0 entry
              :: List.map
                   (fun at -> Rewrite.Patch.before at before_return)
                   returns
            in
            Either.Right (m, Rewrite.Patch.apply_insertions code insertions))
        cf.CF.methods
    in
    let final_pool = CP.Builder.to_pool pool in
    let methods =
      List.map
        (function
          | Either.Left m -> m
          | Either.Right (m, code) -> refit_with final_pool m code)
        patched
    in
    { cf with CF.methods; pool = final_pool }
  end
  else
  let methods =
    List.map
      (fun m ->
        match m.CF.m_code with
        | None -> m
        | Some code ->
          let label = method_label cf.CF.name m in
          let entry = call pool ~runtime_class ~name:"enter" label in
          let before_return = call pool ~runtime_class ~name:"exit" label in
          counters.methods_instrumented <- counters.methods_instrumented + 1;
          counters.probes_inserted <-
            counters.probes_inserted + 1
            + List.length (Rewrite.Patch.return_sites code);
          let m =
            Rewrite.Patch.instrument_method (CP.Builder.to_pool pool) m ~entry
              ~before_return
          in
          begin
            match m.CF.m_code with
            | None -> m
            | Some code ->
              let sites = sync_sites code in
              if sites = [] then m
              else begin
                counters.probes_inserted <-
                  counters.probes_inserted + List.length sites;
                let block =
                  call pool ~runtime_class:Profiler.tracer_class ~name:"sync"
                    label
                in
                let code =
                  Rewrite.Patch.apply_insertions code
                    (List.map (fun at -> Rewrite.Patch.before at block) sites)
                in
                let sg = Bytecode.Descriptor.method_sig_of_string m.CF.m_desc in
                let code =
                  Rewrite.Patch.refit_bounds (CP.Builder.to_pool pool)
                    ~params:(Bytecode.Descriptor.param_slots sg)
                    ~is_static:(CF.has_flag m.CF.m_flags CF.Static)
                    code
                in
                { m with CF.m_code = Some code }
              end
          end)
      cf.CF.methods
  in
  { cf with CF.methods; pool = CP.Builder.to_pool pool }

(* Basic-block leaders: the entry, every branch target, and every
   instruction following a branch or terminator. *)
let block_leaders (code : CF.code) =
  let n = Array.length code.CF.instrs in
  let leader = Array.make n false in
  if n > 0 then leader.(0) <- true;
  Array.iteri
    (fun idx insn ->
      List.iter
        (fun t -> if t >= 0 && t < n then leader.(t) <- true)
        (I.targets insn);
      if
        (I.targets insn <> [] || I.is_terminator insn) && idx + 1 < n
      then leader.(idx + 1) <- true)
    code.CF.instrs;
  List.iter
    (fun h -> if h.CF.h_target < n then leader.(h.CF.h_target) <- true)
    code.CF.handlers;
  let out = ref [] in
  Array.iteri (fun i is_l -> if is_l then out := i :: !out) leader;
  List.rev !out

(* The instruction-level tracing service of §3.3: counts basic-block
   executions, giving "statistics on client code usage" at a
   granularity method probes cannot. *)
let trace_blocks ?(counters = fresh_counters ()) (cf : CF.t) : CF.t =
  let pool = CP.Builder.of_pool cf.CF.pool in
  let patched =
    List.map
      (fun m ->
        match m.CF.m_code with
        | None -> Either.Left m
        | Some code ->
          let label_of idx =
            Printf.sprintf "%s@%d" (method_label cf.CF.name m) idx
          in
          let leaders = block_leaders code in
          counters.probes_inserted <-
            counters.probes_inserted + List.length leaders;
          counters.methods_instrumented <- counters.methods_instrumented + 1;
          let insertions =
            List.map
              (fun at ->
                Rewrite.Patch.before at
                  [
                    I.Ldc_str (CP.Builder.string pool (label_of at));
                    I.Invokestatic
                      (CP.Builder.methodref pool ~cls:Profiler.tracer_class
                         ~name:"block" ~desc:Profiler.desc_s);
                  ])
              leaders
          in
          Either.Right (m, Rewrite.Patch.apply_insertions code insertions))
      cf.CF.methods
  in
  let final_pool = CP.Builder.to_pool pool in
  let methods =
    List.map
      (function
        | Either.Left m -> m
        | Either.Right (m, code) -> refit_with final_pool m code)
      patched
  in
  { cf with CF.methods; pool = final_pool }

let audit_filter ?counters () =
  Rewrite.Filter.make ~name:"auditor"
    (instrument_class ?counters ~runtime_class:Profiler.auditor_class)
