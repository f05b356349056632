(* dvmctl: command-line front end to the DVM.

     dvmctl gen <app> <dir>       generate a Figure-5 workload app into a
                                  directory of .class files
     dvmctl disasm <file>         disassemble a class file
     dvmctl verify <file>...      statically verify class files (the first
                                  files serve as the oracle environment)
     dvmctl rewrite [opts] <file> run a class through the service pipeline
     dvmctl run <entry> <file>... execute an application on a DVM client
     dvmctl analyze [--dot] <file> dump CFG, dominators and dataflow facts
     dvmctl lint                  analyzer self-check over bundled workloads
     dvmctl flight [opts]         traced chaos run: export one shed and one
                                  brownout request's cross-node trace and
                                  the per-node flight-recorder rings
     dvmctl slo [opts]            chaos run summarized by the SLO monitor
                                  (goodput, violation rate, budget burn)
     dvmctl farm [opts]           sweep the sharded proxy farm over shard
                                  counts (Figure-10-style scaling curve)
     dvmctl chaos [opts]          seeded chaos run against the farm's
                                  overload controls: crash windows, LAN
                                  loss, a flash-crowd spike; checks the
                                  integrity/deadline/recovery invariants
     dvmctl control [opts]        replicate a policy bump across the farm
                                  under control-link partitions and a
                                  shard restart; checks that no client is
                                  served under the revoked policy version
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let load_class path =
  match Bytecode.Decode.class_of_bytes (read_file path) with
  | cf -> cf
  | exception Bytecode.Decode.Format_error msg ->
    Printf.eprintf "%s: malformed class file: %s\n" path msg;
    exit 2

(* --- gen --- *)

let gen app_name dir =
  match
    List.find_opt
      (fun s -> String.equal s.Workloads.Appgen.name app_name)
      Workloads.Apps.all_specs
  with
  | None ->
    Printf.eprintf "unknown app %S (expected: %s)\n" app_name
      (String.concat ", "
         (List.map (fun s -> s.Workloads.Appgen.name) Workloads.Apps.all_specs));
    exit 2
  | Some spec ->
    let app = Workloads.Apps.build spec in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun cf ->
        let fname =
          String.map
            (fun c -> if c = '/' then '.' else c)
            cf.Bytecode.Classfile.name
          ^ ".class"
        in
        write_file (Filename.concat dir fname)
          (Bytecode.Encode.class_to_bytes cf))
      app.Workloads.Appgen.classes;
    Printf.printf "wrote %d classes (%d bytes), entry point %s\n"
      (List.length app.Workloads.Appgen.classes)
      app.Workloads.Appgen.total_bytes app.Workloads.Appgen.entry;
    0

(* --- disasm --- *)

let disasm path =
  print_string (Bytecode.Disasm.class_to_string (load_class path));
  0

(* --- verify --- *)

let verify paths =
  let classes = List.map load_class paths in
  let oracle =
    Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes () @ classes)
  in
  let failed = ref 0 in
  List.iter
    (fun cf ->
      match Verifier.Static_verifier.verify ~oracle cf with
      | Verifier.Static_verifier.Verified (_, stats) ->
        Printf.printf "%-40s OK (%d static checks, %d deferred)\n"
          cf.Bytecode.Classfile.name
          stats.Verifier.Static_verifier.sv_static_checks
          stats.Verifier.Static_verifier.sv_deferred
      | Verifier.Static_verifier.Rejected (errors, _) ->
        incr failed;
        Printf.printf "%-40s REJECTED\n" cf.Bytecode.Classfile.name;
        List.iter
          (fun e -> Printf.printf "    %s\n" (Verifier.Verror.to_string e))
          errors)
    classes;
  if !failed > 0 then 1 else 0

(* --- rewrite --- *)

let rewrite with_security with_audit policy_path sign_key path out_path =
  let policy =
    match policy_path with
    | Some p -> Security.Policy_xml.parse (read_file p)
    | None -> Dvm.Experiment.standard_policy
  in
  let oracle = Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes ()) in
  let filters =
    [ Verifier.Static_verifier.filter ~oracle () ]
    @ (if with_security then [ Security.Rewriter.filter policy ] else [])
    @ if with_audit then [ Monitor.Instrument.audit_filter () ] else []
  in
  let signer =
    Option.map (fun secret -> Dsig.Sign.make_key ~key_id:"org" ~secret) sign_key
  in
  let outcome = Proxy.Pipeline.run ?signer filters (read_file path) in
  (match outcome.Proxy.Pipeline.rejected with
  | Some (filter, reason) ->
    Printf.eprintf "rejected by %s: %s\n(an error-propagation class was emitted)\n"
      filter reason
  | None -> ());
  let out = Option.value ~default:(path ^ ".dvm") out_path in
  write_file out outcome.Proxy.Pipeline.out_bytes;
  Printf.printf "%s -> %s (%d -> %d bytes, proxy cost %.1f ms)\n" path out
    (String.length (read_file path))
    (String.length outcome.Proxy.Pipeline.out_bytes)
    (Int64.to_float (Proxy.Pipeline.total_cost outcome) /. 1000.0);
  0

(* --- run --- *)

let run entry paths =
  let classes = List.map load_class paths in
  let vm = Jvm.Bootlib.fresh_vm () in
  ignore (Verifier.Rt_verifier.install vm);
  ignore (Monitor.Profiler.install vm ());
  let server = Security.Server.create Dvm.Experiment.standard_policy in
  ignore (Security.Enforcement.install vm ~server ~sid:"apps");
  List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg) classes;
  match Jvm.Interp.run_main vm entry with
  | Ok () ->
    print_string (Jvm.Vmstate.output vm);
    Printf.eprintf "(%d bytecodes executed)\n" vm.Jvm.Vmstate.instr_count;
    0
  | Error e ->
    print_string (Jvm.Vmstate.output vm);
    Printf.eprintf "uncaught exception: %s\n" (Jvm.Interp.describe_throwable e);
    1

(* --- split: profile an app and repartition it (section 5). --- *)

let split entry paths out_dir =
  let classes = List.map load_class paths in
  (* profile a first execution *)
  let instrumented =
    List.map
      (Monitor.Instrument.instrument_class
         ~runtime_class:Monitor.Profiler.profiler_class)
      classes
  in
  let vm = Jvm.Bootlib.fresh_vm () in
  let prof = Monitor.Profiler.install vm () in
  List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg) instrumented;
  (match Jvm.Interp.run_main vm entry with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "profile run failed: %s
" (Jvm.Interp.describe_throwable e);
    exit 1);
  let profile = Opt.First_use.of_profiler prof in
  let split_classes, results = Opt.Repartition.split_app profile classes in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  List.iter
    (fun cf ->
      let fname =
        String.map (fun c -> if c = '/' then '.' else c) cf.Bytecode.Classfile.name
        ^ ".class"
      in
      write_file (Filename.concat out_dir fname)
        (Bytecode.Encode.class_to_bytes cf))
    split_classes;
  let orig = List.fold_left (fun a c -> a + Bytecode.Encode.class_size c) 0 classes in
  let hot = List.fold_left (fun a r -> a + r.Opt.Repartition.hot_bytes) 0 results in
  let moved = List.fold_left (fun a r -> a + r.Opt.Repartition.moved) 0 results in
  Printf.printf
    "profiled %d methods; moved %d cold methods into satellites;
     startup transfer %d -> %d bytes (%.1f%% saved); wrote %d classes to %s
"
    (List.length (Monitor.Profiler.first_use_order prof))
    moved orig hot
    (100.0 *. Float.of_int (orig - hot) /. Float.of_int orig)
    (List.length split_classes) out_dir;
  0

(* --- analyze: dump the proxy-side dataflow view of a class. --- *)

let analyze path dot =
  let cf = load_class path in
  let pool = cf.Bytecode.Classfile.pool in
  List.iter
    (fun (m : Bytecode.Classfile.meth) ->
      match Analysis.Pass.for_method pool ~cls:cf.Bytecode.Classfile.name m with
      | None -> ()
      | Some f ->
        let cfg = f.Analysis.Pass.cfg in
        let label =
          cf.Bytecode.Classfile.name ^ "." ^ m.Bytecode.Classfile.m_name
          ^ m.Bytecode.Classfile.m_desc
        in
        if dot then print_string (Analysis.Cfg.to_dot ~name:label cfg)
        else begin
          Printf.printf "%s\n" label;
          Format.printf "%a" Analysis.Cfg.pp cfg;
          let dom = Lazy.force f.Analysis.Pass.dom in
          Array.iter
            (fun (b : Analysis.Cfg.block) ->
              match Analysis.Dom.idom dom b.Analysis.Cfg.id with
              | Some i -> Printf.printf "  idom(b%d) = b%d\n" b.Analysis.Cfg.id i
              | None -> ())
            cfg.Analysis.Cfg.blocks;
          List.iter
            (fun (l : Analysis.Dom.loop) ->
              Printf.printf "  loop: header b%d, latches [%s], %d blocks\n"
                l.Analysis.Dom.header
                (String.concat "; "
                   (List.map string_of_int l.Analysis.Dom.latches))
                (Hashtbl.length l.Analysis.Dom.body))
            (Analysis.Dom.loops dom);
          let nn = Lazy.force f.Analysis.Pass.nullness in
          let rg = Lazy.force f.Analysis.Pass.ranges in
          Array.iter
            (fun (b : Analysis.Cfg.block) ->
              let at = b.Analysis.Cfg.first in
              (match nn.Analysis.Nullness.before.(at) with
              | Some st ->
                Format.printf "  b%d null: %a@." b.Analysis.Cfg.id
                  Analysis.Nullness.pp_state st
              | None -> ());
              match rg.Analysis.Intrange.before.(at) with
              | Some st ->
                Format.printf "  b%d rng:  %a@." b.Analysis.Cfg.id
                  Analysis.Intrange.pp_state st
              | None -> ())
            cfg.Analysis.Cfg.blocks;
          Printf.printf "  solver iterations: nullness %d, ranges %d\n\n"
            nn.Analysis.Nullness.iterations rg.Analysis.Intrange.iterations
        end)
    cf.Bytecode.Classfile.methods;
  0

(* --- lint: run the analyzer over every bundled workload class.
   Fails on solver non-convergence and on any CFG that differs between
   the in-memory class and its encode/decode round trip. --- *)

let lint json =
  let failures = ref 0 in
  let failed = ref [] in
  let classes = ref 0 and methods = ref 0 and blocks = ref 0 in
  let boundaries (cfg : Analysis.Cfg.t) =
    Array.map
      (fun (b : Analysis.Cfg.block) ->
        (b.Analysis.Cfg.first, b.Analysis.Cfg.last))
      cfg.Analysis.Cfg.blocks
  in
  let fail_with cls (m : Bytecode.Classfile.meth) msg =
    incr failures;
    failed :=
      Printf.sprintf "%s.%s%s: %s" cls m.Bytecode.Classfile.m_name
        m.Bytecode.Classfile.m_desc msg
      :: !failed;
    Printf.eprintf "lint: %s.%s%s: %s\n" cls m.Bytecode.Classfile.m_name
      m.Bytecode.Classfile.m_desc msg
  in
  List.iter
    (fun spec ->
      let app = Workloads.Apps.build spec in
      List.iter
        (fun (cf : Bytecode.Classfile.t) ->
          incr classes;
          let decoded =
            Bytecode.Decode.class_of_bytes (Bytecode.Encode.class_to_bytes cf)
          in
          List.iter
            (fun (m : Bytecode.Classfile.meth) ->
              match m.Bytecode.Classfile.m_code with
              | None -> ()
              | Some code -> (
                incr methods;
                match Analysis.Cfg.of_code code with
                | exception Analysis.Cfg.Malformed msg ->
                  fail_with cf.Bytecode.Classfile.name m ("malformed: " ^ msg)
                | cfg -> (
                  blocks := !blocks + Analysis.Cfg.block_count cfg;
                  (match
                     Bytecode.Classfile.find_method decoded
                       m.Bytecode.Classfile.m_name m.Bytecode.Classfile.m_desc
                   with
                  | Some { Bytecode.Classfile.m_code = Some code'; _ } -> (
                    match Analysis.Cfg.of_code code' with
                    | exception Analysis.Cfg.Malformed msg ->
                      fail_with cf.Bytecode.Classfile.name m
                        ("decoded copy malformed: " ^ msg)
                    | cfg' ->
                      if boundaries cfg <> boundaries cfg' then
                        fail_with cf.Bytecode.Classfile.name m
                          "CFG decode mismatch")
                  | _ ->
                    fail_with cf.Bytecode.Classfile.name m
                      "method lost in encode/decode round trip");
                  let sg =
                    Bytecode.Descriptor.method_sig_of_string
                      m.Bytecode.Classfile.m_desc
                  in
                  let param_slots = Bytecode.Descriptor.param_slots sg in
                  let is_static =
                    Bytecode.Classfile.has_flag m.Bytecode.Classfile.m_flags
                      Bytecode.Classfile.Static
                  in
                  try
                    ignore
                      (Analysis.Nullness.analyze cf.Bytecode.Classfile.pool
                         ~max_locals:code.Bytecode.Classfile.max_locals
                         ~param_slots ~is_static cfg);
                    ignore
                      (Analysis.Intrange.analyze cf.Bytecode.Classfile.pool
                         ~max_locals:code.Bytecode.Classfile.max_locals
                         ~param_slots ~is_static cfg)
                  with Analysis.Solver.Diverged msg ->
                    fail_with cf.Bytecode.Classfile.name m
                      ("solver diverged: " ^ msg))))
            cf.Bytecode.Classfile.methods)
        app.Workloads.Appgen.classes)
    Workloads.Apps.all_specs;
  if json then begin
    Printf.printf
      {|{"classes":%d,"methods":%d,"blocks":%d,"failures":%d,"failed":[%s]}|}
      !classes !methods !blocks !failures
      (String.concat ","
         (List.rev_map
            (fun f -> Printf.sprintf {|"%s"|} (Telemetry.Flight.esc f))
            !failed));
    print_newline ()
  end
  else
    Printf.printf
      "lint: %d classes, %d methods, %d blocks analyzed, %d failure(s)\n"
      !classes !methods !blocks !failures;
  if !failures > 0 then 1 else 0

(* --- certify: rewrite every bundled workload under the covering
   policy with certificate emission on, round-trip the bytes, and make
   the translation validator re-prove every elision and hoist. With
   --mutate, also run the mutation harness and enforce a kill-rate
   bar. --- *)

let certify json mutate seed count min_kill small =
  let rep = Dvm.Certification.certify_workloads ~small () in
  let mrep =
    if mutate then
      Some
        (Dvm.Certification.mutation_run ~small:true ~seed:(Int64.of_int seed)
           ~count ())
    else None
  in
  if json then begin
    Printf.printf {|{"apps":%d,"certify":%s,"failed":[%s]%s}|}
      rep.Dvm.Certification.rp_apps
      (Dvm.Certification.report_json rep)
      (String.concat ","
         (List.map
            (fun (cls, why) ->
              Printf.sprintf {|"%s"|}
                (Telemetry.Flight.esc (cls ^ ": " ^ why)))
            rep.Dvm.Certification.rp_failures))
      (match mrep with
      | None -> ""
      | Some m -> {|,"mutation":|} ^ Dvm.Certification.mutation_json m);
    print_newline ()
  end
  else begin
    print_string ("certify: " ^ Dvm.Certification.report_text rep);
    Option.iter
      (fun m -> print_string (Dvm.Certification.mutation_text ~bar:min_kill m))
      mrep
  end;
  let kill_ok =
    match mrep with
    | None -> true
    | Some m -> Dvm.Certification.kill_rate m >= min_kill
  in
  if rep.Dvm.Certification.rp_failures <> [] || not kill_ok then 1 else 0

(* --- trace / metrics: run an instrumented workload and export
   telemetry (spans in Chrome trace_event form for Perfetto, or a
   plain-text metrics snapshot). --- *)

let find_spec app_name =
  match
    List.find_opt
      (fun s -> String.equal s.Workloads.Appgen.name app_name)
      Workloads.Apps.all_specs
  with
  | Some spec -> spec
  | None ->
    Printf.eprintf "unknown app %S (expected: %s)\n" app_name
      (String.concat ", "
         (List.map (fun s -> s.Workloads.Appgen.name) Workloads.Apps.all_specs));
    exit 2

(* The telemetry workload: fetch every class of the app through a
   proxy over a simulated WAN (simnet events, pipeline filters, cache
   misses), then run the app on a DVM client against the warmed proxy
   (cache hits, client fetches, deferred link checks). Touches every
   instrumented subsystem in one pass. *)
let run_traced_workload app_name =
  let spec = find_spec app_name in
  let app = Workloads.Apps.build_small spec in
  let oracle =
    Verifier.Oracle.of_classes
      (Jvm.Bootlib.boot_classes () @ app.Workloads.Appgen.classes)
  in
  let engine = Simnet.Engine.create () in
  (* Console and audit trail share the simulation clock, so audit
     events and telemetry spans agree on timestamps. *)
  let console =
    Monitor.Console.create ~clock:(fun () -> Simnet.Engine.now engine) ()
  in
  let services = Dvm.Experiment.standard_services ~oracle () in
  let proxy =
    Proxy.create engine
      ~audit:(Monitor.Console.audit console)
      ~origin:(Workloads.Appgen.origin app)
      ~origin_latency:(fun _ -> Simnet.Engine.ms 40)
      ~filters:services.Dvm.Experiment.filters ()
  in
  List.iter
    (fun (cls, _) -> Proxy.request proxy ~cls (fun _ -> ()))
    (Workloads.Appgen.class_bytes app);
  Simnet.Engine.run engine;
  let cclient =
    Monitor.Console.handshake console ~user:"operator"
      ~hardware:"x86-200MHz-64MB" ~native_format:"x86" ~vm_version:"dvm-1.0"
  in
  let server = Security.Server.create Dvm.Experiment.standard_policy in
  let client =
    Dvm.Client.create_dvm ~console ~session:cclient.Monitor.Console.session
      ~security_server:server ~sid:"apps" ~provider:(Proxy.provider proxy) ()
  in
  Monitor.Console.record_app_start console cclient
    ~app:app.Workloads.Appgen.entry;
  (match Dvm.Client.run_main client app.Workloads.Appgen.entry with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "workload failed: %s\n" (Jvm.Interp.describe_throwable e))

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable f

let trace app_name out_path =
  with_telemetry (fun () -> run_traced_workload app_name);
  (try write_file out_path (Telemetry.chrome_trace ())
   with Sys_error msg ->
     Printf.eprintf "cannot write trace: %s\n" msg;
     exit 2);
  let cats =
    List.sort_uniq String.compare
      (List.map (fun sp -> sp.Telemetry.sp_cat) (Telemetry.spans ()))
  in
  Printf.printf
    "wrote %s: %d spans across subsystems [%s], %d counters\n\
     (open in https://ui.perfetto.dev or chrome://tracing)\n"
    out_path (Telemetry.span_count ())
    (String.concat ", " cats)
    (List.length (Telemetry.counters ()));
  0

let metrics app_name json =
  with_telemetry (fun () -> run_traced_workload app_name);
  if json then print_endline (Telemetry.metrics_json ())
  else print_string (Telemetry.metrics_snapshot ());
  0

(* --- flight / slo: distributed tracing and the SLO monitor over a
   seeded chaos run. --- *)

let flight seed duration out =
  let cfg =
    {
      Dvm.Chaos.default_config with
      Dvm.Chaos.ch_seed = seed;
      ch_duration_s = duration;
      ch_trace = true;
    }
  in
  let t = (Dvm.Chaos.run cfg).Dvm.Chaos.co_clients in
  Printf.printf
    "chaos run (seed %d, %ds): %d fetches, %d served, %d shed, %d stale\n\
     collected %d spans and %d events across %d traces (%d dropped)\n\n"
    seed duration t.Dvm.Client.Session.tl_fetches t.tl_served
    t.tl_overloaded_seen t.tl_stale_served
    (Telemetry.Trace.span_count ())
    (Telemetry.Trace.event_count ())
    (List.length (Telemetry.Trace.trace_ids ()))
    (Telemetry.Trace.dropped ());
  let export label tr =
    Printf.printf "--- %s request (trace %016Lx) ---\n%s\n" label tr
      (Telemetry.Trace.render tr);
    let chrome = Printf.sprintf "%s-%s.trace.json" out label in
    let json = Printf.sprintf "%s-%s.json" out label in
    write_file chrome (Telemetry.Trace.export_chrome tr);
    write_file json (Telemetry.Trace.export_json tr);
    Printf.printf "wrote %s (Perfetto/chrome://tracing) and %s\n\n" chrome json
  in
  let missing = ref false in
  (match
     match Telemetry.Trace.find_trace_with ~kind:"admission.shed_deadline" with
     | Some tr -> Some tr
     | None -> Telemetry.Trace.find_trace_with ~kind:"admission.shed_queue"
   with
  | Some tr -> export "shed" tr
  | None ->
    missing := true;
    print_endline "no shed request in this run (try another seed)");
  (match Telemetry.Trace.find_trace_with ~kind:"client.serve_stale" with
  | Some tr -> export "stale" tr
  | None ->
    missing := true;
    print_endline "no serve-stale brownout in this run (try another seed)");
  let fpath = out ^ "-flight.json" in
  write_file fpath (Telemetry.Flight.dump_json ());
  Printf.printf "wrote %s: flight-recorder rings for nodes [%s]\n" fpath
    (String.concat ", " (Telemetry.Flight.nodes ()));
  if !missing then 1 else 0

let slo seed duration json =
  let cfg =
    {
      Dvm.Chaos.default_config with
      Dvm.Chaos.ch_seed = seed;
      ch_duration_s = duration;
    }
  in
  let o = Dvm.Chaos.run cfg in
  if json then print_endline (Telemetry.Slo.report_json o.Dvm.Chaos.co_slo)
  else begin
    let t = o.Dvm.Chaos.co_clients in
    Printf.printf
      "chaos run (seed %d, %ds): %d fetches, %d fresh, %d stale, %d failed, \
       %d shed\n\n"
      seed duration t.Dvm.Client.Session.tl_fetches t.tl_served
      t.tl_stale_served t.tl_failed t.tl_overloaded_seen;
    print_string (Telemetry.Slo.report_text o.Dvm.Chaos.co_slo)
  end;
  0

(* An injected-fault trace under its header. *)
let print_fault_trace header lines =
  print_endline header;
  match lines with
  | [] -> print_endline "  (no faults injected)"
  | lines -> List.iter (Printf.printf "  %s\n") lines

let faults seed crash losses replicas trace =
  let points =
    Dvm.Availability.sweep ~seed ~crash ~loss_pcts:losses
      ~replica_counts:replicas ()
  in
  Dvm.Availability.print_table points;
  if trace then begin
    print_newline ();
    List.iter
      (fun p ->
        print_fault_trace
          (Printf.sprintf "fault trace (loss %.1f%%, %d replica(s)):"
             p.Dvm.Availability.av_loss_pct p.Dvm.Availability.av_replicas)
          p.Dvm.Availability.av_trace)
      points
  end;
  0

(* --- farm: the sharded-proxy scaling experiment. --- *)

let farm clients shard_counts duration applets cache_mb l2_mb seed =
  let cache_capacity = cache_mb * 1024 * 1024 in
  let l2_capacity = l2_mb * 1024 * 1024 in
  Printf.printf
    "proxy farm: %d clients, %ds, %d applets, L1 %d MB/shard, shared L2 %d MB\n%s\n"
    clients duration applets cache_mb l2_mb
    (if cache_capacity = 0 && l2_capacity = 0 then
       "(caching off: every request unique, the Figure-10 worst case)\n"
     else "(caches on: clients share the popular applet set)\n");
  Printf.printf "%7s %16s %12s %10s %10s %10s %8s %9s\n" "Shards"
    "Throughput(B/s)" "Latency(ms)" "Completed" "Pipeline" "Coalesced"
    "L2 hits" "CPU util";
  let points =
    List.map
      (fun shards ->
        Dvm.Scaling.run_farm ~duration_s:duration ~seed ~applet_count:applets
          ~cache_capacity ~l2_capacity ~shards ~clients ())
      shard_counts
  in
  List.iter
    (fun p ->
      Printf.printf "%7d %16.0f %12.0f %10d %10d %10d %8d %9.2f\n"
        p.Dvm.Scaling.f_shards p.Dvm.Scaling.f_throughput_bytes_per_s
        (p.Dvm.Scaling.f_mean_latency_us /. 1000.0)
        p.Dvm.Scaling.f_requests_completed p.Dvm.Scaling.f_pipeline_runs
        p.Dvm.Scaling.f_coalesced p.Dvm.Scaling.f_l2_hits
        p.Dvm.Scaling.f_utilization)
    points;
  (* The served bytes must not depend on who did the work: check the
     per-applet digests agree wherever two shard counts served the
     same applet. *)
  (match points with
  | [] | [ _ ] -> ()
  | base :: rest ->
    let mismatches = ref 0 and compared = ref 0 in
    List.iter
      (fun p ->
        List.iter
          (fun (k, d) ->
            match List.assoc_opt k base.Dvm.Scaling.f_served with
            | Some d0 ->
              incr compared;
              if not (String.equal d d0) then incr mismatches
            | None -> ())
          p.Dvm.Scaling.f_served)
      rest;
    Printf.printf
      "\nserved-bytes invariance: %d applet digests compared across shard \
       counts, %d mismatches\n"
      !compared !mismatches);
  0

(* --- chaos: the overload-control chaos harness. --- *)

let chaos seed shards clients duration spike spike_start spike_len crashes
    loss budget_ms no_control compare trace =
  let cfg =
    {
      Dvm.Chaos.default_config with
      Dvm.Chaos.ch_seed = seed;
      ch_shards = shards;
      ch_clients = clients;
      ch_duration_s = duration;
      ch_spike_factor = spike;
      ch_spike_start_s = spike_start;
      ch_spike_len_s = spike_len;
      ch_crashes = crashes;
      ch_loss_pct = loss;
      ch_budget_us = Int64.of_int (budget_ms * 1000);
      ch_control = not no_control;
      (* Tracing on: every fetch leaves a cross-node trace and the
         per-node flight recorders fill, so an invariant violation can
         dump the moments before it. *)
      ch_trace = true;
    }
  in
  print_endline ("chaos: " ^ Dvm.Chaos.config_banner cfg);
  if compare then begin
    let cmp = Dvm.Chaos.spike_comparison cfg in
    Dvm.Chaos.print_outcome ~label:"control" cmp.Dvm.Chaos.cmp_control;
    Dvm.Chaos.print_outcome ~label:"baseline" cmp.Dvm.Chaos.cmp_baseline;
    Printf.printf "\ngoodput with control = %.2fx baseline\n"
      cmp.Dvm.Chaos.cmp_goodput_ratio
  end;
  let v = Dvm.Chaos.verify cfg in
  if compare then print_newline ();
  Dvm.Chaos.print_outcome ~label:"reference" v.Dvm.Chaos.v_reference;
  Dvm.Chaos.print_outcome ~label:"chaotic" v.Dvm.Chaos.v_chaotic;
  print_string ("\n" ^ Dvm.Chaos.verdict_text v);
  if trace then
    print_fault_trace
      (Printf.sprintf "\ninjected-fault trace (replayable from seed %d):" seed)
      v.Dvm.Chaos.v_chaotic.Dvm.Chaos.co_fault_trace;
  if Dvm.Chaos.ok v then 0
  else begin
    (* Invariant violation: dump the per-node flight recorders (the
       last moments of the chaotic run) for the post-mortem. *)
    let path = "chaos-flight.json" in
    write_file path (Telemetry.Flight.dump_json ());
    Printf.eprintf "invariant violated; flight-recorder dump written to %s\n"
      path;
    1
  end

let control seed shards clients duration applets partitions partition_len
    bump_at no_restart lease_ms churn snapshot_every no_leader_crash
    no_leader_partition trace json =
  let cfg =
    {
      Dvm.Chaos.default_control_config with
      Dvm.Chaos.cc_seed = seed;
      cc_shards = shards;
      cc_clients = clients;
      cc_duration_s = duration;
      cc_applets = applets;
      cc_partitions = partitions;
      cc_partition_len_s = partition_len;
      cc_bump_at_s = bump_at;
      cc_restart_shard = not no_restart;
      cc_lease_us = Int64.of_int (lease_ms * 1000);
      cc_churn_s = churn;
      cc_snapshot_every = snapshot_every;
      cc_leader_crash = not no_leader_crash;
      cc_leader_partition = not no_leader_partition;
    }
  in
  if not json then
    print_endline ("control: " ^ Dvm.Chaos.control_config_banner cfg);
  let w = Dvm.Chaos.verify_control cfg in
  let c = w.Dvm.Chaos.w_chaotic in
  let ok = Dvm.Chaos.control_ok w in
  if json then begin
    Printf.printf
      {|{"seed":%d,"shards":%d,"member_versions":[%s],"chaotic":%s,"invariants":%s,"ok":%b}|}
      c.Dvm.Chaos.cn_seed cfg.Dvm.Chaos.cc_shards
      (String.concat ","
         (List.map string_of_int c.Dvm.Chaos.cn_member_versions))
      (Dvm.Chaos.control_outcome_json c)
      (Dvm.Chaos.control_invariants_json w)
      ok;
    print_newline ()
  end
  else begin
    Dvm.Chaos.print_control_outcome ~label:"reference" w.Dvm.Chaos.w_reference;
    Dvm.Chaos.print_control_outcome ~label:"chaotic" w.Dvm.Chaos.w_chaotic;
    print_string ("\n" ^ Dvm.Chaos.control_verdict_text w);
    if trace then
      print_fault_trace
        (Printf.sprintf "\ninjected-fault trace (replayable from seed %d):"
           seed)
        c.Dvm.Chaos.cn_fault_trace
  end;
  if ok then 0
  else begin
    if not json then Printf.eprintf "control-plane invariant violated\n";
    1
  end

(* --- Cmdliner plumbing. --- *)

(* Shard, replica and applet counts and durations must be at least 1:
   a bad value is a usage error naming its flag, not a crash. *)
let pos_int =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok n
        | _ -> Error (Printf.sprintf "expected a positive integer, got %S" s)),
      Format.pp_print_int )

let gen_cmd =
  let app_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"APP")
  in
  let dir_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a Figure-5 workload application")
    Term.(const gen $ app_arg $ dir_arg)

let disasm_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a class file")
    Term.(const disasm $ path)

let verify_cmd =
  let paths = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Statically verify class files; all given files form the oracle \
          environment")
    Term.(const verify $ paths)

let rewrite_cmd =
  let security =
    Arg.(value & flag & info [ "security" ] ~doc:"insert security checks")
  in
  let audit =
    Arg.(value & flag & info [ "audit" ] ~doc:"insert audit instrumentation")
  in
  let policy =
    Arg.(value & opt (some file) None & info [ "policy" ] ~docv:"XML"
           ~doc:"XML policy file for the security service")
  in
  let key =
    Arg.(value & opt (some string) None & info [ "sign" ] ~docv:"SECRET"
           ~doc:"sign the output with this organization secret")
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT"
           ~doc:"output path (default FILE.dvm)")
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Run a class through the static service pipeline")
    Term.(const rewrite $ security $ audit $ policy $ key $ path $ out)

let run_cmd =
  let entry = Arg.(required & pos 0 (some string) None & info [] ~docv:"ENTRY") in
  let paths = Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute an application's main() on a DVM client")
    Term.(const run $ entry $ paths)

let split_cmd =
  let entry = Arg.(required & pos 0 (some string) None & info [] ~docv:"ENTRY") in
  let paths = Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"FILE") in
  let out =
    Arg.(value & opt string "split-out" & info [ "o" ] ~docv:"DIR"
           ~doc:"output directory (default split-out)")
  in
  Cmd.v
    (Cmd.info "split"
       ~doc:
         "Profile a first execution and repartition the application at           method granularity (section 5)")
    Term.(const split $ entry $ paths $ out)

let analyze_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let dot =
    Arg.(value & flag
         & info [ "dot" ] ~doc:"emit Graphviz dot instead of a text dump")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Dump the proxy-side dataflow view of a class: basic blocks, \
          edges, dominators, loops, and the per-block nullness and \
          integer-range facts the elision passes consume")
    Term.(const analyze $ path $ dot)

let lint_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"emit a machine-readable summary on stdout instead of text")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the dataflow analyzer over every bundled workload class; \
          fails on solver non-convergence or on a CFG that changes across \
          an encode/decode round trip")
    Term.(const lint $ json)

let certify_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"emit a machine-readable summary on stdout")
  in
  let mutate =
    Arg.(value & flag
         & info [ "mutate" ]
             ~doc:"also run the mutation harness and enforce the kill-rate bar")
  in
  let seed =
    Arg.(value & opt int 20260808
         & info [ "seed" ] ~docv:"SEED" ~doc:"mutation sampling seed")
  in
  let count =
    Arg.(value & opt int 3
         & info [ "count" ] ~docv:"N" ~doc:"mutants sampled per class")
  in
  let min_kill =
    Arg.(value & opt float 0.9
         & info [ "min-kill" ] ~docv:"RATE"
             ~doc:"minimum mutation kill rate (0..1) to exit successfully")
  in
  let small =
    Arg.(value & flag
         & info [ "small" ]
             ~doc:"certify the small workload builds instead of the full \
                   401-class set")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Rewrite every bundled workload under the covering policy with \
          elision-certificate emission on, round-trip the bytes, and make \
          the translation validator independently re-prove every elided \
          and hoisted check; with --mutate, seeded corruptions of rewriter \
          output must be killed by the verifier or the certifier")
    Term.(const certify $ json $ mutate $ seed $ count $ min_kill $ small)

let trace_cmd =
  let app_arg =
    Arg.(value & pos 0 string "jlex" & info [] ~docv:"APP"
           ~doc:"workload application (a Figure-5 benchmark name)")
  in
  let out =
    Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"output path for the Chrome trace_event JSON")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload with telemetry enabled and export a Chrome \
          trace_event JSON (loadable in Perfetto) with spans from the \
          simulator, proxy pipeline, cache and client VM")
    Term.(const trace $ app_arg $ out)

let metrics_cmd =
  let app_arg =
    Arg.(value & pos 0 string "jlex" & info [] ~docv:"APP"
           ~doc:"workload application (a Figure-5 benchmark name)")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "emit one JSON object (counters, gauges, histograms with \
             p50/p95/p99) instead of the text snapshot")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a workload with telemetry enabled and print the metrics \
          snapshot (counters, gauges, latency histograms)")
    Term.(const metrics $ app_arg $ json)

let flight_cmd =
  let seed =
    Arg.(
      value
      & opt int Dvm.Chaos.default_config.Dvm.Chaos.ch_seed
      & info [ "seed" ] ~docv:"N"
          ~doc:"chaos-schedule seed; traces are a pure function of it")
  in
  let duration =
    Arg.(
      value & opt pos_int 16
      & info [ "duration" ] ~docv:"S"
          ~doc:
            "simulated seconds (long enough at the default seed for both a \
             shed and a brownout to occur)")
  in
  let out =
    Arg.(
      value & opt string "flight"
      & info [ "out"; "o" ] ~docv:"PREFIX"
          ~doc:"output prefix for the exported trace/flight JSON files")
  in
  Cmd.v
    (Cmd.info "flight"
       ~doc:
         "Run a traced seeded chaos run, then walk one shed request and one \
          serve-stale brownout end to end: render each cross-node span tree \
          (client fetch, farm edge routing, shard hops, reason events), \
          export both as Chrome trace_event and plain JSON, and dump the \
          per-node flight-recorder rings")
    Term.(const flight $ seed $ duration $ out)

let slo_cmd =
  let seed =
    Arg.(
      value
      & opt int Dvm.Chaos.default_config.Dvm.Chaos.ch_seed
      & info [ "seed" ] ~docv:"N" ~doc:"chaos-schedule seed")
  in
  let duration =
    Arg.(
      value
      & opt pos_int Dvm.Chaos.default_config.Dvm.Chaos.ch_duration_s
      & info [ "duration" ] ~docv:"S" ~doc:"simulated seconds")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"emit the report as one JSON object")
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Run a seeded chaos run and print the SLO monitor's report: \
          rolling goodput over the final window, deadline-violation rate \
          against the 99% objective, and error-budget burn")
    Term.(const slo $ seed $ duration $ json)

let faults_cmd =
  let seed =
    Arg.(value & opt int Dvm.Availability.default_seed
         & info [ "seed" ] ~docv:"N"
             ~doc:"fault-plan seed; the run is a pure function of it")
  in
  let crash =
    Arg.(value & flag
         & info [ "crash" ]
             ~doc:"crash shard 0 at t=400ms for 2.5s (cache-cold restart)")
  in
  let losses =
    Arg.(value & opt (list float) [ 0.0; 1.0; 5.0; 10.0 ]
         & info [ "loss" ] ~docv:"PCTS"
             ~doc:"comma-separated packet-loss percentages for the client LAN")
  in
  let replicas =
    Arg.(value & opt (list pos_int) [ 1; 2 ]
         & info [ "replicas" ] ~docv:"NS"
             ~doc:"comma-separated replica counts (shards in the proxy \
                   farm)")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"print each run's injected-fault trace")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Inject deterministic faults (link loss, latency jitter, proxy \
          crash) into a simulated jlex startup and print availability: \
          startup latency, retries, failovers, and degraded classes per \
          loss rate and replica count")
    Term.(const faults $ seed $ crash $ losses $ replicas $ trace)

let farm_cmd =
  let clients =
    Arg.(value & opt int 400
         & info [ "clients" ] ~docv:"N" ~doc:"concurrent browsing clients")
  in
  let shards =
    Arg.(value & opt (list pos_int) [ 1; 2; 4; 8 ]
         & info [ "shards" ] ~docv:"NS"
             ~doc:"comma-separated shard counts to sweep")
  in
  let duration =
    Arg.(value & opt pos_int 20
         & info [ "duration" ] ~docv:"S" ~doc:"simulated seconds per point")
  in
  let applets =
    Arg.(value & opt pos_int 64
         & info [ "applets" ] ~docv:"N" ~doc:"distinct applets in the workload")
  in
  let cache =
    Arg.(value & opt int 0
         & info [ "cache" ] ~docv:"MB"
             ~doc:"per-shard L1 cache size in MB (0 disables: every request \
                   unique)")
  in
  let l2 =
    Arg.(value & opt int 0
         & info [ "l2" ] ~docv:"MB"
             ~doc:"shared L2 cache size in MB (0 disables)")
  in
  let seed =
    Arg.(value & opt int 7
         & info [ "seed" ] ~docv:"N"
             ~doc:"workload seed; the run is a pure function of it")
  in
  Cmd.v
    (Cmd.info "farm"
       ~doc:
         "Sweep the consistent-hash proxy farm over shard counts and print \
          a Figure-10-style table: aggregate throughput, latency, pipeline \
          runs, single-flight coalescing, shared-L2 hits, and a served-bytes \
          invariance check across shard counts")
    Term.(const farm $ clients $ shards $ duration $ applets $ cache $ l2
          $ seed)

let chaos_cmd =
  let d = Dvm.Chaos.default_config in
  let seed =
    Arg.(value & opt int d.Dvm.Chaos.ch_seed
         & info [ "seed" ] ~docv:"N"
             ~doc:"chaos-schedule seed; the run is a pure function of it")
  in
  let shards =
    Arg.(value & opt pos_int d.Dvm.Chaos.ch_shards
         & info [ "shards" ] ~docv:"N" ~doc:"farm shard count")
  in
  let clients =
    Arg.(value & opt int d.Dvm.Chaos.ch_clients
         & info [ "clients" ] ~docv:"N" ~doc:"steady-state browsing clients")
  in
  let duration =
    Arg.(value & opt pos_int d.Dvm.Chaos.ch_duration_s
         & info [ "duration" ] ~docv:"S" ~doc:"simulated seconds")
  in
  let spike =
    Arg.(value & opt int d.Dvm.Chaos.ch_spike_factor
         & info [ "spike" ] ~docv:"X"
             ~doc:"flash crowd: total offered clients during the spike \
                   window, as a multiple of the steady-state count")
  in
  let spike_start =
    Arg.(value & opt int d.Dvm.Chaos.ch_spike_start_s
         & info [ "spike-start" ] ~docv:"S" ~doc:"spike window start")
  in
  let spike_len =
    Arg.(value & opt int d.Dvm.Chaos.ch_spike_len_s
         & info [ "spike-len" ] ~docv:"S"
             ~doc:"spike window length (0 disables the spike)")
  in
  let crashes =
    Arg.(value & opt int d.Dvm.Chaos.ch_crashes
         & info [ "crashes" ] ~docv:"N"
             ~doc:"shard crash/restart windows drawn from the seed")
  in
  let loss =
    Arg.(value & opt float d.Dvm.Chaos.ch_loss_pct
         & info [ "loss" ] ~docv:"PCT" ~doc:"client-LAN packet loss")
  in
  let budget =
    Arg.(value & opt int (Int64.to_int d.Dvm.Chaos.ch_budget_us / 1000)
         & info [ "budget" ] ~docv:"MS" ~doc:"per-fetch deadline budget (ms)")
  in
  let no_control =
    Arg.(value & flag
         & info [ "no-control" ]
             ~doc:"disable the overload controls (deadline kept client-side \
                   only, no shedding, no hedging, no retry budget)")
  in
  let compare =
    Arg.(value & flag
         & info [ "compare" ]
             ~doc:"also run the control-on vs control-off spike comparison \
                   and print the goodput ratio")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"print the injected-fault trace")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded chaos schedule (shard crash/restart windows, LAN \
          loss and jitter, a flash-crowd load spike) against the farm's \
          overload controls and check the three invariants: served bytes \
          digest-identical to a fault-free run, zero serves past their \
          deadline, and recovery to steady-state throughput once faults \
          clear. Exits nonzero if any invariant fails")
    Term.(const chaos $ seed $ shards $ clients $ duration $ spike
          $ spike_start $ spike_len $ crashes $ loss $ budget $ no_control
          $ compare $ trace)

let control_cmd =
  let d = Dvm.Chaos.default_control_config in
  let seed =
    Arg.(value & opt int d.Dvm.Chaos.cc_seed
         & info [ "seed" ] ~docv:"N"
             ~doc:"fault-schedule seed; the run is a pure function of it")
  in
  let shards =
    Arg.(value & opt pos_int d.Dvm.Chaos.cc_shards
         & info [ "shards" ] ~docv:"N" ~doc:"farm shard count")
  in
  let clients =
    Arg.(value & opt int d.Dvm.Chaos.cc_clients
         & info [ "clients" ] ~docv:"N" ~doc:"browsing clients")
  in
  let duration =
    Arg.(value & opt pos_int d.Dvm.Chaos.cc_duration_s
         & info [ "duration" ] ~docv:"S" ~doc:"simulated seconds")
  in
  let applets =
    Arg.(value & opt pos_int d.Dvm.Chaos.cc_applets
         & info [ "applets" ] ~docv:"N" ~doc:"distinct cached applets")
  in
  let partitions =
    Arg.(value & opt int d.Dvm.Chaos.cc_partitions
         & info [ "partitions" ] ~docv:"N"
             ~doc:"control-link partition windows; the first is pinned to \
                   span the policy bump (split brain: the victim's data \
                   path stays up)")
  in
  let partition_len =
    Arg.(value & opt int d.Dvm.Chaos.cc_partition_len_s
         & info [ "partition-len" ] ~docv:"S"
             ~doc:"partition window length")
  in
  let bump_at =
    Arg.(value & opt int d.Dvm.Chaos.cc_bump_at_s
         & info [ "bump-at" ] ~docv:"S"
             ~doc:"when the leader proposes the new policy version")
  in
  let no_restart =
    Arg.(value & flag
         & info [ "no-restart" ]
             ~doc:"skip the shard crash/restart window (the restarted \
                   shard must recover version and invalidations from \
                   the log, not the stale shared L2)")
  in
  let lease =
    Arg.(value & opt int (Int64.to_int d.Dvm.Chaos.cc_lease_us / 1000)
         & info [ "lease" ] ~docv:"MS" ~doc:"member lease length (ms)")
  in
  let churn =
    Arg.(value & opt int d.Dvm.Chaos.cc_churn_s
         & info [ "churn" ] ~docv:"S"
             ~doc:"propose a rotating cache invalidation every $(docv) \
                   seconds (0 = off); keeps the log growing so compaction \
                   triggers mid-run")
  in
  let snapshot_every =
    Arg.(value & opt int d.Dvm.Chaos.cc_snapshot_every
         & info [ "snapshot-every" ] ~docv:"N"
             ~doc:"fold the committed, applied prefix into a snapshot \
                   every $(docv) live entries")
  in
  let no_leader_crash =
    Arg.(value & flag
         & info [ "no-leader-crash" ]
             ~doc:"skip crashing the leased leader 200 ms after the bump \
                   (crash-during-commit: the new leader re-drives the \
                   uncommitted suffix)")
  in
  let no_leader_partition =
    Arg.(value & flag
         & info [ "no-leader-partition" ]
             ~doc:"skip partitioning the leased leader late in the run \
                   (the stale-term wake-up)")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"print the injected-fault trace")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"emit one machine-readable JSON object (terms, leader \
                   changes, snapshot stats, invariant results) instead of \
                   the report")
  in
  Cmd.v
    (Cmd.info "control"
       ~doc:
         "Replicate a security-policy bump and its cache invalidations \
          across the farm while a seeded schedule partitions control \
          links (split brain), crash/restarts a shard, kills the leased \
          leader mid-commit and wakes it with a stale term, then check \
          the control-plane invariants: no client is ever served bytes \
          rewritten under the revoked policy version once the bump \
          commits, at most one member holds a valid leadership lease at \
          any sampled instant with terms monotone, snapshot catch-up is \
          state-identical to full-log replay, every shard converges to \
          the new version, and applets the bump does not affect serve \
          byte-identical digests to a partition-free run. Exits nonzero \
          on violation")
    Term.(const control $ seed $ shards $ clients $ duration $ applets
          $ partitions $ partition_len $ bump_at $ no_restart $ lease
          $ churn $ snapshot_every $ no_leader_crash $ no_leader_partition
          $ trace $ json)

let main_cmd =
  Cmd.group
    (Cmd.info "dvmctl" ~version:"1.0"
       ~doc:"Distributed virtual machine control tool")
    [
      gen_cmd; disasm_cmd; verify_cmd; rewrite_cmd; run_cmd; split_cmd;
      analyze_cmd; lint_cmd; certify_cmd; trace_cmd; metrics_cmd; flight_cmd;
      slo_cmd; faults_cmd; farm_cmd; chaos_cmd; control_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
