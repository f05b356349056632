(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§4–§5), printing the paper's reported series
   next to the measured ones. Absolute numbers are calibrations (see
   DESIGN.md); the claims under test are the shapes — who wins, by
   roughly what factor, and where crossovers fall.

     dune exec bench/main.exe            runs everything
     dune exec bench/main.exe fig6       runs one experiment
     (fig5 fig6 fig7 fig8 fig9 applets fig10 fig11 fig12 ablations elide
      certify faults farm chaos control paper perf)
*)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n--- %s ---\n" title

let s_of_us us = Int64.to_float us /. 1_000_000.0

(* --- BENCH_<phase>.json: the committed perf trajectory. ---

   The json phases push their headline numbers (throughput, tail
   quantiles, goodput, digests, SLO reports) here as raw JSON values;
   [with_phase ~json:true] writes them, together with the phase's
   counters and histograms, to BENCH_<phase>.json in the working
   directory. Every value except the wall_ms line is a function of the
   virtual clock and the pinned seeds, so the file is byte-identical
   run to run modulo that line — CI diffs it against the committed
   baseline (ignoring wall_ms) to pin the perf trajectory, and the
   [perf] phase reports the wall_ms columns as the speed record. *)
let bench_summary : (string * string) list ref = ref []
let bench_put k v = bench_summary := !bench_summary @ [ (k, v) ]

let json_obj kvs =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":%s" (Telemetry.Flight.esc k) v)
         kvs)
  ^ "}"

let json_list items = "[" ^ String.concat "," items ^ "]"

let write_bench ?(hists = true) ~wall_ms name =
  (* Every event the phase scheduled was processed, cancelled or is
     still queued on some engine; a phase whose counts do not add up
     has lost events somewhere, and fails. *)
  let count = Telemetry.counter_value in
  let scheduled = count "simnet.events.scheduled"
  and processed = count "simnet.events.processed"
  and cancelled = count "simnet.events.cancelled"
  and queued = Telemetry.gauge_value "simnet.queue.depth" in
  if scheduled <> Int64.add processed (Int64.add cancelled queued) then begin
    Printf.eprintf
      "%s: %Ld simnet events scheduled, but %Ld processed + %Ld cancelled + \
       %Ld queued\n"
      name scheduled processed cancelled queued;
    exit 1
  end;
  let summary =
    String.concat ",\n    "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) !bench_summary)
  in
  let path = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out path in
  (* wall_ms is host time and varies run to run; every diff of these
     files (make perf-compare, the perf phase itself)
     ignores that one line, so the rest stays a byte-stable pin while
     the trajectory still records speed. *)
  Printf.fprintf oc
    "{\n\
    \  \"phase\": %S,\n\
    \  \"wall_ms\": %d,\n\
    \  \"summary\": {\n\
    \    %s\n\
    \  },\n\
    \  \"metrics\": %s\n\
     }\n"
    name wall_ms summary
    (if hists then Telemetry.metrics_json ()
     else begin
       (* Phases with host-clock spans have wall-time histograms
          that drift run to run; pin only the deterministic counters
          and gauges for those. *)
       let kv (k, v) =
         Printf.sprintf "\"%s\":%Ld" (Telemetry.Flight.esc k) v
       in
       Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":[]}"
         (String.concat "," (List.map kv (Telemetry.counters ())))
         (String.concat "," (List.map kv (Telemetry.gauges ())))
     end);
  close_out oc;
  Printf.printf "\n--- %s: wrote %s ---\n" name path

(* Each benchmark phase runs with telemetry enabled and emits a metrics
   snapshot next to its results, so a figure's numbers come with the
   counters and latency distributions that produced them. [json]
   additionally emits the phase's latency histograms as one JSON line
   (name, count, p50/p95/p99, ...) for machine consumers, and writes
   the BENCH_<phase>.json baseline — the load/fault phases where tail
   latency is the result. *)
let with_phase ?(json = false) ?(hists = true) name f =
  Telemetry.reset ();
  Telemetry.enable ();
  bench_summary := [];
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      Printf.printf "\n--- %s: telemetry ---\n%s" name
        (Telemetry.metrics_snapshot ());
      if json then begin
        Printf.printf "\n--- %s: histograms (json) ---\n%s\n" name
          (Telemetry.histograms_json ());
        let wall_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.0) in
        write_bench ~hists ~wall_ms name
      end;
      Telemetry.disable ())
    f

(* --- Figure 5: benchmark description table. --- *)

let fig5 () =
  section "Figure 5: benchmark applications";
  Printf.printf "%-11s %9s %9s %9s %9s  %s\n" "Name" "Size(pap)" "Size(us)"
    "Cls(pap)" "Cls(us)" "Description";
  List.iter
    (fun spec ->
      let app = Workloads.Apps.build spec in
      let desc =
        List.assoc spec.Workloads.Appgen.name Workloads.Apps.descriptions
      in
      Printf.printf "%-11s %8dK %8dK %9d %9d  %s\n" spec.Workloads.Appgen.name
        (spec.Workloads.Appgen.target_bytes / 1024)
        (app.Workloads.Appgen.total_bytes / 1024)
        spec.Workloads.Appgen.classes
        (List.length app.Workloads.Appgen.classes)
        desc)
    Workloads.Apps.all_specs

(* --- Figure 6: end-to-end application performance. --- *)

let archs =
  [
    Dvm.Experiment.Monolithic;
    Dvm.Experiment.Dvm { cached = false };
    Dvm.Experiment.Dvm { cached = true };
  ]

let fig6_results =
  lazy
    (List.map
       (fun spec ->
         let app = Workloads.Apps.build spec in
         ( spec.Workloads.Appgen.name,
           List.map (fun arch -> (arch, Dvm.Experiment.run ~arch app)) archs ))
       Workloads.Apps.all_specs)

let fig6 () =
  section
    "Figure 6: application performance under monolithic and distributed VMs";
  Printf.printf
    "(execution time in simulated seconds; paper reports DVM ~11%% slower\n\
    \ uncached on average, and faster than monolithic once cached)\n\n";
  Printf.printf "%-11s %12s %12s %12s %10s\n" "App" "Monolithic" "DVM"
    "DVM cached" "DVM ovhd";
  let total_ovhd = ref 0.0 in
  List.iter
    (fun (name, results) ->
      let w arch = s_of_us (List.assoc arch results).Dvm.Experiment.r_wall_us in
      let mono = w Dvm.Experiment.Monolithic in
      let dvm = w (Dvm.Experiment.Dvm { cached = false }) in
      let cached = w (Dvm.Experiment.Dvm { cached = true }) in
      let ovhd = 100.0 *. (dvm -. mono) /. mono in
      total_ovhd := !total_ovhd +. ovhd;
      Printf.printf "%-11s %11.2fs %11.2fs %11.2fs %+9.1f%%\n" name mono dvm
        cached ovhd)
    (Lazy.force fig6_results);
  Printf.printf "\nAverage uncached overhead: %+.1f%% (paper: ~+11%%)\n"
    (!total_ovhd /. 5.0);
  bench_put "fig6"
    (json_obj
       (List.map
          (fun (name, results) ->
            let w arch = (List.assoc arch results).Dvm.Experiment.r_wall_us in
            ( name,
              Printf.sprintf
                {|{"monolithic_us":%Ld,"dvm_us":%Ld,"dvm_cached_us":%Ld}|}
                (w Dvm.Experiment.Monolithic)
                (w (Dvm.Experiment.Dvm { cached = false }))
                (w (Dvm.Experiment.Dvm { cached = true })) ))
          (Lazy.force fig6_results)));
  List.iter
    (fun (name, results) ->
      let outs =
        List.sort_uniq compare
          (List.map (fun (_, r) -> r.Dvm.Experiment.r_output) results)
      in
      if List.length outs <> 1 then
        Printf.printf "WARNING: %s outputs diverge across architectures!\n"
          name)
    (Lazy.force fig6_results)

(* --- Figure 7: client-side verification overhead. ---

   Each column is what the simulation charged the client: the
   monolithic VM pays [monolithic_verify_us_per_check] per static check
   at load time, the DVM client [Rt_verifier.check_cost] per deferred
   link check. Reuses Figure 6's runs. *)

let fig7 () =
  section "Figure 7: client-side verification work (seconds of client time)";
  Printf.printf
    "(monolithic clients verify everything at load time; DVM clients run\n\
    \ only the deferred link checks injected by the static verifier)\n\n";
  Printf.printf "%-11s %16s %16s\n" "App" "Monolithic" "DVM client";
  let rows =
    List.map
      (fun (name, results) ->
        let mono = List.assoc Dvm.Experiment.Monolithic results in
        let dvm = List.assoc (Dvm.Experiment.Dvm { cached = false }) results in
        let mono_us =
          Dvm.Costs.monolithic_verify_us_per_check
          *. Float.of_int mono.Dvm.Experiment.r_static_checks
        in
        let dvm_us =
          Int64.mul Verifier.Rt_verifier.check_cost
            (Int64.of_int dvm.Dvm.Experiment.r_dynamic_checks)
        in
        Printf.printf "%-11s %15.3fs %15.6fs\n" name (mono_us /. 1e6)
          (s_of_us dvm_us);
        ( name,
          Printf.sprintf {|{"monolithic_us":%.0f,"dvm_us":%Ld}|} mono_us dvm_us
        ))
      (Lazy.force fig6_results)
  in
  bench_put "fig7" (json_obj rows)

(* --- Figure 8: static vs dynamic check counts. --- *)

let fig8 () =
  section "Figure 8: breakdown of static and dynamic verification checks";
  Printf.printf
    "(paper values in parentheses; our checker counts coarser-grained\n\
    \ constraints, so magnitudes differ while the static:dynamic ratio —\n\
    \ the claim — holds)\n\n";
  let paper =
    [
      ("jlex", (291679, 371));
      ("javacup", (415825, 806));
      ("pizza", (289495, 541));
      ("instantdb", (1066944, 3426));
      ("cassowary", (1965538, 2346));
    ]
  in
  Printf.printf "%-11s %22s %22s\n" "App" "Static checks" "Dynamic checks";
  let counts =
    List.map
      (fun (name, results) ->
        let dvm = List.assoc (Dvm.Experiment.Dvm { cached = false }) results in
        let ps, pd = List.assoc name paper in
        Printf.printf "%-11s %10d (%8d) %10d (%8d)\n" name
          dvm.Dvm.Experiment.r_static_checks ps
          dvm.Dvm.Experiment.r_dynamic_checks pd;
        ( name,
          Printf.sprintf {|{"static":%d,"dynamic":%d}|}
            dvm.Dvm.Experiment.r_static_checks
            dvm.Dvm.Experiment.r_dynamic_checks ))
      (Lazy.force fig6_results)
  in
  bench_put "fig8" (json_obj counts)

(* --- Figure 9: security microbenchmarks. --- *)

let fig9 () =
  section "Figure 9: security service microbenchmarks (times in ms)";
  let policy =
    Security.Policy_xml.parse
      {|<policy default="allow">
          <domain name="apps">
            <grant permission="property.get"/>
            <grant permission="file.open"/>
            <grant permission="thread.setPriority"/>
            <grant permission="file.read"/>
          </domain>
          <operation permission="property.get" class="java/lang/System" method="getProperty"/>
          <operation permission="file.open" class="java/io/FileInputStream" method="&lt;init&gt;"/>
          <operation permission="thread.setPriority" class="java/lang/Thread" method="setPriority"/>
          <operation permission="file.read" class="java/io/FileInputStream" method="read"/>
        </policy>|}
  in
  let module B = Bytecode.Builder in
  let static = [ Bytecode.Classfile.Public; Bytecode.Classfile.Static ] in
  let ops =
    [
      ( "Get Property",
        "prop",
        [
          B.Push_str "user.name";
          B.Invokestatic
            ( "java/lang/System",
              "getProperty",
              "(Ljava/lang/String;)Ljava/lang/String;" );
          B.Pop;
          B.Return;
        ] );
      ( "Open File",
        "openf",
        [
          B.New "java/io/FileInputStream";
          B.Dup;
          B.Push_str "/data";
          B.Invokespecial
            ("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V");
          B.Pop;
          B.Return;
        ] );
      ( "Change Thread Priority",
        "prio",
        [
          B.Invokestatic
            ("java/lang/Thread", "currentThread", "()Ljava/lang/Thread;");
          B.Const 7;
          B.Invokevirtual ("java/lang/Thread", "setPriority", "(I)V");
          B.Return;
        ] );
      ( "Read File",
        "readf",
        [
          (* read from a stream opened during setup: the paper's
             baseline is the read alone *)
          B.Getstatic ("bench/SecOps", "in", "Ljava/io/FileInputStream;");
          B.Invokevirtual ("java/io/FileInputStream", "read", "()I");
          B.Pop;
          B.Return;
        ] );
    ]
  in
  let snippet_cls =
    B.class_ "bench/SecOps"
      ~fields:[ B.field ~flags:static "in" "Ljava/io/FileInputStream;" ]
      (B.meth ~flags:static "setup" "()V"
         [
           B.New "java/io/FileInputStream";
           B.Dup;
           B.Push_str "/data";
           B.Invokespecial
             ("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V");
           B.Putstatic ("bench/SecOps", "in", "Ljava/io/FileInputStream;");
           B.Return;
         ]
      :: List.map (fun (_, m, body) -> B.meth ~flags:static m "()V" body) ops)
  in
  let prep vm =
    Hashtbl.replace vm.Jvm.Vmstate.props "user.name" "egs";
    Hashtbl.replace vm.Jvm.Vmstate.files "/data" "datadata"
  in
  let measure vm name =
    let before = Jvm.Vmstate.total_cost vm in
    ignore (Jvm.Interp.invoke vm ~cls:"bench/SecOps" ~name ~desc:"()V" []);
    Int64.to_float (Int64.sub (Jvm.Vmstate.total_cost vm) before) /. 1000.0
  in
  let setup vm =
    ignore (Jvm.Interp.invoke vm ~cls:"bench/SecOps" ~name:"setup" ~desc:"()V" [])
  in
  let base_vm = Jvm.Bootlib.fresh_vm () in
  prep base_vm;
  Jvm.Classreg.register base_vm.Jvm.Vmstate.reg snippet_cls;
  setup base_vm;
  let jdk_vm = Jvm.Bootlib.fresh_vm () in
  prep jdk_vm;
  Jvm.Classreg.register jdk_vm.Jvm.Vmstate.reg snippet_cls;
  setup jdk_vm;
  jdk_vm.Jvm.Vmstate.security_hook <-
    Some (Dvm.Client.jdk_security_hook jdk_vm policy ~sid:"apps");
  let rewritten = Security.Rewriter.rewrite_class policy snippet_cls in
  let paper =
    [
      ("Get Property", (0.0020, 0.0488, 0.0468, 5.830, 0.0092, 0.0072));
      ("Open File", (1.406, 8.631, 7.224, 6.406, 1.430, 0.0238));
      ( "Change Thread Priority",
        (0.0638, 0.0645, 0.0007, 5.026, 0.0815, 0.0177) );
      ("Read File", (0.0141, nan, nan, 4.146, 0.0368, 0.0227));
    ]
  in
  Printf.printf "%-24s %9s %9s %9s %9s %9s %9s\n" "" "Baseline" "JDK chk"
    "JDK ovh" "DVM dl" "DVM chk" "DVM ovh";
  List.iter
    (fun (label, m, _) ->
      let baseline = measure base_vm m in
      let jdk = measure jdk_vm m in
      (* A fresh DVM client per row so each row's first check pays the
         policy download, as in the paper's "download" column. *)
      let server = Security.Server.create policy in
      let dvm_vm = Jvm.Bootlib.fresh_vm () in
      prep dvm_vm;
      let enf = Security.Enforcement.install dvm_vm ~server ~sid:"apps" in
      Jvm.Classreg.register dvm_vm.Jvm.Vmstate.reg rewritten;
      setup dvm_vm;
      (* setup may itself have triggered a check: clear the cache so
         the measured first check pays the policy download, as the
         paper's "download" column does *)
      Security.Enforcement.invalidate enf;
      let download = measure dvm_vm m in
      let dvm = measure dvm_vm m in
      let pb, pjc, pjo, pdl, pdc, pdo = List.assoc label paper in
      Printf.printf "%-24s %9.4f %9.4f %9.4f %9.3f %9.4f %9.4f\n" label
        baseline jdk (jdk -. baseline) download dvm (dvm -. baseline);
      Printf.printf "%-24s %9.4f %9.4f %9.4f %9.3f %9.4f %9.4f  (paper)\n" ""
        pb pjc pjo pdl pdc pdo)
    ops;
  Printf.printf
    "\nNote: the JDK cannot check Read File at all (no anticipated hook);\n\
     the DVM guards it through rewriting - the paper's qualitative point.\n"

(* --- §4.1.2: applet download latency. --- *)

let applets () =
  section "Section 4.1.2: applet download latency through the proxy";
  let st = Dvm.Applet_study.run () in
  Printf.printf "%-40s %10s %10s\n" "" "measured" "paper";
  Printf.printf "%-40s %8.0fms %10s\n" "mean Internet fetch latency"
    st.Dvm.Applet_study.mean_internet_ms "2198ms";
  Printf.printf "%-40s %8.0fms %10s\n" "  standard deviation"
    st.Dvm.Applet_study.stddev_internet_ms "3752ms";
  Printf.printf "%-40s %8.0fms %10s\n" "proxy parse+instrument (uncached)"
    st.Dvm.Applet_study.mean_proxy_overhead_ms "265ms";
  Printf.printf "%-40s %8.1f%% %10s\n" "  as %% of load latency"
    st.Dvm.Applet_study.overhead_percent "12%";
  Printf.printf "%-40s %8.0fms %10s\n" "cached fetch (another client primed)"
    st.Dvm.Applet_study.mean_cached_ms "338ms"

(* --- Figure 10: proxy throughput vs number of clients. --- *)

let fig10 () =
  section "Figure 10: sustained proxy throughput vs number of clients";
  Printf.printf
    "(caching disabled: worst case. Paper: linear to 250 clients, then\n\
    \ degradation as the proxy's 64 MB is exhausted; fetch latency\n\
    \ roughly constant at 1.0-1.2 s/kB in the linear range)\n\n";
  Printf.printf "%8s %16s %14s %12s %10s\n" "Clients" "Throughput(B/s)"
    "Latency(ms)" "s/kB" "CPU util";
  let pts =
    List.map
      (fun clients -> Dvm.Scaling.run_farm ~duration_s:40 ~shards:1 ~clients ())
      [ 10; 25; 50; 100; 150; 200; 250; 270; 290; 310 ]
  in
  List.iter
    (fun p ->
      Printf.printf "%8d %16.0f %14.0f %12.2f %10.2f\n" p.Dvm.Scaling.f_clients
        p.Dvm.Scaling.f_throughput_bytes_per_s
        (p.Dvm.Scaling.f_mean_latency_us /. 1000.0)
        p.Dvm.Scaling.f_mean_latency_s_per_kb p.Dvm.Scaling.f_utilization)
    pts;
  bench_put "fig10" (Dvm.Scaling.fig10_json pts)

(* --- Figures 11 and 12: startup vs bandwidth; repartitioning. --- *)

let bandwidths =
  [
    28_800; 56_000; 128_000; 256_000; 512_000; 1_000_000; 2_000_000;
    4_000_000; 8_000_000;
  ]

let fig11 () =
  section "Figure 11: application start-up time vs network bandwidth (s)";
  let latency_us = 200_000 in
  Printf.printf "%-15s" "KB/s:";
  List.iter
    (fun bw -> Printf.printf "%9.0f" (Float.of_int bw /. 8.0 /. 1000.0))
    bandwidths;
  print_newline ();
  List.iter
    (fun m ->
      Printf.printf "%-15s" m.Opt.Startup.app_name;
      List.iter
        (fun bw ->
          Printf.printf "%9.1f"
            (Float.of_int
               (Opt.Startup.startup_time_us m ~bandwidth_bps:bw ~latency_us
                  ~repartitioned:false)
            /. 1e6))
        bandwidths;
      print_newline ())
    Workloads.Applets.startup_apps;
  Printf.printf
    "\n(compare: ~900s for Java WorkShop at 28.8 Kb/s falling to tens of\n\
     seconds at LAN bandwidth, log-linear shape as in the paper)\n"

let fig12 () =
  section "Figure 12: %% start-up improvement with repartitioning";
  let latency_us = 200_000 in
  Printf.printf "%-15s" "KB/s:";
  List.iter
    (fun bw -> Printf.printf "%9.0f" (Float.of_int bw /. 8.0 /. 1000.0))
    bandwidths;
  print_newline ();
  let rows =
    List.map
      (fun m ->
        Printf.printf "%-15s" m.Opt.Startup.app_name;
        let pcts =
          List.map
            (fun bw ->
              let pct =
                Opt.Startup.improvement_percent m ~bandwidth_bps:bw ~latency_us
              in
              Printf.printf "%8.1f%%" pct;
              Printf.sprintf "%.2f" pct)
            bandwidths
        in
        print_newline ();
        (m.Opt.Startup.app_name, json_list pcts))
      Workloads.Applets.startup_apps
  in
  bench_put "fig12"
    (json_obj
       (("bandwidth_bps", json_list (List.map string_of_int bandwidths))
       :: rows));
  subsection "measured on a generated app (real split, real profile)";
  let app = Workloads.Apps.build_small Workloads.Apps.jlex in
  let instrumented =
    List.map
      (Monitor.Instrument.instrument_class
         ~runtime_class:Monitor.Profiler.profiler_class)
      app.Workloads.Appgen.classes
  in
  let vm = Jvm.Bootlib.fresh_vm () in
  let prof = Monitor.Profiler.install vm () in
  List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg) instrumented;
  (match Jvm.Interp.run_main vm app.Workloads.Appgen.entry with
  | Ok () -> ()
  | Error e ->
    Printf.printf "profile run failed: %s\n" (Jvm.Interp.describe_throwable e));
  let profile = Opt.First_use.of_profiler prof in
  let _, results =
    Opt.Repartition.split_app profile app.Workloads.Appgen.classes
  in
  let orig =
    List.fold_left
      (fun a c -> a + Bytecode.Encode.class_size c)
      0 app.Workloads.Appgen.classes
  in
  let hot =
    List.fold_left (fun a r -> a + r.Opt.Repartition.hot_bytes) 0 results
  in
  Printf.printf
    "jlex: original %d bytes; hot (startup) transfer after split %d bytes\n\
     => %.1f%% of startup transfer removed at method granularity\n" orig hot
    (100.0 *. Float.of_int (orig - hot) /. Float.of_int orig);
  subsection "transport modes on real profiles (section 5 motivation)";
  Printf.printf "%-11s %10s %10s %10s %14s\n" "App" "archive" "lazy-cls"
    "repart" "never-invoked";
  List.iter
    (fun spec ->
      let app = Workloads.Apps.build_small spec in
      let instrumented =
        List.map
          (Monitor.Instrument.instrument_class
             ~runtime_class:Monitor.Profiler.profiler_class)
          app.Workloads.Appgen.classes
      in
      let vm = Jvm.Bootlib.fresh_vm () in
      let prof = Monitor.Profiler.install vm () in
      List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg) instrumented;
      (match Jvm.Interp.run_main vm app.Workloads.Appgen.entry with
      | Ok () -> ()
      | Error _ -> ());
      let profile = Opt.First_use.of_profiler prof in
      let b mode =
        Opt.Transport.bytes_transferred mode profile app.Workloads.Appgen.classes
      in
      Printf.printf "%-11s %9dK %9dK %9dK %13.1f%%\n"
        spec.Workloads.Appgen.name
        (b Opt.Transport.Whole_archive / 1024)
        (b Opt.Transport.Lazy_class / 1024)
        (b Opt.Transport.Repartitioned / 1024)
        (100.0
        *. Opt.Transport.never_invoked_fraction profile
             app.Workloads.Appgen.classes))
    Workloads.Apps.all_specs;
  Printf.printf
    "(paper: even lazy class loading leaves 10-30%% of downloaded code\n\
     never invoked - the repartitioning service's motivation)\n"

(* --- Ablations. --- *)

(* Ablations 1-3 drive the proxy's serve path (parse once vs per
   service, filter order through [Proxy.provider], signing), so the
   paper phase pins their totals and output digest in BENCH_paper.json
   as well as printing them here. *)
let pipeline_ablations app =
  let oracle =
    Verifier.Oracle.of_classes
      (Jvm.Bootlib.boot_classes () @ app.Workloads.Appgen.classes)
  in
  let mk_filters () =
    [
      Verifier.Static_verifier.filter ~oracle ();
      Security.Rewriter.filter Dvm.Experiment.standard_policy;
      Monitor.Instrument.audit_filter ();
    ]
  in
  subsection "1. parse-once pipeline vs parse-per-service";
  let total shared =
    List.fold_left
      (fun acc cf ->
        let bytes = Bytecode.Encode.class_to_bytes cf in
        let o =
          if shared then Proxy.Pipeline.run (mk_filters ()) bytes
          else Proxy.Pipeline.run_parse_per_service (mk_filters ()) bytes
        in
        Int64.add acc (Proxy.Pipeline.total_cost o))
      0L app.Workloads.Appgen.classes
  in
  let once = total true and per = total false in
  Printf.printf
    "proxy CPU, parse-once: %.2fs  parse-per-service: %.2fs (%.1fx)\n"
    (s_of_us once) (s_of_us per)
    (Int64.to_float per /. Int64.to_float once);
  bench_put "ablation1"
    (json_obj
       [
         ("parse_once_us", Int64.to_string once);
         ("parse_per_service_us", Int64.to_string per);
       ]);
  subsection "2. pipeline order invariance (behaviour)";
  let run_order filters =
    let engine = Simnet.Engine.create () in
    let proxy =
      Proxy.create engine
        ~origin:(Workloads.Appgen.origin app)
        ~origin_latency:(fun _ -> 0L)
        ~filters ()
    in
    let server = Security.Server.create Dvm.Experiment.standard_policy in
    let client =
      Dvm.Client.create_dvm ~security_server:server ~sid:"apps"
        ~provider:(Proxy.provider proxy) ()
    in
    match Dvm.Client.run_main client app.Workloads.Appgen.entry with
    | Ok () -> Jvm.Vmstate.output client.Dvm.Client.vm
    | Error e -> "error: " ^ Jvm.Interp.describe_throwable e
  in
  let f1 = mk_filters () in
  let f2 = match mk_filters () with [ a; b; c ] -> [ c; b; a ] | l -> l in
  let o1 = run_order f1 and o2 = run_order f2 in
  Printf.printf
    "verify->security->audit output = audit->security->verify: %b\n"
    (String.equal o1 o2);
  bench_put "ablation2"
    (json_obj
       [
         ("order_invariant", string_of_bool (String.equal o1 o2));
         ("output_md5", Printf.sprintf "%S" (Dsig.Md5.hex_digest o1));
       ]);
  subsection "3. signing cost";
  let key = Dsig.Sign.make_key ~key_id:"org" ~secret:"k" in
  let unsigned = total true in
  let signed =
    List.fold_left
      (fun acc cf ->
        let bytes = Bytecode.Encode.class_to_bytes cf in
        let o = Proxy.Pipeline.run ~signer:key (mk_filters ()) bytes in
        Int64.add
          (Int64.add acc (Proxy.Pipeline.total_cost o))
          (Int64.of_int
             (Dsig.Sign.sign_cost_us
                ~bytes:(String.length o.Proxy.Pipeline.out_bytes))))
      0L app.Workloads.Appgen.classes
  in
  Printf.printf
    "pipeline without signing: %.3fs  with signing: %.3fs (+%.1f%%)\n"
    (s_of_us unsigned) (s_of_us signed)
    (100.0
    *. (Int64.to_float signed -. Int64.to_float unsigned)
    /. Int64.to_float unsigned);
  bench_put "ablation3"
    (json_obj
       [
         ("unsigned_us", Int64.to_string unsigned);
         ("signed_us", Int64.to_string signed);
       ])

(* Ablation 8 runs the Figure-10 farm at its 250-client knee, so the
   paper phase pins it next to the figure. *)
let cache_ablation () =
  subsection "8. proxy caching under load (the paper's other mitigation)";
  let run ?cache_capacity () =
    Dvm.Scaling.run_farm ~duration_s:20 ~shards:1 ~clients:250 ?cache_capacity
      ()
  in
  let worst = run () and cached = run ~cache_capacity:(48 * 1024 * 1024) () in
  Printf.printf
    "250 clients: cache disabled %.0f B/s (util %.2f); cache enabled %.0f B/s (util %.2f)\n"
    worst.Dvm.Scaling.f_throughput_bytes_per_s worst.Dvm.Scaling.f_utilization
    cached.Dvm.Scaling.f_throughput_bytes_per_s
    cached.Dvm.Scaling.f_utilization;
  let point p =
    json_obj
      [
        ( "throughput_bps",
          Printf.sprintf "%.1f" p.Dvm.Scaling.f_throughput_bytes_per_s );
        ("utilization", Printf.sprintf "%.4f" p.Dvm.Scaling.f_utilization);
        ("completed", string_of_int p.Dvm.Scaling.f_requests_completed);
        ( "trace_digest",
          Printf.sprintf "%S" (Dsig.Md5.to_hex p.Dvm.Scaling.f_trace_digest) );
      ]
  in
  bench_put "ablation8"
    (json_obj [ ("cache_off", point worst); ("cache_on", point cached) ])

let ablations () =
  section "Ablations (design choices called out in DESIGN.md)";
  let app = Workloads.Apps.build_small Workloads.Apps.jlex in
  pipeline_ablations app;
  subsection "4. enforcement-manager result cache";
  let policy = Dvm.Experiment.standard_policy in
  let server = Security.Server.create policy in
  let vm = Jvm.Bootlib.fresh_vm () in
  let enf = Security.Enforcement.install vm ~server ~sid:"apps" in
  ignore (Security.Enforcement.allowed ~vm enf "file.open");
  let before = vm.Jvm.Vmstate.native_cost in
  for _ = 1 to 1000 do
    ignore (Security.Enforcement.allowed ~vm enf "file.open")
  done;
  let cached_cost = vm.Jvm.Vmstate.native_cost - before in
  let before = vm.Jvm.Vmstate.native_cost in
  for _ = 1 to 1000 do
    Security.Enforcement.invalidate enf;
    ignore (Security.Enforcement.allowed ~vm enf "file.open")
  done;
  let uncached_cost = vm.Jvm.Vmstate.native_cost - before in
  Printf.printf
    "1000 checks, cached: %.1fms   invalidated each time: %.1fms (%.0fx)\n"
    (float_of_int cached_cost /. 1000.0)
    (float_of_int uncached_cost /. 1000.0)
    (float_of_int uncached_cost /. float_of_int cached_cost);
  subsection "5. compilation service: per-architecture ahead-of-time cache";
  let svc = Jit.Service.create () in
  List.iter
    (fun cf -> ignore (Jit.Service.compile_class svc Jit.Arch.x86 cf))
    app.Workloads.Appgen.classes;
  let first_cost = svc.Jit.Service.compile_cost_us in
  List.iter
    (fun cf -> ignore (Jit.Service.compile_class svc Jit.Arch.x86 cf))
    app.Workloads.Appgen.classes;
  Printf.printf
    "first client (x86): %.1fms compile; second client: %.1fms (cache hits %d)\n"
    (Int64.to_float first_cost /. 1000.0)
    (Int64.to_float (Int64.sub svc.Jit.Service.compile_cost_us first_cost)
    /. 1000.0)
    svc.Jit.Service.cache_hits;
  Printf.printf "compiled %d methods, %d interpreter-resident (jsr/handlers)\n"
    svc.Jit.Service.compiled_methods svc.Jit.Service.skipped_methods;
  subsection "6. reflection service (section 4.3): fast oracle vs full parse";
  let big = Workloads.Apps.build Workloads.Apps.pizza in
  let annotated =
    List.map
      (fun (n, b) ->
        ( n,
          Bytecode.Encode.class_to_bytes
            (Verifier.Reflect.annotate (Bytecode.Decode.class_of_bytes b)) ))
      (Workloads.Appgen.class_bytes big)
  in
  let fetch n = List.assoc_opt n annotated in
  let names = List.map fst annotated in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let slow =
    time (fun () ->
        List.iter
          (fun n ->
            match fetch n with
            | Some b ->
              ignore
                (Verifier.Oracle.info_of_classfile
                   (Bytecode.Decode.class_of_bytes b))
            | None -> ())
          names)
  in
  let fast =
    time (fun () ->
        let o = Verifier.Reflect.oracle_of_bytes fetch in
        List.iter (fun n -> ignore (o n)) names)
  in
  Printf.printf
    "oracle over %d pizza classes: full parse %.1fms, reflect attribute %.1fms (%.1fx)\n"
    (List.length names) (slow *. 1000.0) (fast *. 1000.0) (slow /. fast);
  (* Ablation 7, replicated proxies moving the Figure-10 knee, is the
     farm phase's pinned shard sweep. *)
  cache_ablation ()

(* --- Paper: the reproduced figures, pinned. ---

   Figures 6, 7, 8, 10 and 12 in one phase, so their series land in
   BENCH_paper.json: per-app virtual times, client verification
   charges, check counts, the Figure-10 scaling curve and the
   repartitioning model, plus the pipeline ablations 1-3 and the
   caching ablation 8. Every value is a function of the virtual
   clock or the cost model, so a refactor that bends a reproduced
   shape fails the pin. The runs also record host-clock histograms;
   the phase writes with hists:false to leave them out. *)

let paper () =
  fig6 ();
  fig7 ();
  fig8 ();
  fig10 ();
  fig12 ();
  pipeline_ablations (Workloads.Apps.build_small Workloads.Apps.jlex);
  cache_ablation ()

(* --- Elision: redundant-check elision via proxy-side dataflow. ---

   A workload-covering policy maps every worker class (method="*") to
   one per-app permission, so the driver's loop body holds dozens of
   sites for the same check. The availability analysis keeps the first
   and elides the rest; loop-invariant hoisting then lifts the survivor
   out of the loop. The same run compares JIT null/bounds guards with
   and without nullness/range facts. Program output must be
   byte-identical either way. *)

let elide () =
  section "Redundant-check elision (proxy-side dataflow analysis)";
  Printf.printf
    "(dynamic enforcement calls during the run, and null/bounds guards in\n\
    \ the compiled IR, with elision off vs on; output must be identical)\n\n";
  Printf.printf "%-11s %12s %12s %12s %12s %9s\n" "App" "checks off"
    "checks on" "guards off" "guards on" "output=";
  let improved = ref 0 in
  List.iter
    (fun spec ->
      let app = Workloads.Apps.build_small spec in
      let policy = Dvm.Certification.covering_policy app in
      let arch = Dvm.Experiment.Dvm { cached = false } in
      let off = Dvm.Experiment.run ~policy ~elide:false ~arch app in
      Analysis.Pass.clear ();
      let on = Dvm.Experiment.run ~policy ~elide:true ~arch app in
      let guards mode =
        let svc = Jit.Service.create () in
        List.iter
          (fun cf ->
            ignore (Jit.Service.compile_class ~elide:mode svc Jit.Arch.x86 cf))
          app.Workloads.Appgen.classes;
        svc.Jit.Service.guards_emitted
      in
      let g_off = guards false and g_on = guards true in
      let same_output =
        String.equal off.Dvm.Experiment.r_output on.Dvm.Experiment.r_output
      in
      if
        on.Dvm.Experiment.r_enforcement_checks
        < off.Dvm.Experiment.r_enforcement_checks
        && g_on < g_off && same_output
      then incr improved;
      (* Pin the per-app elision effect and the program-output digest:
         any rewriter or certifier change that alters served behavior
         shows up as a baseline diff here. *)
      bench_put spec.Workloads.Appgen.name
        (Printf.sprintf
           {|{"checks_off":%d,"checks_on":%d,"guards_off":%d,"guards_on":%d,"same_output":%b,"output_md5":"%s"}|}
           off.Dvm.Experiment.r_enforcement_checks
           on.Dvm.Experiment.r_enforcement_checks g_off g_on same_output
           (Dsig.Md5.hex_digest on.Dvm.Experiment.r_output));
      Printf.printf "%-11s %12d %12d %12d %12d %9b\n"
        spec.Workloads.Appgen.name off.Dvm.Experiment.r_enforcement_checks
        on.Dvm.Experiment.r_enforcement_checks g_off g_on same_output)
    Workloads.Apps.all_specs;
  bench_put "improved" (string_of_int !improved);
  Printf.printf
    "\n%d of 5 workloads run strictly fewer checks and carry strictly fewer\n\
     guards with elision on (bar: >= 3), outputs byte-identical.\n"
    !improved

(* --- Certify: translation validation of the rewriter. ---

   Every elided or hoisted check over the full 401-class workload set
   must be backed by a certificate the validator independently
   re-proves from the wire image; then the mutation harness corrupts
   rewriter output at a pinned seed and the verifier or certifier must
   kill (nearly) every mutant. Both halves are pure functions of the
   workload builds and the seed, so the BENCH file pins the whole
   certification surface: site counts, certificate counts, mutant
   sample and kill rate. *)

let certify_seed = 20260808L
let certify_mutants_per_class = 40
let certify_kill_bar = 0.9

let certify () =
  section "Certify: translation-validated rewriting + mutation kills";
  let rep = Dvm.Certification.certify_workloads () in
  let nfail = List.length rep.Dvm.Certification.rp_failures in
  print_string (Dvm.Certification.report_text rep);
  bench_put "certify" (Dvm.Certification.report_json rep);
  let m =
    Dvm.Certification.mutation_run ~small:true ~seed:certify_seed
      ~count:certify_mutants_per_class ()
  in
  let rate = Dvm.Certification.kill_rate m in
  print_string
    ("\n" ^ Dvm.Certification.mutation_text ~bar:certify_kill_bar m);
  bench_put "mutation" (Dvm.Certification.mutation_json m);
  if nfail > 0 || rate < certify_kill_bar then begin
    Printf.eprintf "certify: FAILED (failures=%d, kill rate %.3f)\n" nfail rate;
    exit 1
  end

(* --- Faults: availability under injected faults. ---

   The experiment §5's replication argument calls for but the paper
   never runs: startup latency through the proxy farm as the client's
   LAN loses packets, and the cost of a shard crash with and without a
   second shard to fail over to. Deterministic for the scenario seed:
   rerunning prints byte-identical tables. *)

let faults () =
  section "Faults: availability vs loss rate (jlex startup, seeded faults)";
  Printf.printf
    "Per-attempt timeout %.0f ms, %d attempts, backoff %.0f..%.0f ms, seed %d\n"
    (float_of_int Dvm.Availability.timeout_us /. 1e3)
    Dvm.Availability.max_attempts
    (float_of_int Dvm.Availability.base_backoff_us /. 1e3)
    (float_of_int Dvm.Availability.max_backoff_us /. 1e3)
    Dvm.Availability.default_seed;
  subsection "loss sweep";
  let loss =
    Dvm.Availability.sweep ~loss_pcts:[ 0.0; 1.0; 5.0; 10.0 ]
      ~replica_counts:[ 1; 2 ] ()
  in
  Dvm.Availability.print_table loss;
  bench_put "loss_sweep" (Dvm.Availability.points_json loss);
  subsection "shard 0 crash at t=400ms (down 2.5s, cache-cold restart)";
  let crash =
    Dvm.Availability.sweep ~crash:true ~loss_pcts:[ 1.0 ]
      ~replica_counts:[ 1; 2 ] ()
  in
  Dvm.Availability.print_table crash;
  bench_put "crash_sweep" (Dvm.Availability.points_json crash);
  List.iter
    (fun p ->
      if p.Dvm.Availability.av_degraded > 0 then
        Printf.printf
          "  %d replica(s): %d classes degraded (retry budget exhausted)\n"
          p.Dvm.Availability.av_replicas p.Dvm.Availability.av_degraded
      else
        Printf.printf "  %d replica(s): all classes served (%d failovers)\n"
          p.Dvm.Availability.av_replicas p.Dvm.Availability.av_failovers)
    crash;
  subsection "injected-fault trace (crash scenario, 2 replicas)";
  List.iter (Printf.printf "  %s\n")
    (List.nth crash 1).Dvm.Availability.av_trace;
  subsection "SLO monitor (crash scenario, 2 replicas, 1% loss)";
  let slo = Telemetry.Slo.create ~window_s:60 ~objective:0.99 () in
  let sp =
    Dvm.Availability.run ~slo ~crash:true ~loss_pct:1.0 ~replicas:2 ()
  in
  let rep = Telemetry.Slo.report slo ~now_us:sp.Dvm.Availability.av_startup_us in
  print_string (Telemetry.Slo.report_text rep);
  bench_put "slo" (Telemetry.Slo.report_json rep)

(* --- Farm: the sharded-proxy scaling experiment. --- *)

let farm () =
  section "Proxy farm: consistent-hash sharding, single-flight, shared L2";
  subsection "aggregate throughput vs shard count (caching off, 400 clients)";
  Printf.printf
    "(per-client state spreads over the shards; one proxy at 400 clients\n\
    \ is far past its 64 MB knee, four are comfortably under theirs)\n\n";
  Printf.printf "%7s %16s %12s %10s %9s\n" "Shards" "Throughput(B/s)"
    "Latency(ms)" "Completed" "CPU util";
  let worst =
    List.map
      (fun shards ->
        Dvm.Scaling.run_farm ~duration_s:20 ~clients:400 ~shards ())
      [ 1; 2; 4; 8 ]
  in
  List.iter
    (fun p ->
      Printf.printf "%7d %16.0f %12.0f %10d %9.2f\n" p.Dvm.Scaling.f_shards
        p.Dvm.Scaling.f_throughput_bytes_per_s
        (p.Dvm.Scaling.f_mean_latency_us /. 1000.0)
        p.Dvm.Scaling.f_requests_completed p.Dvm.Scaling.f_utilization)
    worst;
  bench_put "shard_sweep" (Dvm.Scaling.shard_sweep_json worst);
  (match worst with
  | one :: _ ->
    let four = List.nth worst 2 in
    Printf.printf "\n1 -> 4 shards: %.1fx aggregate throughput\n"
      (four.Dvm.Scaling.f_throughput_bytes_per_s
      /. one.Dvm.Scaling.f_throughput_bytes_per_s)
  | [] -> ());
  subsection "single-flight coalescing (shared popular set, caches on)";
  let slo = Telemetry.Slo.create ~window_s:20 ~objective:0.99 () in
  let cached =
    Dvm.Scaling.run_farm ~slo ~duration_s:20 ~clients:200 ~applet_count:8
      ~cache_capacity:(16 * 1024 * 1024) ~l2_capacity:(32 * 1024 * 1024)
      ~shards:4 ()
  in
  Printf.printf
    "4 shards, 200 clients, 8 popular applets: %d completions from %d\n\
     pipeline runs (%d requests coalesced into in-flight runs, %d L2 hits)\n"
    cached.Dvm.Scaling.f_requests_completed cached.Dvm.Scaling.f_pipeline_runs
    cached.Dvm.Scaling.f_coalesced cached.Dvm.Scaling.f_l2_hits;
  bench_put "coalesce" (Dvm.Scaling.coalesce_json cached);
  let rep = Telemetry.Slo.report slo ~now_us:(Simnet.Engine.sec 20) in
  subsection "SLO monitor (coalescing run)";
  print_string (Telemetry.Slo.report_text rep);
  bench_put "slo" (Telemetry.Slo.report_json rep)

(* --- Chaos: overload control under a scripted load spike. --- *)

let chaos () =
  section "Chaos: overload control under faults and a 3x load spike";
  let cfg = Dvm.Chaos.default_config in
  print_endline (Dvm.Chaos.config_banner cfg);
  subsection "overload control on vs off (same spike, same seed)";
  let cmp = Dvm.Chaos.spike_comparison cfg in
  Dvm.Chaos.print_outcome ~label:"control" cmp.Dvm.Chaos.cmp_control;
  Dvm.Chaos.print_outcome ~label:"baseline" cmp.Dvm.Chaos.cmp_baseline;
  Printf.printf
    "\ngoodput (in-deadline bytes/s) with control = %.2fx baseline (bar: \
     >= 2x)\n"
    cmp.Dvm.Chaos.cmp_goodput_ratio;
  bench_put "control" (Dvm.Chaos.outcome_json cmp.Dvm.Chaos.cmp_control);
  bench_put "baseline" (Dvm.Chaos.outcome_json cmp.Dvm.Chaos.cmp_baseline);
  bench_put "goodput_ratio"
    (Printf.sprintf "%.2f" cmp.Dvm.Chaos.cmp_goodput_ratio);
  subsection "invariants vs the fault-free reference run";
  let v = Dvm.Chaos.verify cfg in
  Dvm.Chaos.print_outcome ~label:"reference" v.Dvm.Chaos.v_reference;
  Dvm.Chaos.print_outcome ~label:"chaotic" v.Dvm.Chaos.v_chaotic;
  print_string ("\n" ^ Dvm.Chaos.verdict_text v);
  bench_put "reference" (Dvm.Chaos.outcome_json v.Dvm.Chaos.v_reference);
  bench_put "chaotic" (Dvm.Chaos.outcome_json v.Dvm.Chaos.v_chaotic);
  bench_put "invariants" (Dvm.Chaos.invariants_json v);
  subsection "injected-fault trace (replayable from the seed)";
  List.iter (Printf.printf "  %s\n")
    v.Dvm.Chaos.v_chaotic.Dvm.Chaos.co_fault_trace

(* --- Control: a replicated policy bump under partition and split
   brain. --- *)

let control () =
  section "Control plane: policy bump under partition and split brain";
  let cfg = Dvm.Chaos.default_control_config in
  print_endline (Dvm.Chaos.control_config_banner cfg);
  subsection "invariants vs the partition-free reference run";
  let w = Dvm.Chaos.verify_control cfg in
  Dvm.Chaos.print_control_outcome ~label:"reference" w.Dvm.Chaos.w_reference;
  Dvm.Chaos.print_control_outcome ~label:"chaotic" w.Dvm.Chaos.w_chaotic;
  let c = w.Dvm.Chaos.w_chaotic in
  print_string ("\n" ^ Dvm.Chaos.control_verdict_text w);
  bench_put "reference" (Dvm.Chaos.control_outcome_json w.Dvm.Chaos.w_reference);
  bench_put "chaotic" (Dvm.Chaos.control_outcome_json c);
  bench_put "invariants" (Dvm.Chaos.control_invariants_json w);
  subsection "injected-fault trace (replayable from the seed)";
  List.iter (Printf.printf "  %s\n") c.Dvm.Chaos.cn_fault_trace;
  if not (Dvm.Chaos.control_ok w) then begin
    Printf.eprintf "control: control-plane invariant violated\n";
    exit 1
  end

(* --- Perf: wall-clock trajectory against the pinned baselines. ---

   Re-runs every phase in [pinned], each writing BENCH_<phase>.json,
   then diffs each fresh file against the baseline that was on disk
   (i.e. the committed one, in a clean tree) — ignoring only the
   wall_ms line, which is host time. Any other difference is
   digest/metric drift: an optimization changed behaviour, and the
   phase exits non-zero.
   When the pin holds, the wall_ms columns show the speed trajectory:
   baseline milliseconds vs this run, per phase. *)

let read_file path =
  match open_in_bin path with
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some s
  | exception Sys_error _ -> None

let is_wall_ms_line l =
  let key = "\"wall_ms\"" in
  let n = String.length l and m = String.length key in
  let rec go i = i + m <= n && (String.sub l i m = key || go (i + 1)) in
  go 0

let strip_wall_ms text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> not (is_wall_ms_line l))
  |> String.concat "\n"

let wall_ms_of text =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         if is_wall_ms_line l then
           (* the key has no digits, so the line's digits are the value *)
           String.to_seq l
           |> Seq.filter (fun c -> c >= '0' && c <= '9')
           |> String.of_seq |> int_of_string_opt
         else None)

(* Each summary series and the metrics object sit on their own line
   of a BENCH file, keyed by the line's first quoted string; a drift
   names the keys whose lines differ, so "series identical, counters
   moved" reads as a drift in [metrics] alone. *)
let drifted_keys base now =
  let keyed text =
    String.split_on_char '\n' (strip_wall_ms text)
    |> List.filter_map (fun l ->
           match String.split_on_char '"' l with
           | _ :: key :: _ -> Some (key, l)
           | _ -> None)
  in
  let b = keyed base and n = keyed now in
  List.fold_left
    (fun acc (k, _) -> if List.mem k acc then acc else k :: acc)
    [] (b @ n)
  |> List.rev
  |> List.filter (fun k -> List.assoc_opt k b <> List.assoc_opt k n)

let perf () =
  section "Perf: wall-clock vs pinned BENCH baselines";
  (* hists:false pins counters and gauges only. elide and paper need
     it: their DVM clients run apps on the host between request_sync
     drains, so client.fetch_us and jvm.class_load_us time wall-clock
     spans. control's histograms are all virtual-clock or model cost;
     it keeps the flag so its pinned file keeps its shape. *)
  let pinned =
    [
      ("faults", faults, true); ("farm", farm, true); ("chaos", chaos, true);
      ("control", control, false); ("elide", elide, false);
      ("certify", certify, true); ("paper", paper, false);
    ]
  in
  let baselines =
    List.map
      (fun (n, _, _) -> (n, read_file (Printf.sprintf "BENCH_%s.json" n)))
      pinned
  in
  List.iter (fun (n, f, hists) -> with_phase ~json:true ~hists n f) pinned;
  Printf.printf "\n%-8s %9s %9s %8s  %s\n" "phase" "base(ms)" "now(ms)"
    "speedup" "pin";
  let drift = ref false in
  List.iter
    (fun (name, baseline) ->
      let fresh = read_file (Printf.sprintf "BENCH_%s.json" name) in
      match (baseline, fresh) with
      | None, _ ->
        Printf.printf "%-8s %9s %9s %8s  %s\n" name "-" "-" "-"
          "no baseline on disk (first run? commit the file)"
      | _, None ->
        drift := true;
        Printf.printf "%-8s %9s %9s %8s  %s\n" name "-" "-" "-"
          "DRIFT (phase wrote no file)"
      | Some base, Some now ->
        let pinned_ok = String.equal (strip_wall_ms base) (strip_wall_ms now) in
        if not pinned_ok then drift := true;
        let fmt_ms = function Some ms -> string_of_int ms | None -> "-" in
        let speedup =
          match (wall_ms_of base, wall_ms_of now) with
          | Some b, Some n when n > 0 ->
            Printf.sprintf "%.2fx" (float_of_int b /. float_of_int n)
          | _ -> "-"
        in
        Printf.printf "%-8s %9s %9s %8s  %s\n" name
          (fmt_ms (wall_ms_of base))
          (fmt_ms (wall_ms_of now))
          speedup
          (if pinned_ok then "ok"
           else "DRIFT: " ^ String.concat ", " (drifted_keys base now)))
    baselines;
  if !drift then begin
    Printf.eprintf
      "\n\
       perf: BENCH baseline drift — served bytes, digests or metrics \
       changed.\n\
       Inspect with: git diff -I '\"wall_ms\"' %s\n"
      (String.concat " "
         (List.map (fun (n, _, _) -> Printf.sprintf "BENCH_%s.json" n) pinned));
    exit 1
  end

let all () =
  with_phase "fig5" fig5;
  with_phase ~json:true ~hists:false "paper" paper;
  with_phase "fig9" fig9;
  with_phase "applets" applets;
  with_phase "fig11" fig11;
  with_phase "ablations" ablations;
  with_phase ~json:true ~hists:false "elide" elide;
  with_phase ~json:true "certify" certify;
  with_phase ~json:true "faults" faults;
  with_phase ~json:true "farm" farm;
  with_phase ~json:true "chaos" chaos;
  with_phase ~json:true ~hists:false "control" control

let () =
  let target = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match target with
  | "fig5" -> with_phase "fig5" fig5
  | "fig6" -> with_phase "fig6" fig6
  | "fig7" -> with_phase "fig7" fig7
  | "fig8" -> with_phase "fig8" fig8
  | "fig9" -> with_phase "fig9" fig9
  | "applets" -> with_phase "applets" applets
  | "fig10" -> with_phase "fig10" fig10
  | "fig11" -> with_phase "fig11" fig11
  | "fig12" -> with_phase "fig12" fig12
  | "ablations" -> with_phase "ablations" ablations
  | "elide" -> with_phase ~json:true ~hists:false "elide" elide
  | "certify" -> with_phase ~json:true "certify" certify
  | "faults" -> with_phase ~json:true "faults" faults
  | "farm" -> with_phase ~json:true "farm" farm
  | "chaos" -> with_phase ~json:true "chaos" chaos
  | "control" -> with_phase ~json:true ~hists:false "control" control
  | "paper" -> with_phase ~json:true ~hists:false "paper" paper
  | "perf" -> perf ()
  | "all" -> all ()
  | other ->
    Printf.eprintf
      "unknown target %S (expected fig5..fig12, applets, ablations, elide, \
       certify, faults, farm, chaos, control, paper, perf, all)\n"
      other;
    exit 1
