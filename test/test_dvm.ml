(* Integration tests for the end-to-end DVM: the Figure 6 architecture
   comparison invariants, the security microbenchmark mechanics behind
   Figure 9, the Figure 10 scaling shape, and the full-system
   composition (client + proxy + services + console). *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile

let check = Alcotest.check
let fail = Alcotest.fail

(* One small app shared across the architecture tests. *)
let app = lazy (Workloads.Apps.build Workloads.Apps.jlex)

let results =
  lazy
    (List.map
       (fun arch -> (arch, Dvm.Experiment.run ~arch (Lazy.force app)))
       [
         Dvm.Experiment.Monolithic;
         Dvm.Experiment.Dvm { cached = false };
         Dvm.Experiment.Dvm { cached = true };
       ])

let find arch = List.assoc arch (Lazy.force results)

let test_outputs_identical_across_architectures () =
  match Lazy.force results with
  | (_, r0) :: rest ->
    List.iter
      (fun (_, r) ->
        check Alcotest.string "same output" r0.Dvm.Experiment.r_output
          r.Dvm.Experiment.r_output)
      rest;
    check Alcotest.bool "runs produced output" true
      (String.length r0.Dvm.Experiment.r_output > 0)
  | [] -> fail "no results"

let test_fig6_invariants () =
  let mono = find Dvm.Experiment.Monolithic in
  let uncached = find (Dvm.Experiment.Dvm { cached = false }) in
  let cached = find (Dvm.Experiment.Dvm { cached = true }) in
  let w r = Int64.to_float r.Dvm.Experiment.r_wall_us in
  (* First invocation under a DVM is slower (the paper: ~11% average);
     subsequent (cached) invocations are faster than monolithic. *)
  check Alcotest.bool "uncached DVM slower than monolithic" true
    (w uncached > w mono);
  check Alcotest.bool "overhead within 2-25%" true
    (let ov = (w uncached -. w mono) /. w mono in
     ov > 0.02 && ov < 0.25);
  check Alcotest.bool "cached DVM faster than monolithic" true
    (w cached < w mono);
  check Alcotest.bool "cached skips proxy work" true
    (Int64.compare cached.Dvm.Experiment.r_proxy_us
       uncached.Dvm.Experiment.r_proxy_us
    < 0)

let test_fig7_fig8_invariants () =
  let mono = find Dvm.Experiment.Monolithic in
  let dvm = find (Dvm.Experiment.Dvm { cached = false }) in
  (* The client-side verification work: all static checks on the
     monolithic client; only deferred link checks on the DVM client. *)
  check Alcotest.bool "monolithic does static checks on client" true
    (mono.Dvm.Experiment.r_static_checks > 10_000);
  check Alcotest.bool "DVM client does only dynamic checks" true
    (dvm.Dvm.Experiment.r_dynamic_checks > 0
    && dvm.Dvm.Experiment.r_dynamic_checks
       < mono.Dvm.Experiment.r_static_checks / 100)

let test_tampered_class_rejected_end_to_end () =
  (* Flip bytes in one class at the origin; the DVM client must either
     fail to load it or reject it — never execute corrupted code to a
     wrong answer silently. This exercises origin -> proxy -> verifier
     -> error class -> client. *)
  let app = Lazy.force app in
  let reference = (find Dvm.Experiment.Monolithic).Dvm.Experiment.r_output in
  let orig_origin = Workloads.Appgen.origin app in
  let victim =
    (* a worker class, not the entry point *)
    List.find
      (fun c ->
        c.CF.name <> app.Workloads.Appgen.entry
        && String.length c.CF.name > 6)
      app.Workloads.Appgen.classes
  in
  let corrupt bytes =
    let b = Bytes.of_string bytes in
    (* corrupt a code region byte deep in the file *)
    let pos = Bytes.length b * 3 / 4 in
    Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor 0xff);
    Bytes.to_string b
  in
  let origin name =
    match orig_origin name with
    | Some bytes when String.equal name victim.CF.name -> Some (corrupt bytes)
    | other -> other
  in
  let oracle = Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes ()) in
  let engine = Simnet.Engine.create () in
  let proxy =
    Proxy.create engine ~origin
      ~origin_latency:(fun _ -> 0L)
      ~filters:[ Verifier.Static_verifier.filter ~oracle () ]
      ()
  in
  let vm = Jvm.Bootlib.fresh_vm ~provider:(Proxy.provider proxy) () in
  ignore (Verifier.Rt_verifier.install vm);
  match Jvm.Interp.run_main vm app.Workloads.Appgen.entry with
  | Ok () ->
    (* Only acceptable if the corruption was harmless: output must
       match the reference exactly. *)
    check Alcotest.string "harmless corruption" reference (Jvm.Vmstate.output vm)
  | Error v ->
    let cls = Jvm.Value.class_of v in
    check Alcotest.bool ("failure is a linkage error: " ^ cls) true
      (Jvm.Classreg.is_subclass vm.Jvm.Vmstate.reg ~sub:cls
         ~super:"java/lang/LinkageError")
  | exception Jvm.Vmstate.Runtime_fault msg ->
    fail ("corrupted code executed and faulted: " ^ msg)

(* --- Figure 9 mechanics. --- *)

let test_fig9_check_costs () =
  (* DVM: first check pays the policy download; later checks are cached
     lookups costing ~cost_cached_check. *)
  let policy =
    Security.Policy_xml.parse
      {|<policy default="deny">
          <domain name="d"><grant permission="property.get"/></domain>
        </policy>|}
  in
  let server = Security.Server.create policy in
  let vm = Jvm.Bootlib.fresh_vm () in
  let enf = Security.Enforcement.install vm ~server ~sid:"d" in
  let cost_before = vm.Jvm.Vmstate.native_cost in
  check Alcotest.bool "allowed" true
    (Security.Enforcement.allowed ~vm enf "property.get");
  let first = Int64.of_int (vm.Jvm.Vmstate.native_cost - cost_before) in
  let cost_before = vm.Jvm.Vmstate.native_cost in
  ignore (Security.Enforcement.allowed ~vm enf "property.get");
  let second = Int64.of_int (vm.Jvm.Vmstate.native_cost - cost_before) in
  check Alcotest.int64 "download cost" Security.Enforcement.cost_policy_download first;
  check Alcotest.int64 "cached cost" Security.Enforcement.cost_cached_check second;
  (* The DVM cached check is far cheaper than the JDK's stack
     introspection for file open (Figure 9's 300x case). *)
  check Alcotest.bool "300x cheaper than JDK openFile" true
    (Int64.to_int second * 300 <= Int64.to_int Dvm.Costs.jdk_overhead_open_file)

(* --- Figure 10 shape. --- *)

let test_fig10_shape () =
  let pts =
    List.map
      (fun clients -> Dvm.Scaling.run_farm ~duration_s:15 ~shards:1 ~clients ())
      [ 50; 150; 250; 300 ]
  in
  match pts with
  | [ p50; p150; p250; p300 ] ->
    let t p = p.Dvm.Scaling.f_throughput_bytes_per_s in
    check Alcotest.bool "throughput grows to 250" true
      (t p50 < t p150 && t p150 < t p250);
    check Alcotest.bool "roughly linear to 150" true
      (t p150 > 2.0 *. t p50);
    check Alcotest.bool "degrades past 250" true (t p300 < t p250);
    check Alcotest.bool "latency per KB roughly constant in range" true
      (p150.Dvm.Scaling.f_mean_latency_s_per_kb
       /. p50.Dvm.Scaling.f_mean_latency_s_per_kb
      < 2.0)
  | _ -> fail "sweep size"

(* --- Applet study sanity. --- *)

let test_applet_study () =
  let st = Dvm.Applet_study.run () in
  check Alcotest.bool "internet latency ~2.2s" true
    (st.Dvm.Applet_study.mean_internet_ms > 1_500.0
    && st.Dvm.Applet_study.mean_internet_ms < 3_500.0);
  check Alcotest.bool "large deviation" true
    (st.Dvm.Applet_study.stddev_internet_ms > st.Dvm.Applet_study.mean_internet_ms /. 2.0);
  check Alcotest.bool "uncached overhead small vs WAN" true
    (st.Dvm.Applet_study.overhead_percent < 15.0);
  check Alcotest.bool "cached much faster than internet" true
    (st.Dvm.Applet_study.mean_cached_ms
    < st.Dvm.Applet_study.mean_internet_ms /. 4.0)

(* --- Console-driven administration. --- *)

let test_banned_app_refused () =
  let console = Monitor.Console.create () in
  Monitor.Console.ban_app console ~app:"Hello" ~reason:"rogue" ~time:0L;
  let hello =
    B.class_ "Hello"
      [ B.meth ~flags:[ CF.Public; CF.Static ] "main" "()V" [ B.Return ] ]
  in
  let bytes = Bytecode.Encode.class_to_bytes hello in
  (* A DVM client loader consults the console's ban list. *)
  let provider name =
    match Monitor.Console.is_banned console name with
    | Some _ -> None
    | None -> if name = "Hello" then Some bytes else None
  in
  let vm = Jvm.Bootlib.fresh_vm ~provider () in
  match Jvm.Interp.run_main vm "Hello" with
  | Ok () -> fail "banned app ran"
  | Error v ->
    check Alcotest.string "refused" "java/lang/NoClassDefFoundError"
      (Jvm.Value.class_of v)

let () =
  Alcotest.run "dvm"
    [
      ( "architectures",
        [
          Alcotest.test_case "outputs identical" `Slow
            test_outputs_identical_across_architectures;
          Alcotest.test_case "fig6 invariants" `Slow test_fig6_invariants;
          Alcotest.test_case "fig7/fig8 invariants" `Slow
            test_fig7_fig8_invariants;
          Alcotest.test_case "tampered class rejected" `Slow
            test_tampered_class_rejected_end_to_end;
        ] );
      ( "security",
        [ Alcotest.test_case "fig9 check costs" `Quick test_fig9_check_costs ] );
      ( "scaling",
        [
          Alcotest.test_case "fig10 shape" `Slow test_fig10_shape;
          Alcotest.test_case "applet study" `Slow test_applet_study;
        ] );
      ( "administration",
        [ Alcotest.test_case "banned app refused" `Quick test_banned_app_refused ] );
    ]
