(* Tests for the fault-injection subsystem: deterministic fault
   plans, link loss and jitter, host crash/restart semantics, and the
   availability experiment built from them on the proxy farm (whose
   own failover is tested in test_farm). *)

let check = Alcotest.check
let fail = Alcotest.fail

(* --- Fault plans. --- *)

let test_plan_determinism () =
  let a = Simnet.Fault.create ~seed:7 in
  let b = Simnet.Fault.create ~seed:7 in
  for i = 1 to 200 do
    check Alcotest.bool
      (Printf.sprintf "flip %d agrees" i)
      (Simnet.Fault.flip a ~p:0.3) (Simnet.Fault.flip b ~p:0.3);
    check Alcotest.int64
      (Printf.sprintf "jitter %d agrees" i)
      (Simnet.Fault.jitter_us a ~max_us:1000)
      (Simnet.Fault.jitter_us b ~max_us:1000)
  done;
  let draws seed =
    let p = Simnet.Fault.create ~seed in
    Array.init 64 (fun _ -> Simnet.Fault.flip p ~p:0.5)
  in
  check Alcotest.bool "different seeds draw different streams" false
    (draws 7 = draws 8)

let test_threshold_monotone () =
  (* The threshold draw: any drop at 5% is also a drop at 25% while
     the streams stay aligned, so loss-rate sweeps are monotone. *)
  let lo = Simnet.Fault.create ~seed:3 in
  let hi = Simnet.Fault.create ~seed:3 in
  let lo_drops = ref 0 in
  for _ = 1 to 400 do
    let l = Simnet.Fault.flip lo ~p:0.05 in
    let h = Simnet.Fault.flip hi ~p:0.25 in
    if l then incr lo_drops;
    if l && not h then fail "a 5% drop was not a 25% drop"
  done;
  check Alcotest.bool "low-rate stream drew some drops" true (!lo_drops > 0)

(* --- Link loss and jitter. --- *)

let run_lossy_workload seed =
  let e = Simnet.Engine.create () in
  let link = Simnet.Link.ethernet_10mb e in
  let plan = Simnet.Fault.create ~seed in
  Simnet.Link.set_faults link ~plan ~drop_prob:0.3 ~jitter_max_us:2_000 ();
  let log = ref [] in
  for i = 1 to 40 do
    Simnet.Link.transfer link ~bytes:(500 * i)
      ~on_drop:(fun () ->
        log :=
          Printf.sprintf "%Ld drop %d" (Simnet.Engine.now e) i :: !log)
      (fun () ->
        log := Printf.sprintf "%Ld ok %d" (Simnet.Engine.now e) i :: !log)
  done;
  Simnet.Engine.run e;
  (List.rev !log, Simnet.Fault.trace plan, link.Simnet.Link.drops)

let test_link_fault_determinism () =
  (* The ISSUE's acceptance test: the same fault seed produces an
     identical simnet trace — delivery times, drop decisions and the
     fault plan's own record all repeat exactly. *)
  let a = run_lossy_workload 42 in
  let b = run_lossy_workload 42 in
  check Alcotest.bool "identical traces for identical seeds" true (a = b);
  let _, trace, drops = a in
  check Alcotest.bool "the profile dropped something" true (drops > 0);
  check Alcotest.int "every drop is in the fault trace" drops
    (List.length trace);
  let _, _, drops' = run_lossy_workload 43 in
  check Alcotest.bool "another seed draws a different loss pattern" true
    (drops <> drops' || a <> run_lossy_workload 43)

let test_drop_occupies_wire () =
  let e = Simnet.Engine.create () in
  let link = Simnet.Link.ethernet_10mb e in
  let plan = Simnet.Fault.create ~seed:1 in
  Simnet.Link.set_faults link ~plan ~drop_prob:1.0 ();
  let dropped_at = ref (-1L) in
  Simnet.Link.transfer link ~bytes:1250
    ~on_drop:(fun () -> dropped_at := Simnet.Engine.now e)
    (fun () -> fail "delivered despite drop_prob 1.0");
  (* The loss decision is drawn at submit time, so clearing the
     profile now leaves the first transfer doomed and the second
     clean — but the second still queues behind the lost bytes. *)
  Simnet.Link.clear_faults link;
  let ok_at = ref (-1L) in
  Simnet.Link.transfer link ~bytes:1250 (fun () ->
      ok_at := Simnet.Engine.now e);
  Simnet.Engine.run e;
  (* 1250 B at 10 Mb/s = 1 ms tx + 500 µs latency *)
  check Alcotest.int64 "on_drop at the would-be arrival" 1500L !dropped_at;
  check Alcotest.int64 "lost transfer still occupied the wire" 2500L !ok_at;
  check Alcotest.int "drop counted" 1 link.Simnet.Link.drops

(* --- Host crash/restart. --- *)

let test_host_crash_semantics () =
  let e = Simnet.Engine.create () in
  let h = Simnet.Host.create e ~name:"h" in
  Simnet.Host.allocate h 1000;
  let ok = ref 0 in
  let failed = ref 0 in
  Simnet.Host.compute h
    ~on_fail:(fun () -> incr failed)
    ~cost_us:1000L
    (fun () -> incr ok);
  (* crash mid-flight: the queued completion is abandoned *)
  Simnet.Engine.schedule_at e 500L (fun () -> Simnet.Host.crash h);
  Simnet.Engine.run e;
  check Alcotest.int "in-flight work abandoned" 0 !ok;
  check Alcotest.int "on_fail fired for in-flight work" 1 !failed;
  (* a down host refuses new work *)
  Simnet.Host.compute h
    ~on_fail:(fun () -> incr failed)
    ~cost_us:10L
    (fun () -> incr ok);
  Simnet.Engine.run e;
  check Alcotest.int "down host refuses work" 2 !failed;
  check Alcotest.bool "host reports down" false (Simnet.Host.is_up h);
  (* restart: partial memory retention, idle CPU, work completes *)
  Simnet.Host.restart ~mem_retained:0.25 h;
  check Alcotest.bool "host reports up" true (Simnet.Host.is_up h);
  check Alcotest.int "only retained memory survives" 250
    h.Simnet.Host.mem_used;
  Simnet.Host.compute h ~cost_us:10L (fun () -> incr ok);
  Simnet.Engine.run e;
  check Alcotest.int "restarted host computes" 1 !ok

let test_fault_schedule () =
  let e = Simnet.Engine.create () in
  let h = Simnet.Host.create e ~name:"p" in
  let plan = Simnet.Fault.create ~seed:5 in
  let restarted = ref false in
  Simnet.Fault.schedule_host_faults plan h
    ~on_restart:(fun () -> restarted := true)
    ~schedule:[ (1000L, 500L) ]
    ();
  let during = ref true in
  let after = ref false in
  Simnet.Engine.schedule_at e 1200L (fun () -> during := Simnet.Host.is_up h);
  Simnet.Engine.schedule_at e 1600L (fun () -> after := Simnet.Host.is_up h);
  Simnet.Engine.run e;
  check Alcotest.bool "down during the outage" false !during;
  check Alcotest.bool "up after the restart" true !after;
  check Alcotest.bool "on_restart ran" true !restarted;
  check Alcotest.int "crash recorded" 1 (Simnet.Fault.crashes plan);
  check Alcotest.int "restart recorded" 1 (Simnet.Fault.restarts plan);
  check Alcotest.int "both faults in the trace" 2
    (List.length (Simnet.Fault.trace plan))

(* --- The availability experiment. --- *)

(* --- Seed determinism as a property, not an example. ---

   The replayability contract behind the chaos harness: every run is a
   pure function of its seed. Checked over arbitrary seeds, not just
   the ones the example tests happen to use. *)

let prop_fault_trace_deterministic =
  QCheck.Test.make ~name:"equal seeds draw equal fault traces" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let draw () =
        let p = Simnet.Fault.create ~seed in
        let e = Simnet.Engine.create () in
        let link = Simnet.Link.ethernet_10mb e in
        Simnet.Link.set_faults link ~plan:p ~drop_prob:0.2
          ~jitter_max_us:1_000 ();
        for i = 1 to 25 do
          Simnet.Link.transfer link ~bytes:(400 * i) (fun () -> ())
        done;
        Simnet.Engine.run e;
        ( Simnet.Fault.trace p,
          Array.init 16 (fun _ -> Simnet.Fault.range p ~max:1000) )
      in
      draw () = draw ())

let prop_availability_deterministic =
  QCheck.Test.make ~name:"equal seeds give equal availability outcomes"
    ~count:8
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let run () = Dvm.Availability.run ~seed ~loss_pct:5.0 ~replicas:2 () in
      run () = run ())

let test_availability_deterministic () =
  let a = Dvm.Availability.run ~loss_pct:5.0 ~replicas:1 () in
  let b = Dvm.Availability.run ~loss_pct:5.0 ~replicas:1 () in
  check Alcotest.bool "identical runs for identical seeds" true (a = b);
  check Alcotest.bool "losses were injected" true
    (a.Dvm.Availability.av_drops > 0);
  check Alcotest.bool "losses forced retries" true
    (a.Dvm.Availability.av_retries > 0)

let test_availability_loss_slows_startup () =
  let at loss =
    (Dvm.Availability.run ~loss_pct:loss ~replicas:1 ())
      .Dvm.Availability.av_startup_us
  in
  let s0 = at 0.0 and s5 = at 5.0 and s10 = at 10.0 in
  check Alcotest.bool "5% loss slower than lossless" true (s5 > s0);
  check Alcotest.bool "10% loss no faster than 5%" true (s10 >= s5)

(* Each class settles exactly once: as a serve or as a degradation
   after its last attempt. *)
let test_availability_accounting () =
  List.iter
    (fun (crash, replicas, loss_pct) ->
      let p = Dvm.Availability.run ~crash ~loss_pct ~replicas () in
      let label what =
        Printf.sprintf "loss %.0f%%, %d replica(s), crash %b: %s" loss_pct
          replicas crash what
      in
      check Alcotest.int
        (label "every attempt is a class's first or a retry")
        (p.Dvm.Availability.av_classes + p.Dvm.Availability.av_retries)
        p.Dvm.Availability.av_requests;
      check Alcotest.bool
        (label "each degraded class spent all its retries")
        true
        (p.Dvm.Availability.av_degraded * (Dvm.Availability.max_attempts - 1)
        <= p.Dvm.Availability.av_retries))
    (List.concat_map
       (fun crash ->
         List.concat_map
           (fun replicas ->
             List.map (fun loss -> (crash, replicas, loss)) [ 0.0; 5.0; 10.0 ])
           [ 1; 2 ])
       [ false; true ])

let counter name =
  Option.value ~default:0L
    (List.assoc_opt name (Telemetry.counters Telemetry.default))

let test_availability_crash_recovery () =
  let one = Dvm.Availability.run ~crash:true ~loss_pct:0.0 ~replicas:1 () in
  Telemetry.enable Telemetry.default;
  let before = counter "farm.failovers" in
  let two =
    Fun.protect
      ~finally:(fun () -> Telemetry.disable Telemetry.default)
      (fun () -> Dvm.Availability.run ~crash:true ~loss_pct:0.0 ~replicas:2 ())
  in
  (* One failover path: the farm counts every failover, under its own
     name, and nothing else does. *)
  check Alcotest.int64 "farm.failovers grows by the run's failovers"
    (Int64.of_int two.Dvm.Availability.av_failovers)
    (Int64.sub (counter "farm.failovers") before);
  check Alcotest.bool "no proxy.failovers counter" false
    (List.mem_assoc "proxy.failovers" (Telemetry.counters Telemetry.default));
  check Alcotest.bool "a lone crashed proxy degrades classes" true
    (one.Dvm.Availability.av_degraded > 0);
  check Alcotest.int "a second replica recovers every class" 0
    two.Dvm.Availability.av_degraded;
  check Alcotest.bool "recovery happened via failover" true
    (two.Dvm.Availability.av_failovers > 0);
  check Alcotest.bool "failover beats waiting out the outage" true
    (two.Dvm.Availability.av_startup_us < one.Dvm.Availability.av_startup_us);
  let has_fault kind =
    List.exists
      (fun line ->
        match String.index_opt line ' ' with
        | Some i ->
          String.sub line (i + 1) (String.length line - i - 1)
          = kind ^ " shard0"
        | None -> false)
      one.Dvm.Availability.av_trace
  in
  check Alcotest.bool "crash in the fault trace" true (has_fault "crash");
  check Alcotest.bool "restart in the fault trace" true (has_fault "restart")

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "determinism" `Quick test_plan_determinism;
          Alcotest.test_case "threshold monotone" `Quick
            test_threshold_monotone;
        ] );
      ( "link",
        [
          Alcotest.test_case "seeded trace determinism" `Quick
            test_link_fault_determinism;
          Alcotest.test_case "drop occupies wire" `Quick
            test_drop_occupies_wire;
        ] );
      ( "host",
        [
          Alcotest.test_case "crash semantics" `Quick
            test_host_crash_semantics;
          Alcotest.test_case "fault schedule" `Quick test_fault_schedule;
        ] );
      ( "availability",
        [
          Alcotest.test_case "deterministic" `Quick
            test_availability_deterministic;
          Alcotest.test_case "loss slows startup" `Quick
            test_availability_loss_slows_startup;
          Alcotest.test_case "crash recovery" `Quick
            test_availability_crash_recovery;
          Alcotest.test_case "attempt accounting" `Quick
            test_availability_accounting;
        ] );
      ( "seed-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fault_trace_deterministic;
            prop_availability_deterministic;
          ] );
    ]
