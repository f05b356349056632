(* Acceptance tests for the overload-control layer, driven through
   the chaos harness: the goodput bar under the scripted 3x spike, the
   three chaos invariants, seed replayability, and the serve-stale
   brownout and hedging behaviours the sessions implement.

   The scenario is the pinned [default_config]: the simulation is
   deterministic, so these are exact assertions, not statistical
   ones. A smaller configuration is used where the full 40 s run is
   not needed. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* One shared run of the acceptance configuration: the spike
   comparison and the invariant verdict both come from it. *)
let acceptance = lazy (Dvm.Chaos.spike_comparison Dvm.Chaos.default_config)
let verdict = lazy (Dvm.Chaos.verify Dvm.Chaos.default_config)

let test_goodput_bar () =
  let cmp = Lazy.force acceptance in
  Printf.printf "goodput: control %.0f B/s, baseline %.0f B/s (%.2fx)\n"
    cmp.Dvm.Chaos.cmp_control.Dvm.Chaos.co_goodput_bps
    cmp.Dvm.Chaos.cmp_baseline.Dvm.Chaos.co_goodput_bps
    cmp.Dvm.Chaos.cmp_goodput_ratio;
  check Alcotest.bool "overload control doubles goodput under the spike" true
    (cmp.Dvm.Chaos.cmp_goodput_ratio >= 2.0);
  (* the controls actually engaged: shedding, retries and breaker
     trips all fired during the spike *)
  let c = cmp.Dvm.Chaos.cmp_control in
  let t = c.Dvm.Chaos.co_clients in
  check Alcotest.bool "admission shed requests" true
    (t.Dvm.Client.Session.tl_overloaded_seen > 0);
  check Alcotest.bool "clients retried" true (t.tl_retries > 0);
  check Alcotest.bool "breakers tripped" true
    (c.Dvm.Chaos.co_breaker_trips > 0);
  check Alcotest.bool "hedges fired" true (t.tl_hedges > 0);
  (* and the baseline had none of them *)
  let b = cmp.Dvm.Chaos.cmp_baseline.Dvm.Chaos.co_clients in
  check Alcotest.int "baseline saw no shedding" 0
    b.Dvm.Client.Session.tl_overloaded_seen;
  check Alcotest.int "baseline never retried" 0 b.tl_retries;
  check Alcotest.int "baseline never hedged" 0 b.tl_hedges

let test_no_deadline_violations () =
  let cmp = Lazy.force acceptance in
  (* zero in BOTH arms: the client-side deadline drop is what makes
     "zero late serves" hold by construction, control or not *)
  let late o =
    o.Dvm.Chaos.co_clients.Dvm.Client.Session.tl_deadline_violations
  in
  check Alcotest.int "control never served past a deadline" 0
    (late cmp.Dvm.Chaos.cmp_control);
  check Alcotest.int "baseline never served past a deadline" 0
    (late cmp.Dvm.Chaos.cmp_baseline)

let test_invariants_hold () =
  let v = Lazy.force verdict in
  check Alcotest.bool "served bytes digest-identical to fault-free run" true
    v.Dvm.Chaos.v_digests_ok;
  check Alcotest.bool "no serve outlived its deadline" true
    v.Dvm.Chaos.v_no_late_serves;
  check Alcotest.bool "throughput recovered after faults cleared" true
    v.Dvm.Chaos.v_recovered;
  check Alcotest.bool "verdict rolls up" true (Dvm.Chaos.ok v);
  (* the chaotic run was actually chaotic *)
  let c = v.Dvm.Chaos.v_chaotic in
  check Alcotest.bool "faults were injected" true
    (List.length c.Dvm.Chaos.co_fault_trace > 0);
  check Alcotest.bool "every applet key matches the reference digests" true
    (List.for_all
       (fun (k, d) ->
         match List.assoc_opt k v.Dvm.Chaos.v_reference.Dvm.Chaos.co_digests with
         | Some d' -> String.equal d d'
         | None -> true)
       c.Dvm.Chaos.co_digests)

(* A real class body for the session tests: the proxy pipeline parses
   whatever the origin serves, so the origin must serve a well-formed
   class. *)
let body =
  Bytecode.Encode.class_to_bytes
    (Bytecode.Builder.class_ "Hello"
       [
         Bytecode.Builder.meth
           ~flags:[ Bytecode.Classfile.Public; Bytecode.Classfile.Static ]
           "main" "()V"
           [ Bytecode.Builder.Return ];
       ])

let tiny_farm engine =
  let pool =
    Array.init 2 (fun i ->
        Proxy.create engine
          ~host_name:(Printf.sprintf "shard%d" i)
          ~origin:(fun _ -> Some body)
          ~origin_latency:(fun _ -> 0L)
          ~filters:[] ())
  in
  (Proxy.Farm.create engine pool, pool)

(* What the pipeline emits for [body]: fetch it once through a
   healthy farm so the stale-vs-fresh comparisons are exact. *)
let served_body =
  lazy
    (let engine = Simnet.Engine.create () in
     let farm, _ = tiny_farm engine in
     let got = ref None in
     Proxy.Farm.request farm ~cls:"probe/Body" (fun r -> got := Some r);
     Simnet.Engine.run engine;
     match !got with
     | Some (Proxy.Bytes b) -> b
     | _ -> failwith "tiny farm did not serve the probe")

(* A small configuration for the fast behavioural tests. *)
let small =
  {
    Dvm.Chaos.default_config with
    Dvm.Chaos.ch_clients = 12;
    ch_duration_s = 12;
    ch_spike_start_s = 3;
    ch_spike_len_s = 5;
    ch_crashes = 1;
    ch_loss_pct = 1.0;
  }

let test_seed_replayable () =
  let a = Dvm.Chaos.run small and b = Dvm.Chaos.run small in
  check Alcotest.string "engine traces digest-identical"
    a.Dvm.Chaos.co_trace_digest b.Dvm.Chaos.co_trace_digest;
  check
    (Alcotest.list Alcotest.string)
    "fault traces identical" a.Dvm.Chaos.co_fault_trace
    b.Dvm.Chaos.co_fault_trace;
  check Alcotest.bool "whole outcomes identical" true (a = b);
  let c = Dvm.Chaos.run { small with Dvm.Chaos.ch_seed = small.Dvm.Chaos.ch_seed + 1 } in
  check Alcotest.bool "a different seed diverges" false
    (String.equal a.Dvm.Chaos.co_trace_digest c.Dvm.Chaos.co_trace_digest)

let test_brownout_serves_stale () =
  (* All shards dead mid-run: sessions that have a fresh copy archived
     brown out to it instead of failing, and stale serves are counted
     apart from fresh ones. *)
  let engine = Simnet.Engine.create () in
  let farm, pool = tiny_farm engine in
  let session =
    Dvm.Client.Session.create ~budget_us:100_000L
      ~stale_key:Dvm.Chaos.stale_key engine farm
  in
  let got = ref [] in
  let fetch name at =
    Simnet.Engine.schedule_at engine at (fun () ->
        Dvm.Client.Session.fetch session ~cls:name (fun r ->
            got := (name, r) :: !got))
  in
  fetch "a0/one" 0L;
  Simnet.Engine.schedule_at engine 500_000L (fun () ->
      Array.iter (fun p -> Simnet.Host.crash p.Proxy.host) pool);
  fetch "a0/two" 1_000_000L;
  fetch "a9/never-seen" 1_000_000L;
  Simnet.Engine.run engine;
  (match List.assoc "a0/one" !got with
  | Dvm.Client.Session.Fresh b ->
    check Alcotest.string "fresh bytes" (Lazy.force served_body) b
  | _ -> fail "healthy farm did not serve fresh");
  (match List.assoc "a0/two" !got with
  | Dvm.Client.Session.Stale b ->
    check Alcotest.string "stale bytes are the archived fresh ones"
      (Lazy.force served_body) b
  | _ -> fail "dead farm did not brown out to stale");
  (match List.assoc "a9/never-seen" !got with
  | Dvm.Client.Session.Failed -> ()
  | _ -> fail "an applet never served fresh cannot brown out");
  check Alcotest.int "one stale serve counted" 1
    session.Dvm.Client.Session.stale_served;
  check Alcotest.int "one fresh serve counted" 1
    session.Dvm.Client.Session.served;
  check Alcotest.int "one failure counted" 1
    session.Dvm.Client.Session.failed

let test_hedge_wins_on_slow_owner () =
  (* The owner is alive but swamped; the hedge against the next shard
     in ring order comes back first and wins the fetch. *)
  let engine = Simnet.Engine.create () in
  let farm, pool = tiny_farm engine in
  let cls = "some/Applet" in
  let owner = Proxy.Farm.owner farm cls in
  (* swamp the owner with half a second of queued compute *)
  Simnet.Host.compute pool.(owner).Proxy.host ~cost_us:500_000L (fun () -> ());
  let session =
    Dvm.Client.Session.create ~budget_us:1_000_000L
      ~hedge_after_us:50_000L engine farm
  in
  let got = ref None in
  Dvm.Client.Session.fetch session ~cls (fun r -> got := Some r);
  Simnet.Engine.run engine;
  (match !got with
  | Some (Dvm.Client.Session.Fresh _) -> ()
  | _ -> fail "hedged fetch did not serve");
  check Alcotest.int "hedge fired" 1 session.Dvm.Client.Session.hedges;
  check Alcotest.int "hedge won" 1 session.Dvm.Client.Session.hedge_wins;
  check Alcotest.bool "fetch settled well before the swamped owner's queue"
    true
    (Int64.compare (Simnet.Engine.now engine) 500_000L < 0
    || session.Dvm.Client.Session.served = 1)

let test_every_name_is_one_fetch () =
  (* A class name is a key, whatever its characters: a space, a line
     break, nothing at all. Each fetch reaches the farm once and
     settles Fresh exactly once, raising nothing to the caller; the
     hedge timer armed before it finds it settled. *)
  List.iter
    (fun cls ->
      let engine = Simnet.Engine.create () in
      let farm, _ = tiny_farm engine in
      let session =
        Dvm.Client.Session.create ~hedge_after_us:50_000L engine farm
      in
      let got = ref [] in
      Dvm.Client.Session.fetch session ~cls (fun r -> got := r :: !got);
      Simnet.Engine.run engine;
      let what = Printf.sprintf "%S" cls in
      (match !got with
      | [ Dvm.Client.Session.Fresh b ] ->
        check Alcotest.string (what ^ ": the body's bytes")
          (Lazy.force served_body) b
      | l ->
        Alcotest.failf "%s: %d outcomes, want one Fresh" what
          (List.length l));
      check Alcotest.int (what ^ ": one serve counted") 1
        session.Dvm.Client.Session.served;
      check Alcotest.int (what ^ ": no hedge") 0
        session.Dvm.Client.Session.hedges;
      check Alcotest.int (what ^ ": the farm saw it once") 1
        farm.Proxy.Farm.requests)
    [ "a b"; "x\r\nY"; "" ]

let test_settled_fetch_leaves_nothing_queued () =
  (* Settling a fetch cancels its deadline and hedge timers, so once a
     fetch settles and its replies land, nothing of it stays queued:
     the drained engine's clock is the settle time, not settle time +
     budget. Expiry and hedging still fire exactly as before. *)
  let budget_us = 1_000_000L in
  let fetch ?hedge_after_us ?(advertise_deadline = true)
      ?(budget_us = budget_us) engine farm cls =
    let session =
      Dvm.Client.Session.create ~budget_us ?hedge_after_us ~advertise_deadline
        engine farm
    in
    let t0 = Simnet.Engine.now engine and got = ref None in
    Dvm.Client.Session.fetch session ~cls (fun r ->
        got := Some (r, Int64.sub (Simnet.Engine.now engine) t0));
    Simnet.Engine.run engine;
    match !got with
    | Some (r, after) -> (session, r, Int64.add t0 after, after)
    | None -> fail "the fetch never settled"
  in
  let engine = Simnet.Engine.create () in
  let farm, _ = tiny_farm engine in
  List.iter
    (fun what ->
      (* A cold fetch through the pipeline, then a warm L1 hit. *)
      let _, r, settled_at, _ =
        fetch ~hedge_after_us:50_000L engine farm "warm/Applet"
      in
      (match r with
      | Dvm.Client.Session.Fresh _ -> ()
      | _ -> Alcotest.failf "%s fetch did not serve fresh" what);
      check Alcotest.int64 (what ^ ": drained at the settle time") settled_at
        (Simnet.Engine.now engine))
    [ "cold"; "warm" ];
  (* The owner is swamped for half a second and the session does not
     advertise its deadline, so no shard sheds: the 100 ms deadline
     timer fails the fetch at exactly its budget. *)
  let engine = Simnet.Engine.create () in
  let farm, pool = tiny_farm engine in
  let cls = "slow/Applet" in
  Simnet.Host.compute pool.(Proxy.Farm.owner farm cls).Proxy.host
    ~cost_us:500_000L ignore;
  let session, r, _, after =
    fetch ~advertise_deadline:false ~budget_us:100_000L engine farm cls
  in
  (match r with
  | Dvm.Client.Session.Failed -> ()
  | _ -> fail "a fetch past its deadline did not fail");
  check Alcotest.int64 "failed at exactly the budget" 100_000L after;
  check Alcotest.int "one failure" 1 session.Dvm.Client.Session.failed;
  (* Hedged on the same swamped owner: the hedge fires, wins, and
     cancels the deadline timer, so the engine drains when the owner's
     late reply lands, well before the budget runs out. *)
  let engine = Simnet.Engine.create () in
  let farm, pool = tiny_farm engine in
  Simnet.Host.compute pool.(Proxy.Farm.owner farm cls).Proxy.host
    ~cost_us:500_000L ignore;
  let session, r, _, _ = fetch ~hedge_after_us:50_000L engine farm cls in
  (match r with
  | Dvm.Client.Session.Fresh _ -> ()
  | _ -> fail "hedged fetch did not serve");
  check Alcotest.int "hedge fired" 1 session.Dvm.Client.Session.hedges;
  check Alcotest.int "hedge won" 1 session.Dvm.Client.Session.hedge_wins;
  check Alcotest.bool "deadline timer cancelled" true
    (Int64.compare (Simnet.Engine.now engine) budget_us < 0)

(* --- The control-plane scenario. --- *)

(* A small configuration for the fast control-plane tests. *)
let small_control =
  {
    Dvm.Chaos.default_control_config with
    Dvm.Chaos.cc_clients = 12;
    cc_duration_s = 18;
    cc_applets = 6;
    cc_bump_at_s = 7;
    cc_partitions = 1;
    cc_partition_len_s = 2;
  }

let test_control_invariants_hold () =
  let w = Dvm.Chaos.verify_control small_control in
  check Alcotest.bool "no serve under the revoked version" true
    w.Dvm.Chaos.w_no_revoked_serves;
  check Alcotest.bool "every shard converged" true w.Dvm.Chaos.w_converged;
  check Alcotest.bool "unaffected applets digest-identical" true
    w.Dvm.Chaos.w_digests_ok;
  check Alcotest.bool "verdict rolls up" true (Dvm.Chaos.control_ok w);
  let c = w.Dvm.Chaos.w_chaotic in
  (* the run actually exercised the machinery it claims to test *)
  check Alcotest.bool "bump committed" true (c.Dvm.Chaos.cn_commit_us > 0L);
  check Alcotest.bool "the bump changes some applets' bytes" true
    (List.length c.Dvm.Chaos.cn_changed_applets > 0);
  check Alcotest.bool "faults were injected" true
    (List.length c.Dvm.Chaos.cn_fault_trace > 0);
  check Alcotest.bool "fence refused some requests" true
    (c.Dvm.Chaos.cn_fence_rejects > 0);
  check Alcotest.bool "version stamps dropped stale entries" true
    (c.Dvm.Chaos.cn_stale_drops > 0);
  check Alcotest.bool "invalidations replicated and applied" true
    (c.Dvm.Chaos.cn_invalidations > 0);
  check Alcotest.bool "restarted shard resynced from the log" true
    (c.Dvm.Chaos.cn_resyncs > 0);
  (* the election machinery was genuinely attacked: the leader crash
     and the leader partition each force at least one hand-off *)
  check Alcotest.bool "single leader invariant sampled clean" true
    w.Dvm.Chaos.w_single_leader;
  check Alcotest.bool "snapshot catch-up = full-log replay" true
    w.Dvm.Chaos.w_replay_ok;
  check Alcotest.bool "leadership was re-elected after the crash" true
    (c.Dvm.Chaos.cn_elections >= 2);
  check Alcotest.bool "leadership changed identity" true
    (c.Dvm.Chaos.cn_leader_changes >= 2);
  check Alcotest.bool "the stale-term wake-up forced a stepdown" true
    (c.Dvm.Chaos.cn_stepdowns >= 1);
  check Alcotest.bool "an orphaned suffix was re-driven" true
    (c.Dvm.Chaos.cn_redrives >= 1);
  check Alcotest.bool "the log was compacted mid-run" true
    (c.Dvm.Chaos.cn_compactions >= 1);
  check Alcotest.bool "a laggard caught up from a snapshot" true
    (c.Dvm.Chaos.cn_snapshot_installs >= 1);
  check Alcotest.bool "never two leased leaders at a sampled instant" true
    (c.Dvm.Chaos.cn_max_leased <= 1);
  check Alcotest.int "terms never regressed" 0
    c.Dvm.Chaos.cn_term_regressions;
  (* changed applets really serve two distinct digest sets over the
     run (v1 before the bump, v2 after); unchanged ones serve one *)
  List.iter
    (fun (k, ds) ->
      let changed = List.mem k c.Dvm.Chaos.cn_changed_applets in
      check Alcotest.bool
        (Printf.sprintf "applet %s digest count (%s)" k
           (if changed then "changed" else "unchanged"))
        true
        (if changed then List.length ds = 2 else List.length ds = 1))
    c.Dvm.Chaos.cn_digests

let test_control_no_revoked_serves_uncached () =
  (* With caches off every fetch is a pipeline run, so a flight is
     almost always open when a shard applies the bump. While flights
     were keyed by class alone, a request arriving after the bump
     joined the revoked run: these seeds served revoked bytes in the
     partition-free reference run. *)
  List.iter
    (fun (seed, bump_at) ->
      let w =
        Dvm.Chaos.verify_control
          {
            Dvm.Chaos.default_control_config with
            Dvm.Chaos.cc_seed = seed;
            cc_cache_mb = 0;
            cc_bump_at_s = bump_at;
          }
      in
      let what = Printf.sprintf "seed %d" seed in
      check Alcotest.int (what ^ ": reference run") 0
        w.Dvm.Chaos.w_reference.Dvm.Chaos.cn_revoked_serves;
      check Alcotest.int (what ^ ": chaotic run") 0
        w.Dvm.Chaos.w_chaotic.Dvm.Chaos.cn_revoked_serves;
      check Alcotest.bool (what ^ ": verdict") true (Dvm.Chaos.control_ok w))
    [ (9, Dvm.Chaos.default_control_config.Dvm.Chaos.cc_bump_at_s); (3, 8) ]

let test_control_seed_replayable () =
  let a = Dvm.Chaos.run_control small_control
  and b = Dvm.Chaos.run_control small_control in
  check Alcotest.string "engine traces digest-identical"
    a.Dvm.Chaos.cn_trace_digest b.Dvm.Chaos.cn_trace_digest;
  check Alcotest.bool "whole outcomes identical" true (a = b)

let () =
  Alcotest.run "chaos"
    [
      ( "acceptance",
        [
          Alcotest.test_case "goodput bar (>= 2x)" `Quick test_goodput_bar;
          Alcotest.test_case "zero deadline violations" `Quick
            test_no_deadline_violations;
          Alcotest.test_case "three invariants" `Quick test_invariants_hold;
        ] );
      ( "replay",
        [ Alcotest.test_case "seed determinism" `Quick test_seed_replayable ] );
      ( "sessions",
        [
          Alcotest.test_case "serve-stale brownout" `Quick
            test_brownout_serves_stale;
          Alcotest.test_case "hedge wins on slow owner" `Quick
            test_hedge_wins_on_slow_owner;
          Alcotest.test_case "every name is one fetch" `Quick
            test_every_name_is_one_fetch;
          Alcotest.test_case "settled fetch leaves nothing queued" `Quick
            test_settled_fetch_leaves_nothing_queued;
        ] );
      ( "control-plane",
        [
          Alcotest.test_case "invariants hold" `Quick
            test_control_invariants_hold;
          Alcotest.test_case "no revoked serve with caches off" `Quick
            test_control_no_revoked_serves_uncached;
          Alcotest.test_case "seed determinism" `Quick
            test_control_seed_replayable;
        ] );
    ]
