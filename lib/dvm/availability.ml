(* The availability experiment the paper's §5 replication argument
   calls for but never runs: application startup through the proxy
   under injected faults — link loss and jitter on the client's LAN,
   and a shard crash mid-startup — with N replicas, i.e. an N-shard
   Proxy.Farm.

   A single client fetches every class of a workload application
   sequentially through the farm. Each fetch runs under a per-attempt
   timeout with bounded exponential-backoff retry — the client's own
   loop, since Client.Session retries only shed requests and this
   experiment measures what retrying a lost or refused fetch costs.
   When the retry budget for a class is exhausted the client gives up
   on it (the class degrades) and moves on. Everything is driven by
   one seeded fault plan, so a run is a pure function of (seed, loss,
   replicas, scenario): byte-identical across repeats. *)

type scenario = {
  sc_seed : int;
  sc_spec : Workloads.Appgen.spec;
  sc_timeout_us : int; (* per-attempt timeout *)
  sc_max_attempts : int;
  sc_base_backoff_us : int;
  sc_max_backoff_us : int;
  sc_jitter_max_us : int;
  (* Crash shard 0 at [fst] for [snd] µs; None = no crash. *)
  sc_crash_primary : (Simnet.Engine.time * Simnet.Engine.time) option;
  (* Fraction of the crashed proxy's cache that survives the restart. *)
  sc_cache_retained : float;
  sc_wan_latency : Simnet.Engine.time;
}

let default_scenario =
  {
    sc_seed = 23;
    sc_spec = Workloads.Apps.jlex;
    sc_timeout_us = 500_000;
    sc_max_attempts = 4;
    sc_base_backoff_us = 100_000;
    sc_max_backoff_us = 800_000;
    sc_jitter_max_us = 5_000;
    sc_crash_primary = None;
    sc_cache_retained = 0.0;
    sc_wan_latency = Simnet.Engine.ms 40;
  }

let crash_scenario =
  {
    default_scenario with
    sc_crash_primary = Some (Simnet.Engine.ms 400, Simnet.Engine.ms 2500);
  }

type point = {
  av_loss_pct : float;
  av_replicas : int;
  av_classes : int;
  av_startup_us : int64; (* virtual time to fetch every class *)
  av_requests : int; (* attempts issued *)
  av_retries : int;
  av_drops : int; (* transfers lost on the client LAN *)
  av_failovers : int; (* requests served by a non-owner shard *)
  av_degraded : int; (* classes that exhausted the retry budget *)
  av_trace : string list; (* the fault plan's injected-fault trace *)
}

let backoff_us sc ~attempt =
  min (sc.sc_base_backoff_us * (1 lsl min 20 (attempt - 1))) sc.sc_max_backoff_us

let run ?slo ?(scenario = default_scenario) ~loss_pct ~replicas () =
  let sc = scenario in
  let slo_record outcome now_us =
    match slo with
    | None -> ()
    | Some s -> Telemetry.Slo.record s ~now_us outcome
  in
  let app = Workloads.Apps.build_small sc.sc_spec in
  let engine = Simnet.Engine.create () in
  let plan = Simnet.Fault.create ~seed:sc.sc_seed in
  let lan = Simnet.Link.ethernet_10mb engine in
  Simnet.Link.set_faults lan ~plan ~drop_prob:(loss_pct /. 100.0)
    ~jitter_max_us:sc.sc_jitter_max_us ();
  let oracle =
    Verifier.Oracle.of_classes
      (Jvm.Bootlib.boot_classes () @ app.Workloads.Appgen.classes)
  in
  let pool =
    Array.init replicas (fun i ->
        let services = Experiment.standard_services ~oracle () in
        Proxy.create engine ~host_name:(Scaling.shard_name i)
          ~origin:(Workloads.Appgen.origin app)
          ~origin_latency:(fun _ -> sc.sc_wan_latency)
          ~filters:services.Experiment.filters ())
  in
  let farm = Proxy.Farm.create engine pool in
  (match sc.sc_crash_primary with
  | None -> ()
  | Some (at, down_for) ->
    Simnet.Fault.schedule_host_faults plan pool.(0).Proxy.host
      ~on_restart:(fun () ->
        (* The restarted shard comes back cache-cold (or nearly): the
           measurable price of failing back. *)
        Proxy.Cache.drop_fraction pool.(0).Proxy.cache
          ~fraction:(1.0 -. sc.sc_cache_retained))
      ~schedule:[ (at, down_for) ]
      ());
  let classes = List.map fst (Workloads.Appgen.class_bytes app) in
  let requests = ref 0 in
  let retries = ref 0 in
  let degraded = ref 0 in
  let finished_at = ref 0L in
  let rec fetch_next = function
    | [] -> finished_at := Simnet.Engine.now engine
    | cls :: rest ->
      let rec attempt n =
        incr requests;
        let started = Simnet.Engine.now engine in
        let settled = ref false in
        (* One failure path for timeout, loss and Unavailable; the
           [settled] flag makes late replies and stale timeouts
           harmless. *)
        let fail_attempt () =
          if not !settled then begin
            settled := true;
            if n >= sc.sc_max_attempts then begin
              incr degraded;
              Telemetry.Global.incr "client.degraded";
              slo_record Telemetry.Slo.Failed (Simnet.Engine.now engine);
              fetch_next rest
            end
            else begin
              incr retries;
              Telemetry.Global.incr "client.retries";
              let b = backoff_us sc ~attempt:n in
              Telemetry.Global.observe "client.retry_backoff_us"
                (Int64.of_int b);
              Simnet.Engine.schedule engine ~delay:(Int64.of_int b) (fun () ->
                  attempt (n + 1))
            end
          end
        in
        Proxy.Farm.request farm ~cls (fun reply ->
            match reply with
            | Proxy.Bytes b ->
              (* The response crosses the client's (lossy) LAN; a drop
                 is discovered by the timeout. *)
              Simnet.Link.transfer lan ~bytes:(String.length b) (fun () ->
                  if not !settled then begin
                    settled := true;
                    Telemetry.Global.observe "client.request_us"
                      (Int64.sub (Simnet.Engine.now engine) started);
                    slo_record
                      (Telemetry.Slo.Fresh (String.length b))
                      (Simnet.Engine.now engine);
                    fetch_next rest
                  end)
            | Proxy.Not_found | Proxy.Unavailable | Proxy.Overloaded ->
              fail_attempt ());
        Simnet.Engine.schedule engine ~delay:(Int64.of_int sc.sc_timeout_us)
          fail_attempt
      in
      attempt 1
  in
  (* Kick off inside the event loop, not before it: spans opened during
     the first fetch must see the virtual clock (a pre-run dispatch
     would salt the latency histograms with wall-clock durations and
     break run-to-run reproducibility). *)
  Simnet.Engine.schedule_at engine 0L (fun () -> fetch_next classes);
  Simnet.Engine.run engine;
  {
    av_loss_pct = loss_pct;
    av_replicas = replicas;
    av_classes = List.length classes;
    av_startup_us = !finished_at;
    av_requests = !requests;
    av_retries = !retries;
    av_drops = lan.Simnet.Link.drops;
    av_failovers = farm.Proxy.Farm.failovers;
    av_degraded = !degraded;
    av_trace = Simnet.Fault.trace plan;
  }

let sweep ?slo ?scenario ~loss_pcts ~replica_counts () =
  List.concat_map
    (fun replicas ->
      List.map
        (fun loss_pct -> run ?slo ?scenario ~loss_pct ~replicas ())
        loss_pcts)
    replica_counts

(* Render a sweep as the bench/CLI table. *)
let print_table points =
  Printf.printf "%9s %9s %12s %9s %9s %9s %10s %9s\n" "Loss" "Replicas"
    "Startup(s)" "Requests" "Retries" "Drops" "Failovers" "Degraded";
  List.iter
    (fun p ->
      Printf.printf "%8.1f%% %9d %12.2f %9d %9d %9d %10d %9d\n" p.av_loss_pct
        p.av_replicas
        (Int64.to_float p.av_startup_us /. 1e6)
        p.av_requests p.av_retries p.av_drops p.av_failovers p.av_degraded)
    points
