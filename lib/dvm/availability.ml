(* The availability experiment the paper's §5 replication argument
   calls for but never runs: application startup through the proxy
   under injected faults — link loss and jitter on the client's LAN,
   and a shard crash mid-startup — with N replicas, i.e. an N-shard
   Proxy.Farm.

   A single client fetches every class of jlex (small build)
   sequentially through the farm. Each attempt is one Client.Session
   fetch whose deadline, kept from the farm, is the per-attempt timeout;
   between attempts the client backs off exponentially — the retry
   loop whose cost this experiment measures. A class whose attempts run
   out degrades and the client moves on. Everything is driven by one
   seeded fault plan, so a run is a pure function of (seed, crash,
   loss, replicas): byte-identical across repeats. *)

let default_seed = 23
let timeout_us = 500_000 (* per attempt *)
let max_attempts = 4
let base_backoff_us = 100_000
let max_backoff_us = 800_000

type point = {
  av_loss_pct : float;
  av_replicas : int;
  av_classes : int;
  av_startup_us : int64; (* virtual time to fetch every class *)
  av_requests : int; (* attempts issued *)
  av_retries : int;
  av_drops : int; (* transfers lost on the client LAN *)
  av_failovers : int; (* requests served by a non-owner shard *)
  av_degraded : int; (* classes that exhausted their attempts *)
  av_trace : string list; (* the fault plan's injected-fault trace *)
}

let backoff_us ~attempt =
  min (base_backoff_us * (1 lsl min 20 (attempt - 1))) max_backoff_us

let run ?slo ?(seed = default_seed) ?(crash = false) ~loss_pct ~replicas () =
  let slo_record outcome now_us =
    match slo with
    | None -> ()
    | Some s -> Telemetry.Slo.record s ~now_us outcome
  in
  let app = Workloads.Apps.build_small Workloads.Apps.jlex in
  let engine = Simnet.Engine.create () in
  let plan = Simnet.Fault.create ~seed in
  let lan = Simnet.Link.ethernet_10mb engine in
  Simnet.Link.set_faults lan ~plan ~drop_prob:(loss_pct /. 100.0)
    ~jitter_max_us:5_000 ();
  let oracle =
    Verifier.Oracle.of_classes
      (Jvm.Bootlib.boot_classes () @ app.Workloads.Appgen.classes)
  in
  let pool =
    Array.init replicas (fun i ->
        let services = Experiment.standard_services ~oracle () in
        Proxy.create engine ~host_name:(Scaling.shard_name i)
          ~origin:(Workloads.Appgen.origin app)
          ~origin_latency:(fun _ -> Simnet.Engine.ms 40)
          ~filters:services.Experiment.filters ())
  in
  let farm = Proxy.Farm.create engine pool in
  if crash then
    Simnet.Fault.schedule_host_faults plan pool.(0).Proxy.host
      ~on_restart:(fun () ->
        (* The restarted shard comes back cache-cold: the measurable
           price of failing back. *)
        Proxy.Cache.drop_fraction pool.(0).Proxy.cache ~fraction:1.0)
      ~schedule:[ (Simnet.Engine.ms 400, Simnet.Engine.ms 2500) ]
      ();
  let session =
    Client.Session.create ~budget_us:(Int64.of_int timeout_us)
      ~advertise_deadline:false ~retry_budget:0
      ~deliver:(fun ~bytes k -> Simnet.Link.transfer lan ~bytes k)
      engine farm
  in
  let classes = List.map fst (Workloads.Appgen.class_bytes app) in
  let retries = ref 0 in
  let degraded = ref 0 in
  let finished_at = ref 0L in
  let rec fetch_next = function
    | [] -> finished_at := Simnet.Engine.now engine
    | cls :: rest ->
      let rec attempt n =
        Client.Session.fetch session ~cls (function
          | Client.Session.Fresh b ->
            slo_record
              (Telemetry.Slo.Fresh (String.length b))
              (Simnet.Engine.now engine);
            fetch_next rest
          | Client.Session.Stale _ | Client.Session.Failed ->
            if n >= max_attempts then begin
              incr degraded;
              Telemetry.incr "client.degraded";
              slo_record Telemetry.Slo.Failed (Simnet.Engine.now engine);
              fetch_next rest
            end
            else begin
              incr retries;
              Telemetry.incr "client.retries";
              let b = backoff_us ~attempt:n in
              Telemetry.observe "client.retry_backoff_us"
                (Int64.of_int b);
              Simnet.Engine.schedule engine ~delay:(Int64.of_int b) (fun () ->
                  attempt (n + 1))
            end)
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
    av_requests = session.Client.Session.fetches;
    av_retries = !retries;
    av_drops = lan.Simnet.Link.drops;
    av_failovers = farm.Proxy.Farm.failovers;
    av_degraded = !degraded;
    av_trace = Simnet.Fault.trace plan;
  }

let sweep ?seed ?crash ~loss_pcts ~replica_counts () =
  List.concat_map
    (fun replicas ->
      List.map
        (fun loss_pct -> run ?seed ?crash ~loss_pct ~replicas ())
        loss_pcts)
    replica_counts

let points_json =
  Scaling.json_list (fun p ->
      Printf.sprintf
        {|{"loss_pct":%.1f,"replicas":%d,"startup_us":%Ld,"requests":%d,"retries":%d,"drops":%d,"failovers":%d,"degraded":%d}|}
        p.av_loss_pct p.av_replicas p.av_startup_us p.av_requests p.av_retries
        p.av_drops p.av_failovers p.av_degraded)

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
