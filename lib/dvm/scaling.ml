(* The scaling experiment of §4.2 (Figure 10): up to hundreds of
   clients simultaneously fetch different applets from the Internet
   through one proxy with caching disabled — the worst case for a DVM.

   Resource model: the proxy serializes pipeline work on one reference
   CPU and holds per-connected-client service state (connection
   buffers, session and rewriting state) in its 64 MB of memory. While
   client count stays under the memory budget, throughput grows
   linearly — the static services never synchronize with clients or
   share exclusive state. Past it, the host pages and all service work
   slows down: the knee the paper reports at its 64 MB. *)

(* Per-connected-client proxy footprint: 256 KB of connection and
   service state. 250 clients saturate the 64 MB proxy. *)
let per_client_state_bytes = 256 * 1024

(* Per-client think time between fetches: browsing users do not
   request applets back to back. *)
let think_time = Simnet.Engine.sec 9

(* Workload plumbing shared by the single-proxy and farm experiments:
   realized applet bodies (real class bytes the pipeline can decode,
   verify and rewrite), the origin serving them and the per-class WAN
   latency. Request names are "a<k>/<uniq>": serve body k mod
   applet_count. The origin has nothing for any other name, and its WAN
   latency is 2 s. *)
let applet_workload ~applet_count ~seed =
  let pop = Workloads.Applets.population ~n:applet_count ~seed () in
  let applets = Array.of_list pop in
  let bodies =
    Array.map
      (fun ap -> Bytecode.Encode.class_to_bytes (Workloads.Applets.realize ap))
      applets
  in
  (* The body a name asks for: [Some (k mod n)] when the part before
     its first '/' is 'a' and then a non-negative decimal [k]. *)
  let index name =
    match String.index_opt name '/' with
    | Some i when i > 1 && name.[0] = 'a' ->
      let digits = String.sub name 1 (i - 1) in
      if String.for_all (fun c -> c >= '0' && c <= '9') digits then
        Option.map
          (fun k -> k mod Array.length bodies)
          (int_of_string_opt digits)
      else None
    | _ -> None
  in
  let origin name = Option.map (Array.get bodies) (index name) in
  let origin_latency name =
    match index name with
    | Some k -> Int64.of_int applets.(k).Workloads.Applets.ap_wan_latency_us
    | None -> Simnet.Engine.ms 2000
  in
  (origin, origin_latency)

let filters_for policy =
  let oracle = Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes ()) in
  [
    Verifier.Static_verifier.filter ~oracle ();
    Security.Rewriter.filter policy;
    Monitor.Instrument.audit_filter ();
  ]

let standard_filters () = filters_for Experiment.standard_policy

(* Setup every multi-shard experiment shares (this farm experiment,
   the chaos and control-plane scenarios, the availability sweep), so
   one shard is named, loaded and fingerprinted the same way
   everywhere. *)

let shard_name i = Printf.sprintf "shard%d" i

(* Connected-client service state spreads evenly over the shard hosts —
   the whole point of sharding for Figure 10. *)
let spread_client_state pool ~clients =
  let shards = Array.length pool in
  Array.iteri
    (fun i p ->
      let share = (clients / shards) + (if i < clients mod shards then 1 else 0) in
      Simnet.Host.allocate p.Proxy.host (share * per_client_state_bytes))
    pool

(* The one client loop (see the interface). First fetches are
   scheduled in id order and a think event only when [fetch] calls
   [next], after it has recorded its serve: the pinned event orders. *)
let population ?(start = 0L) ?(first_id = 0) ?(gate = fun _ -> true) engine
    ~clients ~applets ~think fetch =
  if applets <= 0 then
    invalid_arg "Scaling.population: applets must be positive";
  let rec loop id iter =
    if gate (Simnet.Engine.now engine) then
      fetch ~id ~iter ~applet:((id + (iter * 37)) mod applets) (fun () ->
          Simnet.Engine.schedule engine ~delay:think (fun () ->
              loop id (iter + 1)))
  in
  for i = 0 to clients - 1 do
    Simnet.Engine.schedule_at engine
      (Int64.add start (Int64.of_int (i * 1_000_000 / max 1 clients)))
      (fun () -> loop (first_id + i) 0)
  done

(* An engine recording its (time, label) event trace. The cap sits far
   above anything a pinned seed produces, so memory stays bounded
   (a runaway run degrades to a dropped-records count) without losing
   a record in practice. *)
let traced_engine () =
  let engine = Simnet.Engine.create () in
  Simnet.Engine.set_tracing engine true;
  Simnet.Engine.set_trace_cap engine (Some 1_000_000);
  engine

let trace_digest engine =
  Dsig.Md5.digest
    (String.concat "\n"
       (List.map
          (fun (at, label) -> Printf.sprintf "%Ld %s" at label)
          (Simnet.Engine.trace engine)))

(* Applet key -> digest of the rewritten bytes served for it. The
   pipeline is pure, so within one run any divergence is a
   single-flight or cache corruption bug: fatal, not recorded. *)
let note_served served key bytes =
  let digest = Dsig.Md5.digest bytes in
  match Hashtbl.find_opt served key with
  | Some d when not (String.equal d digest) ->
    failwith ("divergent served bytes for " ^ key)
  | _ -> Hashtbl.replace served key digest

let served_digests served =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k d acc -> (k, d) :: acc) served [])

(* --- The farm experiment ---------------------------------------------

   Clients fetch applets through a consistent-hash farm: each shard
   owns a stable slice of the key space, holds its share of the
   per-client state, and misses coalesce per shard. At one shard this
   is the single proxy of Figure 10; the sweep regenerates the curve
   once per shard count — the knee moves right as shards divide the
   memory load, which is where the ≥3× aggregate throughput from 1→4
   shards comes from once a single proxy is past its knee.

   Every run also produces two fingerprints:
   - [f_served]: per-applet MD5 of the served bytes (sorted assoc).
     The pipeline is pure, so these must be identical across shard
     counts — the farm changes who does the work, never the work.
   - [f_trace_digest]: MD5 of the engine's (time, label) event trace.
     Same seed ⇒ same digest; two runs of the same configuration must
     match exactly. *)

type farm_point = {
  f_shards : int;
  f_clients : int;
  f_throughput_bytes_per_s : float;
  f_mean_latency_us : float;
  f_mean_latency_s_per_kb : float;
  f_requests_completed : int;
  f_pipeline_runs : int;
  f_coalesced : int;
  f_l2_hits : int;
  f_utilization : float; (* mean shard CPU utilization *)
  f_served : (string * string) list; (* applet key -> MD5 of served bytes *)
  f_trace_digest : string;
}

(* Fig. 10's browser has no deadline, no retry and no hedge, so each
   fetch is a raw farm request: a refused browser stops, as does one
   whose reply lands past the horizon. *)
let run_farm ?slo ?(duration_s = 30) ?(seed = 7) ?(applet_count = 64)
    ?(mem_capacity = 64 * 1024 * 1024) ?(cache_capacity = 0)
    ?(l2_capacity = 0) ~shards ~clients () : farm_point =
  if shards <= 0 then invalid_arg "run_farm: shards must be positive";
  let slo_record outcome now_us =
    match slo with
    | None -> ()
    | Some s -> Telemetry.Slo.record s ~now_us outcome
  in
  let engine = traced_engine () in
  let origin, origin_latency = applet_workload ~applet_count ~seed in
  let filters = standard_filters () in
  let l2 =
    if l2_capacity > 0 then Some (Proxy.Cache.create ~capacity:l2_capacity)
    else None
  in
  (* The standard stack is effect-free apart from telemetry, so the
     farm shares one host-CPU outcome memo: identical applet bytes are
     verified and rewritten once, replayed thereafter. The simulated
     cost model still charges every fetch the full pipeline price. *)
  let memo = Proxy.Pipeline.Memo.create () in
  let pool =
    Array.init shards (fun i ->
        Proxy.create engine ~cache_capacity ~mem_capacity ?l2 ~memo
          ~host_name:(shard_name i) ~origin ~origin_latency ~filters ())
  in
  let farm = Proxy.Farm.create engine pool in
  spread_client_state pool ~clients;
  let lan = Simnet.Link.ethernet_10mb engine in
  let horizon = Simnet.Engine.sec duration_s in
  let completed = ref 0 in
  let bytes_delivered = ref 0 in
  let latency_sum = ref 0L in
  let latency_weighted_kb = ref 0.0 in
  let served : (string, string) Hashtbl.t = Hashtbl.create 64 in
  population engine ~clients ~applets:applet_count ~think:think_time
    (fun ~id ~iter ~applet next ->
      let applet_key = Printf.sprintf "a%d" applet in
      (* Cache off: every request unique (the paper's worst case). Any
         cache tier on: clients share the popular set so hits and
         coalescing can happen (the paper's stated mitigation). *)
      let name =
        if cache_capacity > 0 || l2_capacity > 0 then applet_key ^ "/pop"
        else Printf.sprintf "%s/c%d-i%d" applet_key id iter
      in
      let started = Simnet.Engine.now engine in
      Proxy.Farm.request farm ~cls:name (fun reply ->
          match reply with
          | Proxy.Not_found | Proxy.Unavailable | Proxy.Overloaded ->
            slo_record Telemetry.Slo.Failed (Simnet.Engine.now engine)
          | Proxy.Bytes b ->
            Simnet.Link.transfer lan ~bytes:(String.length b) (fun () ->
                let now = Simnet.Engine.now engine in
                if Int64.compare now horizon <= 0 then begin
                  incr completed;
                  slo_record (Telemetry.Slo.Fresh (String.length b)) now;
                  let lat = Int64.sub now started in
                  Telemetry.observe "client.request_us" lat;
                  Simnet.Engine.record engine
                    (Printf.sprintf "serve %s -> c%d" name id);
                  note_served served applet_key b;
                  bytes_delivered := !bytes_delivered + String.length b;
                  latency_sum := Int64.add !latency_sum lat;
                  latency_weighted_kb :=
                    !latency_weighted_kb
                    +. (Int64.to_float lat /. 1_000_000.0)
                       /. (Float.of_int (String.length b) /. 1024.0);
                  next ()
                end)));
  Simnet.Engine.run ~until:horizon engine;
  let dur = Simnet.Engine.to_sec horizon in
  let per_completion x =
    if !completed = 0 then 0.0 else x /. Float.of_int !completed
  in
  {
    f_shards = shards;
    f_clients = clients;
    f_throughput_bytes_per_s = Float.of_int !bytes_delivered /. dur;
    f_mean_latency_us = per_completion (Int64.to_float !latency_sum);
    f_mean_latency_s_per_kb = per_completion !latency_weighted_kb;
    f_requests_completed = !completed;
    f_pipeline_runs = Proxy.Farm.pipeline_runs farm;
    f_coalesced = Proxy.Farm.coalesced farm;
    f_l2_hits = Proxy.Farm.l2_hits farm;
    f_utilization =
      Array.fold_left
        (fun a p -> a +. Simnet.Host.utilization p.Proxy.host)
        0.0 pool
      /. Float.of_int shards;
    f_served = served_digests served;
    f_trace_digest = trace_digest engine;
  }

(* The bench's pinned renderings of farm points. *)

let json_list f l = "[" ^ String.concat "," (List.map f l) ^ "]"

let fig10_json =
  json_list (fun p ->
      Printf.sprintf
        {|{"clients":%d,"throughput_bps":%.1f,"mean_latency_us":%.1f,"s_per_kb":%.4f,"utilization":%.4f}|}
        p.f_clients p.f_throughput_bytes_per_s p.f_mean_latency_us
        p.f_mean_latency_s_per_kb p.f_utilization)

let shard_sweep_json =
  json_list (fun p ->
      Printf.sprintf
        {|{"shards":%d,"throughput_bps":%.1f,"mean_latency_us":%.1f,"completed":%d,"utilization":%.3f,"trace_digest":"%s"}|}
        p.f_shards p.f_throughput_bytes_per_s p.f_mean_latency_us
        p.f_requests_completed p.f_utilization
        (Dsig.Md5.to_hex p.f_trace_digest))

let coalesce_json p =
  Printf.sprintf
    {|{"completed":%d,"pipeline_runs":%d,"coalesced":%d,"l2_hits":%d,"throughput_bps":%.1f,"trace_digest":"%s","served":{%s}}|}
    p.f_requests_completed p.f_pipeline_runs p.f_coalesced p.f_l2_hits
    p.f_throughput_bytes_per_s (Dsig.Md5.to_hex p.f_trace_digest)
    (String.concat ","
       (List.map
          (fun (k, d) -> Printf.sprintf {|"%s":"%s"|} k (Dsig.Md5.to_hex d))
          p.f_served))
