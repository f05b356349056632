(* The transparent network proxy hosting the static service components
   (§2–§3): it intercepts class requests from clients, fetches from the
   origin (an Internet web server or an intranet file store), runs the
   filter pipeline once per class, signs the result, caches it, and
   leaves an audit trail for the administration console.

   Placement mirrors the paper: the proxy sits at the organization's
   trust boundary on a physically secure host. Its CPU serializes
   pipeline work and its memory holds per-request working state — the
   resource model behind the Figure 10 scaling experiment.

   This module is the single-node implementation; [Proxy] re-exports it
   and [Farm] composes several nodes behind a consistent-hash ring. *)

type reply = Bytes of string | Not_found | Unavailable | Overloaded

type origin = string -> string option

(* A request that joined an in-flight single-flight run: its own
   completion callback, fired when the leader's pipeline run settles. *)
type waiter = reply -> unit

(* Fixed model parameters: the origin uplink, the per-request working
   state as a multiple of the class's bytes (buffers for the raw bytes,
   the decoded image and the output), and an L2 hit's lookup cost and
   peer-to-peer transfer rate. *)
let origin_bandwidth_bps = 100_000_000
let working_set_factor = 12
let l2_lookup_us = 1500
let l2_bandwidth_bps = 100_000_000

type t = {
  engine : Simnet.Engine.t;
  host : Simnet.Host.t;
  cache : Cache.t; (* the shard's own L1 *)
  l2 : Cache.t option; (* optional shared tier, one instance per farm *)
  mutable filters : Rewrite.Filter.t list;
  mutable policy_version : int;
  (* Security-policy version this shard currently rewrites under;
     stamped onto pipeline runs and every L1/L2 entry (0 =
     unversioned, the pre-control-plane behaviour). The control
     plane's apply hook swaps [filters] and bumps this together. *)
  mutable serving_allowed : unit -> bool;
  (* Control-plane fence: when false the node refuses to serve —
     requests reply [Unavailable] exactly like on a crashed host, so
     the farm fails over. Wired to [Control.member_ok]; defaults to
     always-true for standalone nodes. *)
  origin : origin;
  origin_latency : string -> Simnet.Engine.time; (* per-class WAN latency *)
  signer : Dsig.Sign.key option;
  memo : Pipeline.Memo.t option; (* optional host-CPU outcome memo *)
  audit : Monitor.Audit.t option;
  (* Single-flight: concurrent misses for the same key join the run
     already in flight instead of re-parsing. The table maps keys with
     a pipeline run in flight to the requests that joined it. A key is
     (class, policy version), the key L1 and L2 use: a request that
     arrives after a bump leads its own run instead of joining one that
     may rewrite under the revoked stack. *)
  inflight : (string * int, waiter list ref) Hashtbl.t;
  admission : Admission.t;
  mutable requests : int;
  mutable rejections : int;
  mutable bytes_served : int;
  mutable origin_fetches : int;
  mutable pipeline_runs : int; (* full parse/rewrite/generate passes *)
  mutable coalesced : int; (* requests that joined an in-flight run *)
  mutable l2_hits : int; (* misses served by the shared tier *)
  mutable fenced_rejects : int; (* requests refused by the control-plane fence *)
  mutable cpu_us : int64; (* total pipeline + cache-service CPU *)
}

let create ?(cache_capacity = 48 * 1024 * 1024)
    ?(mem_capacity = 64 * 1024 * 1024) ?signer ?audit ?(cpu_factor = 1.0)
    ?(host_name = "proxy") ?l2 ?memo engine ~origin ~origin_latency ~filters
    () =
  {
    engine;
    host =
      Simnet.Host.create ~cpu_factor ~mem_capacity engine ~name:host_name;
    cache = Cache.create ~capacity:cache_capacity;
    l2;
    filters;
    policy_version = 0;
    serving_allowed = (fun () -> true);
    origin;
    origin_latency;
    signer;
    memo;
    audit;
    inflight = Hashtbl.create 32;
    admission = Admission.create ();
    requests = 0;
    rejections = 0;
    bytes_served = 0;
    origin_fetches = 0;
    pipeline_runs = 0;
    coalesced = 0;
    l2_hits = 0;
    fenced_rejects = 0;
    cpu_us = 0L;
  }

let log t kind detail =
  match t.audit with
  | None -> ()
  | Some a ->
    Monitor.Audit.append a ~time:(Simnet.Engine.now t.engine) ~session:0 ~kind
      ~detail

(* Process fetched bytes through the pipeline on the proxy CPU, then
   deliver; a crash before the run completes replies [Unavailable]. *)
let transform_and_reply ~trace t ~cls bytes k =
  let ws = working_set_factor * String.length bytes in
  Simnet.Host.allocate t.host ws;
  let on_fail () =
    Simnet.Host.release t.host ws;
    k Unavailable
  in
  (* The pipeline itself runs synchronously (it is pure CPU work); its
     cost occupies the host CPU in simulated time. The trace scope
     makes the pipeline's telemetry spans leaves of the request's
     distributed trace. *)
  t.pipeline_runs <- t.pipeline_runs + 1;
  let outcome =
    Telemetry.Trace.scope trace ~node:t.host.Simnet.Host.name (fun () ->
        Telemetry.Global.with_span ~cat:"proxy" ~args:[ ("class", cls) ]
          "proxy.transform" (fun () ->
            Pipeline.run ~policy_version:t.policy_version ?memo:t.memo
              ?signer:t.signer t.filters bytes))
  in
  let sign_cost =
    match t.signer with
    | None -> 0L
    | Some _ ->
      Int64.of_int
        (Dsig.Sign.sign_cost_us ~bytes:(String.length outcome.Pipeline.out_bytes))
  in
  if Int64.compare sign_cost 0L > 0 then
    Telemetry.Global.observe "pipeline.sign_us" sign_cost;
  let cost = Int64.add (Pipeline.total_cost outcome) sign_cost in
  t.cpu_us <- Int64.add t.cpu_us cost;
  Simnet.Host.compute t.host ~on_fail ~cost_us:cost (fun () ->
      Simnet.Host.release t.host ws;
      (match outcome.Pipeline.rejected with
      | Some (filter, reason) ->
        t.rejections <- t.rejections + 1;
        log t "proxy.reject" (Printf.sprintf "%s: %s (%s)" cls reason filter)
      | None -> log t "proxy.serve" cls);
      let out = outcome.Pipeline.out_bytes in
      let version = outcome.Pipeline.out_version in
      Cache.store ~version t.cache cls out;
      (* The shared tier keeps the rewritten class even if this shard
         later restarts cache-cold: peers (and the restarted shard)
         rewarm from it at transfer cost instead of re-running the
         pipeline. Both entries carry the policy version the bytes
         were rewritten under, so a later lookup under a newer policy
         treats them as misses instead of resurrecting stale code. *)
      (match t.l2 with None -> () | Some l2 -> Cache.store ~version l2 cls out);
      t.bytes_served <- t.bytes_served + String.length out;
      k (Bytes out))

(* Cost of serving a miss from the shared L2 tier: a fixed lookup plus
   the peer-to-peer transfer of the rewritten bytes — far cheaper than
   the pipeline, slightly dearer than the local disk cache. *)
let l2_transfer_cost ~bytes =
  Int64.add
    (Int64.of_int l2_lookup_us)
    (Int64.of_float
       (Float.of_int bytes *. 8.0 *. 1_000_000.0
       /. Float.of_int l2_bandwidth_bps))

(* Handle one client request for a class. The callback fires exactly
   once, in simulated time: with the response when the proxy has it
   ready to put on the client's wire (the caller models the client-side
   link), or with [Unavailable] if the proxy host is down, fenced, or
   crashes while the request is in flight — the reply the farm fails
   over on.

   Misses are single-flight: the first request for a key becomes the
   leader and runs the pipeline; concurrent requests for the same key
   join it and are settled — success or failure — when the leader's
   run settles. A crash mid-flight therefore fails every joined
   request at once (the leader first, then the joiners in join order),
   and the in-flight entry is dropped so a retry after restart starts
   a fresh run. *)
let rec request ?deadline ?(trace = Telemetry.Trace.none) t ~cls k =
  t.requests <- t.requests + 1;
  if Telemetry.Global.on () then begin
    Telemetry.Global.incr "proxy.requests";
    Telemetry.Global.set_gauge "proxy.mem_pressure_x1000"
      (Int64.of_float (1000.0 *. Simnet.Host.mem_pressure t.host))
  end;
  let node = t.host.Simnet.Host.name in
  let sp =
    if not (Telemetry.Trace.live trace) then Telemetry.Trace.null_span
    else
      Telemetry.Trace.start trace ~node ~args:[ ("class", cls) ] "proxy.request"
  in
  let tctx = Telemetry.Trace.ctx_of sp in
  let k reply =
    Telemetry.Trace.finish sp;
    k reply
  in
  if not (Simnet.Host.is_up t.host) then
    Simnet.Engine.schedule t.engine ~delay:0L (fun () -> k Unavailable)
  else if not (t.serving_allowed ()) then begin
    (* Control-plane fence: the shard's lease lapsed (partition) or it
       is replaying the log after a restart. Serving now could hand
       out bytes rewritten under a revoked policy, so refuse and let
       the farm fail over — the same path as a crashed host. *)
    t.fenced_rejects <- t.fenced_rejects + 1;
    if Telemetry.Global.on () then Telemetry.Global.incr "control.fenced_rejects";
    (* mirrored 1:1 with the counter, like the control plane's own
       reason events; off-trace the line still reaches the recorder *)
    (if Telemetry.Trace.live tctx then
       Telemetry.Trace.event tctx ~node ~kind:"control.fenced_rejects"
         (Printf.sprintf "class %s: shard fenced, failing over" cls)
     else
       Telemetry.Flight.note
         ~at:(Simnet.Engine.now t.engine)
         ~node
         (Printf.sprintf "control.fenced_rejects class %s: shard fenced"
            cls));
    Simnet.Engine.schedule t.engine ~delay:0L (fun () -> k Unavailable)
  end
  else begin
    (* Admission: can this request finish inside its deadline given
       what the CPU is already committed to? The estimate peeks at the
       cache (without perturbing it) to pick the hit or miss cost and
       adds the CPU backlog the request would queue behind. Shedding
       happens here, before any work is scheduled — an [Overloaded]
       reply after one zero-delay hop, not a timeout downstream. *)
    let admit_at = Simnet.Engine.now t.engine in
    let backlog = Simnet.Host.backlog_us t.host in
    let is_hit = Cache.mem ~version:t.policy_version t.cache cls in
    (* A join matters only on a miss (its one use is [is_hit || is_join]),
       so a hit skips the single-flight peek. *)
    let is_join =
      (not is_hit) && Hashtbl.mem t.inflight (cls, t.policy_version)
    in
    let est_us =
      Int64.add backlog
        (if is_hit then 2000L else Admission.estimate_us t.admission)
    in
    match Admission.admit t.admission ~now:admit_at ~deadline ~est_us with
    | (Shed_queue | Shed_deadline) as verdict ->
      if Telemetry.Global.on () then Telemetry.Global.incr "proxy.overloaded";
      (* The reason event carries the shed's arithmetic, so a trace
         explains the [Overloaded] reply without correlating logs. *)
      Telemetry.Trace.event tctx ~node
        ~kind:
          (match verdict with
          | Admission.Shed_queue -> "admission.shed_queue"
          | _ -> "admission.shed_deadline")
        (Printf.sprintf "class %s: est %Ldus, deadline %s" cls est_us
           (match deadline with
           | Some d -> Printf.sprintf "%Ldus" d
           | None -> "none"));
      Simnet.Engine.schedule t.engine ~delay:0L (fun () -> k Overloaded)
    | Admit ->
      (* Balance the admit exactly once however the request settles.
         Misses (but not single-flight joins, which ride the leader's
         run) feed their service time — net of the backlog they merely
         waited out — back to the cost EWMA. *)
      let completed = ref false in
      let complete () =
        if not !completed then begin
          completed := true;
          let sample =
            if is_hit || is_join then None
            else
              let elapsed = Int64.sub (Simnet.Engine.now t.engine) admit_at in
              Some (Int64.max 0L (Int64.sub elapsed backlog))
          in
          Admission.complete ?sample t.admission
        end
      in
      let k reply = complete (); k reply in
      request_admitted ~trace:tctx t ~cls k
  end

(* The post-admission request path: cache lookup, single-flight join,
   L2, origin fetch + pipeline. A crash before the CPU work completes
   replies [Unavailable]. *)
and request_admitted ~trace t ~cls k =
  let node = t.host.Simnet.Host.name in
  let on_fail () = k Unavailable in
  match Cache.find ~version:t.policy_version t.cache cls with
    | Some bytes ->
      (* A small fixed cost to look up and stream from the disk cache.
         Stats and the audit record land in the completion callback:
         at schedule time the response hasn't been served yet, and the
         audit timestamp must not lead the virtual clock (the miss
         path logs at pipeline completion). *)
      t.cpu_us <- Int64.add t.cpu_us 2000L;
      Simnet.Host.compute t.host ~on_fail ~cost_us:2000L (fun () ->
          t.bytes_served <- t.bytes_served + String.length bytes;
          log t "proxy.cache_hit" cls;
          k (Bytes bytes))
    | None -> (
      let key = (cls, t.policy_version) in
      match Hashtbl.find_opt t.inflight key with
      | Some waiters ->
        (* Join the pipeline run already in flight for this key. *)
        t.coalesced <- t.coalesced + 1;
        if Telemetry.Global.on () then Telemetry.Global.incr "proxy.coalesced";
        Telemetry.Trace.event trace ~node ~kind:"proxy.coalesce.join"
          (Printf.sprintf "class %s: joined %d in flight" cls
             (List.length !waiters + 1));
        waiters := k :: !waiters
      | None -> (
        match
          match t.l2 with
          | None -> None
          | Some l2 -> Cache.find ~version:t.policy_version l2 cls
        with
        | Some bytes ->
          (* Shared-tier hit: pay the peer transfer, rewarm the L1. *)
          t.l2_hits <- t.l2_hits + 1;
          if Telemetry.Global.on () then Telemetry.Global.incr "proxy.l2_hits";
          Telemetry.Trace.event trace ~node ~kind:"proxy.l2_hit"
            (Printf.sprintf "class %s: %d bytes from shared tier" cls
               (String.length bytes));
          let cost = l2_transfer_cost ~bytes:(String.length bytes) in
          t.cpu_us <- Int64.add t.cpu_us cost;
          Simnet.Host.compute t.host ~on_fail ~cost_us:cost (fun () ->
              Cache.store ~version:t.policy_version t.cache cls bytes;
              t.bytes_served <- t.bytes_served + String.length bytes;
              log t "proxy.l2_hit" cls;
              k (Bytes bytes))
        | None -> (
          match t.origin cls with
          | None ->
            Simnet.Host.compute t.host ~on_fail ~cost_us:500L (fun () ->
                log t "proxy.not_found" cls;
                k Not_found)
          | Some bytes ->
            (* Become the leader of a single-flight run. *)
            let waiters : waiter list ref = ref [] in
            Hashtbl.replace t.inflight key waiters;
            (* Settle the leader, then the joiners in join order. A
               failure fans out without a span. *)
            let settle reply =
              Hashtbl.remove t.inflight key;
              let joined = List.rev !waiters in
              let deliver () =
                k reply;
                List.iter (fun (kw : waiter) -> kw reply) joined
              in
              match reply with
              | Unavailable -> deliver ()
              | Bytes _ | Not_found | Overloaded ->
                if joined = [] || not (Telemetry.Global.on ()) then deliver ()
                else
                  Telemetry.Global.with_span ~cat:"proxy"
                    ~args:
                      [
                        ("class", cls);
                        ("waiters", string_of_int (List.length joined));
                      ]
                    "proxy.coalesce.fanout" deliver
            in
            t.origin_fetches <- t.origin_fetches + 1;
            Telemetry.Global.incr "proxy.origin_fetches";
            let latency = t.origin_latency cls in
            let tx =
              Int64.of_float
                (Float.of_int (String.length bytes)
                *. 8.0 *. 1_000_000.0
                /. Float.of_int origin_bandwidth_bps)
            in
            Simnet.Engine.schedule t.engine ~delay:(Int64.add latency tx)
              (fun () ->
                transform_and_reply ~trace t ~cls bytes settle))))

(* Synchronous entry for callers outside a simulation (unit tests, the
   CLI, a DVM client's classloader): the simulated [request], run to
   completion on the node's own engine, so cache, version, fence,
   admission, audit and single-flight rules are the farm's. Draining
   the engine makes it only for engines nothing else is driving. A
   refusal (fence down, host crashed) replies [Unavailable]. *)
let request_sync t ~cls =
  let reply = ref Unavailable in
  request t ~cls (fun r -> reply := r);
  Simnet.Engine.run t.engine;
  !reply

(* A classloading provider backed by the synchronous path — what a DVM
   client plugs into its registry. *)
let provider t : Jvm.Classreg.provider =
 fun cls ->
  match request_sync t ~cls with
  | Bytes b -> Some b
  | Not_found | Unavailable | Overloaded -> None
