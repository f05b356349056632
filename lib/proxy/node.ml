(* The transparent network proxy hosting the static service components
   (§2–§3): it intercepts class requests from clients, fetches from the
   origin (an Internet web server or an intranet file store), runs the
   filter pipeline once per class, signs the result, caches it, and
   leaves an audit trail for the administration console.

   Placement mirrors the paper: the proxy sits at the organization's
   trust boundary on a physically secure host. Its CPU serializes
   pipeline work and its memory holds per-request working state — the
   resource model behind the Figure 10 scaling experiment.

   This module is the single-node implementation's simnet shell. The
   serve decision — fence, versioned L1/L2, single flight, admission —
   is [Serve_core]; this module owns what the core must not: the
   engine, the host CPU, the origin fetch, the pipeline call, tracing
   and audit. Every call into the core is one [step], and the shell
   performs the step's effects in the order the core returned them.
   [Proxy] re-exports it and [Farm] composes several nodes behind a
   consistent-hash ring. *)

module C = Serve_core

type reply = C.reply = Bytes of string | Not_found | Unavailable | Overloaded

type origin = string -> string option

(* Fixed model parameters: the origin uplink, and the per-request
   working state as a multiple of the class's bytes (buffers for the
   raw bytes, the decoded image and the output). *)
let origin_bandwidth_bps = 100_000_000
let working_set_factor = 12

type t = {
  engine : Simnet.Engine.t;
  host : Simnet.Host.t;
  cache : C.Cache.t; (* the shard's own L1 *)
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
  core : C.t; (* the serve decision over [cache], the L2 and [admission] *)
  parked : (int, reply -> unit) Hashtbl.t; (* joiners' continuations, by id *)
  admission : C.Admission.t;
  mutable requests : int;
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
  let cache = C.Cache.create ~capacity:cache_capacity
  and admission = C.Admission.create () in
  let host = Simnet.Host.create ~cpu_factor ~mem_capacity engine ~name:host_name in
  {
    engine;
    host;
    cache;
    filters;
    policy_version = 0;
    serving_allowed = (fun () -> true);
    origin;
    origin_latency;
    signer;
    memo;
    audit;
    core = C.create ~l1:cache ?l2 admission;
    parked = Hashtbl.create 8;
    admission;
    requests = 0;
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

let event t trace kind detail =
  Telemetry.Trace.event trace ~node:t.host.Simnet.Host.name ~kind detail

(* One request as the shell's closures see it: the node, the class,
   its span's context and its continuation. *)
type req = { node : t; cls : string; trace : Telemetry.Trace.ctx; k : reply -> unit }

(* One core step for the request [r]. *)
let rec step ({ node = t; _ } as r) input =
  let h = t.host in
  perform r
    (C.step t.core ~now:(Simnet.Engine.now t.engine) ~up:(Simnet.Host.is_up h)
       ~epoch:h.Simnet.Host.epoch ~backlog:(Simnet.Host.backlog_us h)
       ~fence:(t.serving_allowed ()) ~version:t.policy_version input)

(* Perform a step's effects in order. *)
and perform r = function
  | [] -> ()
  | out :: rest ->
    perform_one r out;
    perform r rest

and perform_one ({ node = t; cls; trace; k } as r) = function
  | C.Refuse why ->
    refuse r why;
    Simnet.Engine.schedule t.engine ~delay:0L (fun () ->
        k (match why with C.Shed _ -> Overloaded | C.Down | C.Fenced -> Unavailable))
  | C.Compute (cost, job) ->
    (match job with
    | C.Rewarm (_, bytes) ->
      t.l2_hits <- t.l2_hits + 1;
      if Telemetry.Global.on () then Telemetry.Global.incr "proxy.l2_hits";
      event t trace "proxy.l2_hit"
        (Printf.sprintf "class %s: %d bytes from shared tier" cls
           (String.length bytes))
    | C.Hit _ | C.Missing _ | C.Rewrite _ -> ());
    t.cpu_us <- Int64.add t.cpu_us cost;
    Simnet.Host.compute t.host ~cost_us:cost
      ~on_fail:(fun () -> step r (C.Failed job))
      (fun () ->
        (* Stats and the audit record land at completion: the audit
           timestamp must not lead the virtual clock. The closure holds
           only the request and its job. *)
        let { node = t; cls; _ } = r in
        (match job with
        | C.Hit (_, bytes) | C.Rewarm (_, bytes) ->
          t.bytes_served <- t.bytes_served + String.length bytes;
          log t (match job with C.Hit _ -> "proxy.cache_hit" | _ -> "proxy.l2_hit") cls
        | C.Missing _ -> log t "proxy.not_found" cls
        | C.Rewrite _ -> ());
        step r (C.Done job))
  | C.Join (id, joined) ->
    t.coalesced <- t.coalesced + 1;
    if Telemetry.Global.on () then Telemetry.Global.incr "proxy.coalesced";
    event t trace "proxy.coalesce.join"
      (Printf.sprintf "class %s: joined %d in flight" cls joined);
    Hashtbl.replace t.parked id k
  | C.Fetch f -> (
    match t.origin cls with
    | None -> step r (C.Fetched (f, None))
    | Some bytes ->
      t.origin_fetches <- t.origin_fetches + 1;
      Telemetry.Global.incr "proxy.origin_fetches";
      Simnet.Engine.schedule t.engine
        ~delay:
          (Int64.add (t.origin_latency cls)
             (C.transfer_us ~bps:origin_bandwidth_bps bytes))
        (fun () -> step r (C.Fetched (f, Some bytes))))
  | C.Run (f, raw) -> transform r f raw
  | C.Hop job ->
    Simnet.Engine.schedule t.engine ~delay:0L (fun () -> step r (C.Failed job))
  | C.Reply reply -> k reply
  | C.Settle (reply, joined) -> (
    let deliver () =
      k reply;
      List.iter
        (fun id ->
          let kj = Hashtbl.find t.parked id in
          Hashtbl.remove t.parked id;
          kj reply)
        joined
    in
    (* A failure fans out without a span. *)
    match reply with
    | Bytes _ when joined <> [] && Telemetry.Global.on () ->
      Telemetry.Global.with_span ~cat:"proxy"
        ~args:[ ("class", cls); ("waiters", string_of_int (List.length joined)) ]
        "proxy.coalesce.fanout" deliver
    | Bytes _ | Not_found | Unavailable | Overloaded -> deliver ())

(* The reason a refusal leaves behind: the fence's counter and event,
   or the shed's arithmetic, so a trace explains the reply without
   correlating logs. *)
and refuse { node = t; cls; trace; _ } = function
  | C.Down -> ()
  | C.Fenced ->
    (* The shard's lease lapsed (partition) or it is replaying the log
       after a restart: serving now could hand out bytes rewritten
       under a revoked policy. The reason event mirrors the counter
       1:1; off-trace the line still reaches the recorder. *)
    t.fenced_rejects <- t.fenced_rejects + 1;
    if Telemetry.Global.on () then Telemetry.Global.incr "control.fenced_rejects";
    if Telemetry.Trace.live trace then
      event t trace "control.fenced_rejects"
        (Printf.sprintf "class %s: shard fenced, failing over" cls)
    else
      Telemetry.Flight.note ~at:(Simnet.Engine.now t.engine)
        ~node:t.host.Simnet.Host.name
        (Printf.sprintf "control.fenced_rejects class %s: shard fenced" cls)
  | C.Shed (verdict, est_us, deadline) ->
    if Telemetry.Global.on () then Telemetry.Global.incr "proxy.overloaded";
    event t trace
      (if verdict = C.Admission.Shed_queue then "admission.shed_queue"
       else "admission.shed_deadline")
      (Printf.sprintf "class %s: est %Ldus, deadline %s" cls est_us
         (match deadline with Some d -> Printf.sprintf "%Ldus" d | None -> "none"))

(* Run the pipeline on the fetched bytes — synchronously, since it is
   pure CPU work whose cost then occupies the host CPU in simulated
   time — and hand its output to the core. The trace scope makes the
   pipeline's telemetry spans leaves of the request's distributed
   trace. The working state is held until the flight settles. *)
and transform ({ node = t; cls; trace; k } as r) f raw =
  let ws = working_set_factor * String.length raw in
  Simnet.Host.allocate t.host ws;
  t.pipeline_runs <- t.pipeline_runs + 1;
  let o =
    Telemetry.Trace.scope trace ~node:t.host.Simnet.Host.name (fun () ->
        Telemetry.Global.with_span ~cat:"proxy" ~args:[ ("class", cls) ]
          "proxy.transform" (fun () ->
            Pipeline.run ~policy_version:t.policy_version ?memo:t.memo
              ?signer:t.signer t.filters raw))
  in
  let out = o.Pipeline.out_bytes in
  let sign_cost =
    match t.signer with
    | None -> 0L
    | Some _ -> Int64.of_int (Dsig.Sign.sign_cost_us ~bytes:(String.length out))
  in
  if Int64.compare sign_cost 0L > 0 then
    Telemetry.Global.observe "pipeline.sign_us" sign_cost;
  let k reply =
    Simnet.Host.release t.host ws;
    (match reply with
    | Bytes _ -> (
      t.bytes_served <- t.bytes_served + String.length out;
      match o.Pipeline.rejected with
      | Some (filter, reason) ->
        log t "proxy.reject" (Printf.sprintf "%s: %s (%s)" cls reason filter)
      | None -> log t "proxy.serve" cls)
    | Not_found | Unavailable | Overloaded -> ());
    k reply
  in
  step { r with k }
    (C.Ran (f, out, o.Pipeline.out_version,
            Int64.add (Pipeline.total_cost o) sign_cost))

(* Handle one client request for a class. The callback fires exactly
   once, in simulated time: with the response when the proxy has it
   ready to put on the client's wire (the caller models the client-side
   link), or with [Unavailable] if the proxy host is down, fenced, or
   crashes while the request is in flight — the reply the farm fails
   over on. *)
let request ?deadline ?(trace = Telemetry.Trace.none) t ~cls k =
  t.requests <- t.requests + 1;
  if Telemetry.Global.on () then begin
    Telemetry.Global.incr "proxy.requests";
    Telemetry.Global.set_gauge "proxy.mem_pressure_x1000"
      (Int64.of_float (1000.0 *. Simnet.Host.mem_pressure t.host))
  end;
  let input = C.Request { id = t.requests; cls; deadline } in
  if not (Telemetry.Trace.live trace) then
    step { node = t; cls; trace = Telemetry.Trace.none; k } input
  else
    let sp =
      Telemetry.Trace.start trace ~node:t.host.Simnet.Host.name
        ~args:[ ("class", cls) ] "proxy.request"
    in
    step
      { node = t; cls; trace = Telemetry.Trace.ctx_of sp;
        k = (fun reply -> Telemetry.Trace.finish sp; k reply) }
      input

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
