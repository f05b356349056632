(* Client assembly: builds a VM configured either as a *monolithic*
   virtual machine (all services local: load-time verification,
   stack-introspection security, client-side auditing) or as a *DVM
   client* (thin runtime plus the dynamic service components:
   RTVerifier link checks, the enforcement manager, the monitoring
   natives). *)

type t = {
  vm : Jvm.Vmstate.t;
  (* DVM dynamic components (present on DVM clients). *)
  rt_verifier : Verifier.Rt_verifier.stats option;
  enforcement : Security.Enforcement.t option;
  profiler : Monitor.Profiler.t option;
  (* Monolithic local-service accounting. *)
  mutable local_verify_checks : int;
}

(* Telemetry around the client's window onto the network: each class
   fetch is a span (and a round-trip latency observation) in the
   "client" subsystem, nested inside the registry's jvm.class_load
   span and containing the proxy/pipeline spans it triggers. *)
let traced_provider (provider : Jvm.Classreg.provider) : Jvm.Classreg.provider
    =
 fun name ->
  if not (Telemetry.enabled ()) then provider name
  else
    Telemetry.with_span ~cat:"client" ~args:[ ("class", name) ]
      ~observe_hist:"client.fetch_us" "client.fetch" (fun () ->
        Telemetry.incr "client.fetches";
        match provider name with
        | Some b as r ->
          Telemetry.add "client.bytes_fetched"
            (Int64.of_int (String.length b));
          r
        | None -> None)

(* --- Overload-aware farm sessions. ---

   The simulated-time client side of the overload-control story, as a
   shell over [Fetch_core]: the core decides each fetch's deadline,
   hedge, retries and brown-out, and the edge's walk; this shell owns
   the engine, the wire, the client's link, the counters, tracing and
   the SLO feed, and performs each step's effects in the order the core
   returned them. Every fetch carries an absolute deadline (now +
   budget), propagated to the farm through the Httpwire Deadline-Us
   header so shard admission control can shed against it. *)

module Session = struct
  module F = Fetch_core

  type served = F.served = Fresh of string | Stale of string | Failed

  type t = {
    engine : Simnet.Engine.t;
    farm : Proxy.Farm.t;
    core : F.session; (* budget, hedge delay, token pool, stale archive *)
    advertise_deadline : bool; (* carry Deadline-Us on the wire? *)
    deliver : bytes:int -> (unit -> unit) -> unit; (* client-side wire *)
    slo : Telemetry.Slo.t option; (* per-outcome SLO feed *)
    stale_key : string -> string;
    mutable fetches : int;
    mutable served : int;
    mutable bytes_served : int;
    mutable stale_served : int;
    mutable hedges : int;
    mutable hedge_wins : int; (* fetches the hedged request won *)
    mutable retries : int;
    mutable overloaded_seen : int; (* Overloaded replies observed *)
    mutable failed : int;
    mutable deadline_violations : int; (* must stay 0: late serves *)
  }

  let create ?(budget_us = 2_000_000L) ?hedge_after_us
      ?(advertise_deadline = true) ?(retry_budget = max_int)
      ?(deliver = fun ~bytes:_ k -> k ()) ?slo ?(stale_key = fun cls -> cls)
      engine farm =
    { engine; farm; core = F.session ~budget_us ?hedge_after_us ~tokens:retry_budget ();
      advertise_deadline; deliver; slo; stale_key;
      fetches = 0; served = 0; bytes_served = 0; stale_served = 0; hedges = 0;
      hedge_wins = 0; retries = 0; overloaded_seen = 0; failed = 0;
      deadline_violations = 0 }

  (* One fetch as its shell's closures see it. *)
  type fetch = {
    s : t;
    f : F.fetch;
    cls : string;
    k : served -> unit;
    root : Telemetry.Trace.span; (* the client span, the trace's root *)
    rctx : Telemetry.Trace.ctx;
    mutable timers : Simnet.Engine.timer list; (* deadline and hedge *)
  }

  (* A step of the fetch: its start, a timer, a delivery, a hop before
     the edge. Its attempts' steps at the edge are [Proxy.Farm]'s,
     which hands on the effects that are not the edge's. *)
  let rec on_fetch sf input =
    let farm = sf.s.farm in
    perform sf
      (F.step farm.Proxy.Farm.breakers ~now:(Simnet.Engine.now sf.s.engine)
         ~up:farm.Proxy.Farm.up input)

  and perform sf = function
    | [] -> ()
    | out :: rest ->
      effect sf out;
      perform sf rest

  (* The session's effects, in the order the core returned them. *)
  and effect sf = function
    | F.Arm (F.Retry, delay) ->
      sf.s.retries <- sf.s.retries + 1;
      Simnet.Engine.schedule sf.s.engine ~delay (fun () ->
          on_fetch sf (F.Fired (sf.f, F.Retry)))
    | F.Arm (timer, delay) ->
      sf.timers <-
        Simnet.Engine.timer sf.s.engine ~delay (fun () ->
            on_fetch sf (F.Fired (sf.f, timer)))
        :: sf.timers
    | F.Dispatch a -> dispatch sf a
    | F.Deliver (a, b) ->
      sf.s.deliver ~bytes:(String.length b) (fun () ->
          on_fetch sf (F.Delivered (a, b)))
    | F.Shed ->
      sf.s.overloaded_seen <- sf.s.overloaded_seen + 1;
      Option.iter
        (fun slo -> Telemetry.Slo.note_shed slo ~now_us:(Simnet.Engine.now sf.s.engine))
        sf.s.slo
    | F.Late ->
      (* The deadline timer settles the fetch; this records that a
         serve would have violated the deadline had the drop been
         missing. *)
      sf.s.deadline_violations <- sf.s.deadline_violations + 1
    | F.Expired ->
      Telemetry.Trace.event sf.rctx ~node:"client"
        ~kind:"client.deadline_expired"
        (Printf.sprintf "class %s: budget %Ldus exhausted" sf.cls
           sf.s.core.F.budget_us)
    | F.Won ->
      sf.s.hedge_wins <- sf.s.hedge_wins + 1;
      Telemetry.incr "client.hedge_wins";
      Telemetry.Trace.event sf.rctx ~node:"client" ~kind:"client.hedge_win"
        (Printf.sprintf "class %s: hedged request beat the primary" sf.cls)
    | F.Cancel -> List.iter (Simnet.Engine.cancel sf.s.engine) sf.timers
    | F.Settle served -> finish sf served
    | F.Skip _ | F.Trip _ | F.Failover _ | F.Send _ | F.No_shard | F.Answer _ -> ()

  (* Put an attempt on the wire. The deadline rides it: encode the
     request with its Deadline-Us header and decode it back at the farm
     edge — what a real proxy would parse off the socket. A session
     that does not advertise it still enforces the deadline on its own
     side, but the shards cannot shed for it — the no-overload-control
     baseline. *)
  and dispatch sf a =
    let s = sf.s in
    if a.F.hedged then begin
      s.hedges <- s.hedges + 1;
      Telemetry.incr "client.hedges";
      Telemetry.Trace.event sf.rctx ~node:"client" ~kind:"client.hedge"
        (Printf.sprintf "class %s: racing ring-offset 1 after %Ldus" sf.cls
           (Option.value ~default:0L s.core.F.hedge_after_us))
    end;
    let raw =
      Proxy.Httpwire.encode_request
        ?deadline_us:(if s.advertise_deadline then Some sf.f.F.deadline else None)
        ?trace:(Telemetry.Trace.wire sf.rctx) ~cls:sf.cls ()
    in
    match Proxy.Httpwire.decode_request_full raw with
    | exception Proxy.Httpwire.Bad_message _ ->
      (* A name the request line cannot carry (a space, a line break,
         nothing at all): no shard will ever see it, so the attempt
         fails after one hop, like an unavailable farm. *)
      Simnet.Engine.schedule s.engine ~delay:0L (fun () -> on_fetch sf (F.Hop a))
    | { Proxy.Httpwire.rq_cls = cls; rq_deadline_us = deadline; rq_trace_id; rq_parent_span } ->
      (* The edge rebuilds the context from the decoded headers, not
         from session state — the wire is the source of truth. *)
      Proxy.Farm.route s.farm ~cls ~deadline
        ~trace:(Telemetry.Trace.of_wire ~trace_id:rq_trace_id ~parent_span:rq_parent_span)
        a effect sf

  and finish sf served =
    let s = sf.s in
    let now = Simnet.Engine.now s.engine in
    (match served with
    | Fresh b ->
      s.served <- s.served + 1;
      s.bytes_served <- s.bytes_served + String.length b;
      Telemetry.observe "client.request_us"
        (Int64.sub now (Int64.sub sf.f.F.deadline s.core.F.budget_us))
    | Stale _ ->
      s.stale_served <- s.stale_served + 1;
      Telemetry.incr "client.stale_served";
      Telemetry.Trace.event sf.rctx ~node:"client" ~kind:"client.serve_stale"
        (Printf.sprintf "class %s browned out to archived bytes" sf.cls)
    | Failed -> s.failed <- s.failed + 1);
    Telemetry.Trace.finish sf.root;
    (match s.slo with
    | None -> ()
    | Some slo ->
      Telemetry.Slo.record slo ~now_us:now
        (match served with
        | Fresh b -> Telemetry.Slo.Fresh (String.length b)
        | Stale _ -> Telemetry.Slo.Stale
        | Failed -> Telemetry.Slo.Failed));
    sf.k served

  let fetch t ~cls k =
    t.fetches <- t.fetches + 1;
    let f = F.fetch t.core ~key:(t.stale_key cls) ~now:(Simnet.Engine.now t.engine) in
    (* Mint the distributed trace here: the session is where a request
       is born, so the client span is the root every hop nests under. *)
    let root =
      if not (Telemetry.Trace.enabled ()) then Telemetry.Trace.null_span
      else
        Telemetry.Trace.root ~node:"client"
          ~args:[ ("class", cls); ("deadline_us", Int64.to_string f.F.deadline) ]
          "client.fetch"
    in
    on_fetch
      { s = t; f; cls; k; root; rctx = Telemetry.Trace.ctx_of root; timers = [] }
      (F.Start f)

  (* A client population's counters, summed. *)
  type tally = {
    tl_fetches : int;
    tl_served : int;
    tl_bytes_served : int;
    tl_stale_served : int;
    tl_hedges : int;
    tl_hedge_wins : int;
    tl_retries : int;
    tl_overloaded_seen : int;
    tl_failed : int;
    tl_deadline_violations : int;
  }

  let tally sessions =
    let sum f = Array.fold_left (fun acc (s : t) -> acc + f s) 0 sessions in
    {
      tl_fetches = sum (fun s -> s.fetches);
      tl_served = sum (fun s -> s.served);
      tl_bytes_served = sum (fun s -> s.bytes_served);
      tl_stale_served = sum (fun s -> s.stale_served);
      tl_hedges = sum (fun s -> s.hedges);
      tl_hedge_wins = sum (fun s -> s.hedge_wins);
      tl_retries = sum (fun s -> s.retries);
      tl_overloaded_seen = sum (fun s -> s.overloaded_seen);
      tl_failed = sum (fun s -> s.failed);
      tl_deadline_violations = sum (fun s -> s.deadline_violations);
    }
end

(* The monolithic client verifies everything it loads, locally, at
   load time: full static verification against an oracle that can see
   whatever the provider can serve. The cost lands on the client. *)
let monolithic_verify_hook client provider =
  let decode_cache : (string, Bytecode.Classfile.t option) Hashtbl.t =
    Hashtbl.create 32
  in
  let oracle_extra name =
    match Hashtbl.find_opt decode_cache name with
    | Some v -> v
    | None ->
      let v =
        match provider name with
        | None -> None
        | Some bytes -> (
          match Bytecode.Decode.class_of_bytes bytes with
          | cf -> Some cf
          | exception Bytecode.Decode.Format_error _ -> None)
      in
      Hashtbl.replace decode_cache name v;
      v
  in
  let boot_oracle = Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes ()) in
  let oracle name =
    match boot_oracle name with
    | Some i -> Some i
    | None -> Option.map Verifier.Oracle.info_of_classfile (oracle_extra name)
  in
  fun (cf : Bytecode.Classfile.t) ->
    match Verifier.Static_verifier.verify ~oracle cf with
    | Verifier.Static_verifier.Verified (_, stats) ->
      client.local_verify_checks <-
        client.local_verify_checks + stats.Verifier.Static_verifier.sv_static_checks;
      Jvm.Vmstate.add_cost client.vm
        (Int64.of_float
           (Costs.monolithic_verify_us_per_check
           *. Float.of_int stats.Verifier.Static_verifier.sv_static_checks))
    | Verifier.Static_verifier.Rejected (errors, stats) ->
      client.local_verify_checks <-
        client.local_verify_checks + stats.Verifier.Static_verifier.sv_static_checks;
      raise
        (Jvm.Classreg.Load_rejected
           {
             cls = cf.Bytecode.Classfile.name;
             reason =
               (match errors with
               | e :: _ -> Verifier.Verror.to_string e
               | [] -> "verification failed");
           })

(* The monolithic JDK security manager: the stack-introspection check
   at the operations the system designers anticipated, charged at
   Figure 9's measured overheads. *)
let jdk_security_hook vm (policy : Security.Policy.t) ~sid op =
  let overhead =
    match op with
    | "property.get" | "property.set" -> Costs.jdk_overhead_get_property
    | "file.open" -> Costs.jdk_overhead_open_file
    | "thread.setPriority" -> Costs.jdk_overhead_set_priority
    | _ -> Costs.jdk_overhead_get_property
  in
  Jvm.Vmstate.add_cost vm overhead;
  if not (Security.Policy.decide policy ~sid ~permission:op) then
    Jvm.Vmstate.throw vm ~cls:Jvm.Vmstate.c_security ~message:op

let create_monolithic ?(policy = Security.Policy.empty) ?oracle_provider
    ~provider () =
  let vm = Jvm.Bootlib.fresh_vm ~provider:(traced_provider provider) () in
  let client =
    {
      vm;
      rt_verifier = None;
      enforcement = None;
      profiler = None;
      local_verify_checks = 0;
    }
  in
  (* The verifier's environment lookups resolve against the raw origin
     (no transfer metering): resolution state is local to the client in
     a monolithic VM. *)
  let oracle_provider = Option.value ~default:provider oracle_provider in
  Jvm.Classreg.set_on_load vm.Jvm.Vmstate.reg
    (monolithic_verify_hook client oracle_provider);
  vm.Jvm.Vmstate.security_hook <-
    Some (jdk_security_hook vm policy ~sid:"default");
  client

let create_dvm ?console ?(session = 0) ?security_server ?(sid = "default")
    ~provider () =
  let vm = Jvm.Bootlib.fresh_vm ~provider:(traced_provider provider) () in
  let rt = Verifier.Rt_verifier.install vm in
  let enforcement =
    Option.map (fun server -> Security.Enforcement.install vm ~server ~sid)
      security_server
  in
  let profiler = Monitor.Profiler.install vm ?console ~session () in
  {
    vm;
    rt_verifier = Some rt;
    enforcement;
    profiler = Some profiler;
    local_verify_checks = 0;
  }

let run_main client entry =
  if not (Telemetry.enabled ()) then Jvm.Interp.run_main client.vm entry
  else
    Telemetry.with_span ~cat:"client" ~args:[ ("entry", entry) ]
      "client.run" (fun () ->
        let invocations0 = client.vm.Jvm.Vmstate.invocations in
        let instrs0 = client.vm.Jvm.Vmstate.instr_count in
        let r = Jvm.Interp.run_main client.vm entry in
        Telemetry.add "jvm.methods_invoked"
          (Int64.of_int (client.vm.Jvm.Vmstate.invocations - invocations0));
        Telemetry.add "jvm.bytecodes_executed"
          (Int64.of_int (client.vm.Jvm.Vmstate.instr_count - instrs0));
        r)

let client_time_us client = Costs.client_us_of_vm client.vm
