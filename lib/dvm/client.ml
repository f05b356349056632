(* Client assembly: builds a VM configured either as a *monolithic*
   virtual machine (all services local: load-time verification,
   stack-introspection security, client-side auditing) or as a *DVM
   client* (thin runtime plus the dynamic service components:
   RTVerifier link checks, the enforcement manager, the monitoring
   natives). *)

type architecture =
  | Monolithic
  | Dvm_client

type t = {
  vm : Jvm.Vmstate.t;
  architecture : architecture;
  (* DVM dynamic components (present on DVM clients). *)
  rt_verifier : Verifier.Rt_verifier.stats option;
  enforcement : Security.Enforcement.t option;
  profiler : Monitor.Profiler.t option;
  (* Monolithic local-service accounting. *)
  mutable local_verify_checks : int;
  mutable local_verify_errors : int;
}

(* Telemetry around the client's window onto the network: each class
   fetch is a span (and a round-trip latency observation) in the
   "client" subsystem, nested inside the registry's jvm.class_load
   span and containing the proxy/pipeline spans it triggers. *)
let traced_provider (provider : Jvm.Classreg.provider) : Jvm.Classreg.provider
    =
 fun name ->
  if not (Telemetry.Global.on ()) then provider name
  else
    Telemetry.Global.with_span ~cat:"client" ~args:[ ("class", name) ]
      ~observe_hist:"client.fetch_us" "client.fetch" (fun () ->
        Telemetry.Global.incr "client.fetches";
        match provider name with
        | Some b as r ->
          Telemetry.Global.add "client.bytes_fetched"
            (Int64.of_int (String.length b));
          r
        | None -> None)

(* --- Overload-aware farm sessions. ---

   The simulated-time client side of the overload-control story. Every
   fetch carries an absolute deadline (now + budget), propagated to
   the farm through the Httpwire Deadline-Us header so shard admission
   control can shed against it; the session enforces the same deadline
   on its own side — a response that lands late is dropped, never
   delivered, so "no successful response outlives its deadline" holds
   by construction (a counter records any would-be violation).

   Retries and hedges draw from one session-wide token pool: a hedge
   is a speculative retry against the next shard in ring order, taken
   when the first attempt is slow rather than failed, and the pool
   caps the total extra load one session can push onto a struggling
   farm. First response wins; the loser's delivery is discarded by the
   settled flag. When the whole farm is unavailable (every shard down
   or breaker-barred) the session browns out: it serves the stale
   bytes it last saw for the class's archive key, counted apart from
   fresh serves. *)

module Session = struct
  type served = Fresh of string | Stale of string | Failed

  type t = {
    engine : Simnet.Engine.t;
    farm : Proxy.Farm.t;
    budget_us : int64; (* per-fetch deadline budget *)
    hedge_after_us : int64 option; (* hedge delay; None disables hedging *)
    advertise_deadline : bool; (* carry Deadline-Us on the wire? *)
    tokens : int ref; (* session-wide retry+hedge pool *)
    deliver : bytes:int -> (unit -> unit) -> unit; (* client-side wire *)
    slo : Telemetry.Slo.t option; (* per-outcome SLO feed *)
    stale_key : string -> string;
    stale : (string, string) Hashtbl.t; (* archive key -> last fresh bytes *)
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

  (* The pause before re-sending a shed request. *)
  let retry_backoff_us = 50_000L

  let create ?(budget_us = 2_000_000L) ?hedge_after_us
      ?(advertise_deadline = true) ?(retry_budget = max_int)
      ?(deliver = fun ~bytes:_ k -> k ()) ?slo ?(stale_key = fun cls -> cls)
      engine farm =
    {
      engine;
      farm;
      budget_us;
      hedge_after_us;
      advertise_deadline;
      tokens = ref retry_budget;
      deliver;
      slo;
      stale_key;
      stale = Hashtbl.create 64;
      fetches = 0;
      served = 0;
      bytes_served = 0;
      stale_served = 0;
      hedges = 0;
      hedge_wins = 0;
      retries = 0;
      overloaded_seen = 0;
      failed = 0;
      deadline_violations = 0;
    }

  (* Spend one token from the session pool; [false] means the pool is
     dry and the caller must not add load. *)
  let take_token t =
    if !(t.tokens) > 0 then begin
      decr t.tokens;
      true
    end
    else false

  let fetch t ~cls k =
    t.fetches <- t.fetches + 1;
    let deadline = Int64.add (Simnet.Engine.now t.engine) t.budget_us in
    (* Mint the distributed trace here: the session is where a request
       is born, so the client span is the root every hop nests under. *)
    let root =
      if not (Telemetry.Trace.enabled ()) then Telemetry.Trace.null_span
      else
        Telemetry.Trace.root ~node:"client"
          ~args:
            [ ("class", cls); ("deadline_us", Int64.to_string deadline) ]
          "client.fetch"
    in
    let rctx = Telemetry.Trace.ctx_of root in
    let settled = ref false in
    (* The deadline and hedge timers. Settling cancels both, so a
       settled fetch leaves neither queued and each fires only on a
       fetch still open. *)
    let timers = ref [] in
    let finish outcome =
      if not !settled then begin
        settled := true;
        List.iter (Simnet.Engine.cancel t.engine) !timers;
        (match outcome with
        | Fresh b ->
          t.served <- t.served + 1;
          t.bytes_served <- t.bytes_served + String.length b;
          Telemetry.Global.observe "client.request_us"
            (Int64.sub (Simnet.Engine.now t.engine)
               (Int64.sub deadline t.budget_us))
        | Stale _ ->
          t.stale_served <- t.stale_served + 1;
          Telemetry.Global.incr "client.stale_served";
          Telemetry.Trace.event rctx ~node:"client" ~kind:"client.serve_stale"
            (Printf.sprintf "class %s browned out to archived bytes" cls)
        | Failed -> t.failed <- t.failed + 1);
        Telemetry.Trace.finish root;
        (match t.slo with
        | None -> ()
        | Some s ->
          Telemetry.Slo.record s ~now_us:(Simnet.Engine.now t.engine)
            (match outcome with
            | Fresh b -> Telemetry.Slo.Fresh (String.length b)
            | Stale _ -> Telemetry.Slo.Stale
            | Failed -> Telemetry.Slo.Failed));
        k outcome
      end
    in
    let brownout_or k_miss =
      match Hashtbl.find_opt t.stale (t.stale_key cls) with
      | Some b -> finish (Stale b)
      | None -> k_miss ()
    in
    (* Attempts still in flight (primary, hedge, scheduled retries).
       A failed racer settles the fetch only when it was the last one
       standing — otherwise the other racer keeps its chance. *)
    let pending = ref 0 in
    let one_down () =
      pending := !pending - 1;
      if !pending = 0 then brownout_or (fun () -> finish Failed)
    in
    let rec attempt ~hedged () =
      if !settled then ()
      else begin
        incr pending;
        (* The deadline rides the wire: encode the request with its
           Deadline-Us header and decode it back at the farm edge —
           what a real proxy would parse off the socket. A session
           that does not advertise it still enforces the deadline on
           its own side, but the shards cannot shed for it — the
           no-overload-control baseline. *)
        let raw =
          Proxy.Httpwire.encode_request
            ?deadline_us:(if t.advertise_deadline then Some deadline else None)
            ?trace:(Telemetry.Trace.wire rctx) ~cls ()
        in
        match Proxy.Httpwire.decode_request_full raw with
        | exception Proxy.Httpwire.Bad_message _ ->
          (* A name the request line cannot carry (a space, a line
             break, nothing at all): no shard will ever see it, so the
             attempt fails after one hop, like an unavailable farm. *)
          Simnet.Engine.schedule t.engine ~delay:0L one_down
        | req ->
          let cls = req.Proxy.Httpwire.rq_cls in
          let deadline = req.Proxy.Httpwire.rq_deadline_us in
          (* The edge rebuilds the context from the decoded headers, not
             from session state — the wire is the source of truth. *)
          let wctx =
            Telemetry.Trace.of_wire ~trace_id:req.Proxy.Httpwire.rq_trace_id
              ~parent_span:req.Proxy.Httpwire.rq_parent_span
          in
          let offset = if hedged then 1 else 0 in
          Proxy.Farm.request ?deadline ~offset ~trace:wctx t.farm ~cls
            (fun reply ->
              if !settled then ()
              else
                match reply with
                | Proxy.Bytes b ->
                  t.deliver ~bytes:(String.length b) (fun () ->
                      if not !settled then begin
                        let now = Simnet.Engine.now t.engine in
                        match deadline with
                        | Some d when Int64.compare now d > 0 ->
                          (* Late: never delivered. The deadline timer
                             settles the fetch; this records that a
                             serve would have violated the deadline had
                             the drop been missing. *)
                          t.deadline_violations <- t.deadline_violations + 1;
                          pending := !pending - 1
                        | _ ->
                          if hedged then begin
                            t.hedge_wins <- t.hedge_wins + 1;
                            Telemetry.Global.incr "client.hedge_wins";
                            Telemetry.Trace.event rctx ~node:"client"
                              ~kind:"client.hedge_win"
                              (Printf.sprintf
                               "class %s: hedged request beat the primary" cls)
                          end;
                          Hashtbl.replace t.stale (t.stale_key cls) b;
                          finish (Fresh b)
                      end)
                | Proxy.Not_found ->
                  (* Definitive: the class does not exist anywhere, so
                     the racers would only confirm it. *)
                  finish Failed
                | Proxy.Overloaded ->
                  (* The shard shed us: retry after a backoff iff the
                     session still has tokens and the deadline can still
                     be met. Never failover sideways — that amplifies. *)
                  t.overloaded_seen <- t.overloaded_seen + 1;
                  (match t.slo with
                  | Some s ->
                    Telemetry.Slo.note_shed s
                      ~now_us:(Simnet.Engine.now t.engine)
                  | None -> ());
                  let retry_at =
                    Int64.add (Simnet.Engine.now t.engine) retry_backoff_us
                  in
                  let in_budget =
                    match deadline with
                    | Some d -> Int64.compare retry_at d < 0
                    | None -> true
                  in
                  if in_budget && take_token t then begin
                    t.retries <- t.retries + 1;
                    pending := !pending - 1;
                    Simnet.Engine.schedule t.engine ~delay:retry_backoff_us
                      (fun () ->
                        if !settled then ()
                        else if !pending > 0 then
                          (* The other racer is still live; don't stack
                             a third copy of the work on the farm. *)
                          ()
                        else attempt ~hedged:false ())
                  end
                  else one_down ()
                | Proxy.Unavailable ->
                  (* Every candidate down or breaker-barred. *)
                  one_down ())
      end
    in
    (* Deadline enforcement, client side: at expiry the fetch settles
       (browning out if it can) and any response still in flight is
       dropped on arrival by the settled flag. *)
    let deadline_timer =
      Simnet.Engine.timer t.engine ~delay:t.budget_us (fun () ->
          Telemetry.Trace.event rctx ~node:"client"
            ~kind:"client.deadline_expired"
            (Printf.sprintf "class %s: budget %Ldus exhausted" cls t.budget_us);
          brownout_or (fun () -> finish Failed))
    in
    timers := [ deadline_timer ];
    (* Tail-latency hedge: if the first attempt has neither settled
       nor failed after the hedge delay, race a second request against
       the next shard in ring order — spending a token, so hedging
       cannot amplify an overload either. *)
    (match t.hedge_after_us with
    | None -> ()
    | Some h ->
      let hedge_timer =
        Simnet.Engine.timer t.engine ~delay:h (fun () ->
            if take_token t then begin
              t.hedges <- t.hedges + 1;
              Telemetry.Global.incr "client.hedges";
              Telemetry.Trace.event rctx ~node:"client" ~kind:"client.hedge"
                (Printf.sprintf "class %s: racing ring-offset 1 after %Ldus"
                   cls h);
              attempt ~hedged:true ()
            end)
      in
      timers := [ hedge_timer; deadline_timer ]);
    attempt ~hedged:false ()

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
      client.local_verify_errors <-
        client.local_verify_errors + List.length errors;
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
      architecture = Monolithic;
      rt_verifier = None;
      enforcement = None;
      profiler = None;
      local_verify_checks = 0;
      local_verify_errors = 0;
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
    architecture = Dvm_client;
    rt_verifier = Some rt;
    enforcement;
    profiler = Some profiler;
    local_verify_checks = 0;
    local_verify_errors = 0;
  }

let run_main client entry =
  if not (Telemetry.Global.on ()) then Jvm.Interp.run_main client.vm entry
  else
    Telemetry.Global.with_span ~cat:"client" ~args:[ ("entry", entry) ]
      "client.run" (fun () ->
        let invocations0 = client.vm.Jvm.Vmstate.invocations in
        let instrs0 = client.vm.Jvm.Vmstate.instr_count in
        let r = Jvm.Interp.run_main client.vm entry in
        Telemetry.Global.add "jvm.methods_invoked"
          (Int64.of_int (client.vm.Jvm.Vmstate.invocations - invocations0));
        Telemetry.Global.add "jvm.bytecodes_executed"
          (Int64.of_int (client.vm.Jvm.Vmstate.instr_count - instrs0));
        r)

let client_time_us client = Costs.client_us_of_vm client.vm
