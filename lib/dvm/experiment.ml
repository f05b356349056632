(* The end-to-end experiment harness (§4.1, Figure 6): runs a benchmark
   application under a service architecture and accounts for every
   component of the wall time — client execution, client-side service
   work, proxy work, and network transfer.

   Both architectures use identical clients and identical class bytes
   at the origin; only the service architecture differs, mirroring the
   paper's methodology ("identical software and hardware platforms, but
   under different service architectures"). *)

type architecture =
  | Monolithic
  | Dvm of { cached : bool }

let architecture_name = function
  | Monolithic -> "Monolithic"
  | Dvm { cached = false } -> "DVM"
  | Dvm { cached = true } -> "DVM cached"

type result = {
  r_app : string;
  r_arch : architecture;
  r_wall_us : int64;
  r_client_us : int64; (* execution + client-resident service work *)
  r_proxy_us : int64;
  r_transfer_us : int64;
  r_bytes_fetched : int;
  r_static_checks : int;
  r_dynamic_checks : int;
  r_enforcement_checks : int;
  r_audit_events : int;
  r_output : string;
  r_decisions : (string * bool) list;
      (* enforcement (permission, verdict) sequence, in order *)
}

(* A standard audit+security+verification pipeline over a policy that,
   per §4.1, forces the services to parse every class and examine
   every instruction. *)
let standard_policy =
  Security.Policy_xml.parse
    {|<policy default="allow">
        <domain name="apps">
          <grant permission="file.open"/>
          <grant permission="file.read"/>
          <grant permission="property.get"/>
          <grant permission="thread.setPriority"/>
        </domain>
        <operation permission="file.open" class="java/io/FileInputStream" method="&lt;init&gt;"/>
        <operation permission="file.read" class="java/io/FileInputStream" method="read"/>
        <operation permission="property.get" class="java/lang/System" method="getProperty"/>
        <operation permission="thread.setPriority" class="java/lang/Thread" method="setPriority"/>
        <principal classprefix="" domain="apps"/>
      </policy>|}

type services = {
  verifier_counters : Verifier.Static_verifier.counters;
  security_counters : Security.Rewriter.counters;
  audit_counters : Monitor.Instrument.counters;
  filters : Rewrite.Filter.t list;
}

let standard_services ?(policy = standard_policy) ?elide ~oracle () =
  let verifier_counters = Verifier.Static_verifier.fresh_counters () in
  let security_counters = Security.Rewriter.fresh_counters () in
  let audit_counters = Monitor.Instrument.fresh_counters () in
  {
    verifier_counters;
    security_counters;
    audit_counters;
    filters =
      [
        Verifier.Static_verifier.filter ~counters:verifier_counters ~oracle ();
        Security.Rewriter.filter ~counters:security_counters ?elide policy;
        Monitor.Instrument.audit_filter ~counters:audit_counters ();
        (* §4.3: the self-describing attribute goes on last so it
           reflects the fully transformed class *)
        Verifier.Reflect.filter ();
      ];
  }

(* Wrap a provider so that each served class is charged for LAN
   transfer and client-side parsing, and the byte volume recorded. *)
let metered_provider inner ~transfer_us ~bytes =
 fun name ->
  match inner name with
  | None -> None
  | Some b ->
    transfer_us := !transfer_us + Costs.lan_transfer_us ~bytes:(String.length b);
    bytes := !bytes + String.length b;
    Some b

let run_arch ?elide ~policy ~arch (app : Workloads.Appgen.app) : result =
  let origin = Workloads.Appgen.origin app in
  let transfer_us = ref 0 in
  let bytes = ref 0 in
  match arch with
  | Monolithic ->
    let provider = metered_provider origin ~transfer_us ~bytes in
    let client =
      Client.create_monolithic ~policy ~oracle_provider:origin ~provider ()
    in
    let outcome = Client.run_main client app.Workloads.Appgen.entry in
    let output =
      match outcome with
      | Ok () -> Jvm.Vmstate.output client.Client.vm
      | Error e -> "uncaught: " ^ Jvm.Interp.describe_throwable e
    in
    (* The null-proxy configuration performs auditing in the client:
       charge the equivalent per-invocation cost. *)
    let audit_equiv =
      Int64.of_float
        (Costs.monolithic_audit_us_per_invocation
        *. float_of_int client.Client.vm.Jvm.Vmstate.invocations)
    in
    let parse_us =
      Int64.of_float (Costs.client_parse_us_per_byte *. Float.of_int !bytes)
    in
    let client_us =
      Int64.add (Client.client_time_us client) (Int64.add audit_equiv parse_us)
    in
    {
      r_app = app.Workloads.Appgen.spec.Workloads.Appgen.name;
      r_arch = arch;
      r_wall_us = Int64.add client_us (Int64.of_int !transfer_us);
      r_client_us = client_us;
      r_proxy_us = 0L;
      r_transfer_us = Int64.of_int !transfer_us;
      r_bytes_fetched = !bytes;
      r_static_checks = client.Client.local_verify_checks;
      r_dynamic_checks = 0;
      r_enforcement_checks = 0;
      r_audit_events = client.Client.vm.Jvm.Vmstate.invocations;
      r_output = output;
      r_decisions = [];
    }
  | Dvm { cached } ->
    let engine = Simnet.Engine.create () in
    (* The proxy's oracle grows as classes stream through it: a class
       referencing one the proxy has not yet seen gets deferred
       (dynamic) link checks, exactly the lazy scheme of §3.1 that
       Figure 8 counts. *)
    let seen : (string, Verifier.Oracle.class_info) Hashtbl.t =
      Hashtbl.create 64
    in
    let boot_oracle =
      Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes ())
    in
    let oracle name =
      match boot_oracle name with
      | Some i -> Some i
      | None -> Hashtbl.find_opt seen name
    in
    let services = standard_services ~policy ?elide ~oracle () in
    let record_filter =
      Rewrite.Filter.make ~name:"record-seen" (fun cf ->
          Hashtbl.replace seen cf.Bytecode.Classfile.name
            (Verifier.Oracle.info_of_classfile cf);
          cf)
    in
    let services =
      { services with filters = services.filters @ [ record_filter ] }
    in
    let proxy =
      Proxy.create engine
        ~cache_capacity:(if cached then 48 * 1024 * 1024 else 0)
        ~origin
        ~origin_latency:(fun _ -> 0L) (* intranet origin *)
        ~filters:services.filters ()
    in
    (if cached then
       (* Model a prior fetch by another client in the organization:
          warm the cache. *)
       List.iter
         (fun cf ->
           ignore (Proxy.request_sync proxy ~cls:cf.Bytecode.Classfile.name))
         app.Workloads.Appgen.classes);
    let proxy_cpu_before = proxy.Proxy.cpu_us in
    let provider = Proxy.provider proxy in
    (* The console shares the simulation's clock, so its audit trail
       lines up with telemetry spans captured during the run. *)
    let console =
      Monitor.Console.create ~clock:(fun () -> Simnet.Engine.now engine) ()
    in
    let cclient =
      Monitor.Console.handshake console ~user:"egs" ~hardware:"x86-200MHz-64MB"
        ~native_format:"x86" ~vm_version:"dvm-1.0"
    in
    let security_server = Security.Server.create policy in
    let provider = metered_provider provider ~transfer_us ~bytes in
    let client =
      Client.create_dvm ~console ~session:cclient.Monitor.Console.session
        ~security_server ~sid:"apps" ~provider ()
    in
    Monitor.Console.record_app_start console cclient
      ~app:app.Workloads.Appgen.entry;
    let outcome = Client.run_main client app.Workloads.Appgen.entry in
    let output =
      match outcome with
      | Ok () -> Jvm.Vmstate.output client.Client.vm
      | Error e -> "uncaught: " ^ Jvm.Interp.describe_throwable e
    in
    (* Proxy CPU time attributable to this run: uncached fetches run
       the pipeline, cached fetches cost the fixed cache service. *)
    let proxy_us = Int64.sub proxy.Proxy.cpu_us proxy_cpu_before in
    let parse_us =
      Int64.of_float (Costs.client_parse_us_per_byte *. Float.of_int !bytes)
    in
    let client_us = Int64.add (Client.client_time_us client) parse_us in
    let dynamic_checks =
      match client.Client.rt_verifier with
      | Some s -> s.Verifier.Rt_verifier.dynamic_checks
      | None -> 0
    in
    let enforcement_checks =
      match client.Client.enforcement with
      | Some e -> e.Security.Enforcement.checks
      | None -> 0
    in
    {
      r_app = app.Workloads.Appgen.spec.Workloads.Appgen.name;
      r_arch = arch;
      r_wall_us =
        Int64.add client_us (Int64.add proxy_us (Int64.of_int !transfer_us));
      r_client_us = client_us;
      r_proxy_us = proxy_us;
      r_transfer_us = Int64.of_int !transfer_us;
      r_bytes_fetched = !bytes;
      r_static_checks =
        services.verifier_counters
          .Verifier.Static_verifier.total_static_checks;
      r_dynamic_checks = dynamic_checks;
      r_enforcement_checks = enforcement_checks;
      r_audit_events = Monitor.Audit.count (Monitor.Console.audit console);
      r_output = output;
      r_decisions =
        (match client.Client.enforcement with
        | Some e -> Security.Enforcement.decisions e
        | None -> []);
    }

let run ?(policy = standard_policy) ?elide ~arch app =
  Telemetry.Global.with_span ~cat:"experiment"
    ~args:
      [
        ("app", app.Workloads.Appgen.spec.Workloads.Appgen.name);
        ("arch", architecture_name arch);
      ]
    "experiment.run"
    (fun () -> run_arch ?elide ~policy ~arch app)
