(* app-run: a seeded population of small synthetic apps covering all
   five kernels. Set-up rewrites every class once into the warm proxy
   cache; each op is a fresh DVM client ([Dvm.Client.create_dvm])
   running one app end to end, its classes fetched through the farm as
   cache hits. The interpreter, class registry, enforcement and the
   audit natives do the work and the pipeline none, so the rewriter's
   output quality (checks elided or hoisted) shows as client run time. *)

module A = Workloads.Appgen

let population_size = 40

(* App runs per second of window. *)
let ops_per_second = 160.0
let kernels = [| A.Lexer; A.Parser; A.Compiler; A.Database; A.Solver |]

(* Interpreted instructions one driver iteration costs per worker class:
   the kernel's [step] plus the worker's own code. *)
let per_worker = function
  | A.Lexer -> 1900
  | A.Parser -> 1000
  | A.Compiler -> 650
  | A.Database -> 550
  | A.Solver -> 6200

(* App [i]'s shape comes from a fixed grid, not a draw: 8-30 classes,
   the kernel cycling through all five, and a work level that spreads
   the apps' run times evenly over a 5:1 range. The seed changes the
   generated code and the op order, never the size mix, so every seed
   measures the same distribution. *)
let spec ~seed i =
  let kernel = kernels.(i mod Array.length kernels) in
  let classes = 8 + (i * 7 mod 23) in
  let level = i / Array.length kernels in
  let instructions = 60_000 * (7 + (4 * level)) / 7 in
  {
    A.name = Printf.sprintf "g%d" i;
    prefix = Printf.sprintf "g%d/" i;
    classes;
    target_bytes = classes * 1500;
    work_iters = max 1 (instructions / ((classes - 2) * per_worker kernel));
    kernel;
    cold_fraction = 0.25;
    seed;
  }

type world = {
  engine : Simnet.Engine.t;
  farm : Proxy.Farm.t;
  session : Dvm.Client.Session.t;
  policy : Security.Policy.t;
  population : A.app array;
  inputs : (string, string) Hashtbl.t;  (* class name -> input bytes *)
  reference : string array;  (* each app's output on a monolithic VM *)
  order : int array;  (* op i runs population.(order.(i)) *)
  input_digest : string;
}

let setup ~seed ~seconds =
  let st = World.rng ~seed ~salt:3 in
  let population =
    Array.init population_size (fun i ->
        A.build (spec ~seed:(Random.State.bits st) i))
  in
  let policy =
    World.policy
      (Array.to_list
         (Array.map
            (fun (a : A.app) ->
              ("work.step", a.A.spec.A.prefix ^ "Kernel", "step"))
            population))
  in
  let inputs = Hashtbl.create 1024 in
  Array.iter
    (fun a ->
      List.iter
        (fun (name, bytes) -> Hashtbl.replace inputs name bytes)
        (A.class_bytes a))
    population;
  let origin = Hashtbl.find_opt inputs in
  (* The reference output: each app on a monolithic VM over its
     unrewritten classes. *)
  let reference =
    Array.map
      (fun (a : A.app) ->
        let client = Dvm.Client.create_monolithic ~policy ~provider:origin () in
        match Dvm.Client.run_main client a.A.entry with
        | Ok () -> Jvm.Vmstate.output client.Dvm.Client.vm
        | Error e ->
          failwith
            ("app-run: reference run failed: " ^ Jvm.Interp.describe_throwable e))
      population
  in
  let engine = Simnet.Engine.create () in
  let farm =
    World.farm ~cache_capacity:(48 lsl 20) ~shards:2 ~origin
      ~filters:(World.stack policy).World.filters engine
  in
  let session =
    World.session engine farm (Simnet.Link.ethernet_10mb engine)
  in
  (* Rewrite every class once into the warm cache. *)
  Array.iter
    (fun (a : A.app) ->
      List.iter
        (fun (c : Bytecode.Classfile.t) ->
          match World.fetch_sync engine session c.Bytecode.Classfile.name with
          | Dvm.Client.Session.Fresh _, _ -> ()
          | _ -> failwith "app-run: set-up could not warm the cache")
        a.A.classes)
    population;
  let order =
    World.rounds st ~n:population_size
      ~len:(int_of_float (seconds *. ops_per_second))
  in
  {
    engine;
    farm;
    session;
    policy;
    population;
    inputs;
    reference;
    order;
    input_digest =
      World.digest_inputs
        (String.concat "," (Array.to_list (Array.map string_of_int order))
        :: List.concat_map
             (fun a -> List.map snd (A.class_bytes a))
             (Array.to_list population));
  }

let run w : World.outcome =
  let ops = Array.length w.order in
  let host = Array.make ops 0.0 and virt = Array.make ops 0.0 in
  let failed = ref 0 and slices = Array.make ops 0.0 in
  let instrs = ref 0 and invocations = ref 0 and loaded = ref 0 in
  let enforcement = ref 0 and dynamic = ref 0 in
  let served = ref 0 and original = ref 0 in
  let farm0 = World.farm_counts w.farm None [ w.session ] in
  let events0 = Simnet.Engine.events_processed w.engine in
  for i = 0 to ops - 1 do
    let k = w.order.(i) in
    let fetch_virt = ref 0L and fetch_failed = ref false in
    let provider name =
      Span.with_span "classload.provider" (fun () ->
          let outcome, v = World.fetch_sync w.engine w.session name in
          fetch_virt := Int64.add !fetch_virt v;
          match outcome with
          | Dvm.Client.Session.Fresh bytes ->
            served := !served + String.length bytes;
            original := !original + String.length (Hashtbl.find w.inputs name);
            Some bytes
          | Dvm.Client.Session.Stale _ | Dvm.Client.Session.Failed ->
            fetch_failed := true;
            None)
    in
    Span.op := i;
    let t0 = Span.now_ns () in
    let client =
      Span.with_span "client.create_dvm" (fun () ->
          Dvm.Client.create_dvm
            ~security_server:(Security.Server.create w.policy)
            ~sid:"apps" ~provider ())
    in
    let result =
      Span.with_span "jvm.run_main" (fun () ->
          Dvm.Client.run_main client w.population.(k).A.entry)
    in
    let t1 = Span.now_ns () in
    let dt = Int64.to_float (Int64.sub t1 t0) in
    host.(i) <- dt /. 1e3;
    slices.(i) <- dt;
    virt.(i) <-
      Int64.to_float (Int64.add !fetch_virt (Dvm.Client.client_time_us client));
    Span.op_span ~op:i ~start:t0 ~stop:t1;
    let vm = client.Dvm.Client.vm in
    instrs := !instrs + vm.Jvm.Vmstate.instr_count;
    invocations := !invocations + vm.Jvm.Vmstate.invocations;
    loaded := !loaded + vm.Jvm.Vmstate.reg.Jvm.Classreg.classes_fetched;
    (match client.Dvm.Client.enforcement with
    | Some e -> enforcement := !enforcement + e.Security.Enforcement.checks
    | None -> ());
    (match client.Dvm.Client.rt_verifier with
    | Some s -> dynamic := !dynamic + s.Verifier.Rt_verifier.dynamic_checks
    | None -> ());
    (* Each app's output must equal its monolithic reference. *)
    let ok =
      Span.with_span "check" (fun () ->
          (not !fetch_failed)
          &&
          match result with
          | Ok () -> String.equal (Jvm.Vmstate.output vm) w.reference.(k)
          | Error _ -> false)
    in
    if not ok then incr failed
  done;
  let window = Array.fold_left ( +. ) 0.0 slices in
  let layer =
    if not !Span.on then []
    else begin
      let events = Simnet.Engine.events_processed w.engine - events0 in
      let farm_d =
        World.diff farm0 (World.farm_counts w.farm None [ w.session ])
      in
      let per_op n = World.ratio n ops in
      let share ns = World.div ns window in
      World.farm_metrics farm_d
      @ World.simnet_metrics ~events ~ops ~elsewhere_ns:0.0
      @ [
          ("jvm.instrs_per_op", per_op !instrs, "count");
          ( "jvm.ns_per_instr",
            World.div (Span.self_ns "jvm.run_main") (Float.of_int !instrs),
            "ns" );
          ("jvm.invocations_per_op", per_op !invocations, "count");
          ("jvm.classes_loaded_per_op", per_op !loaded, "count");
          ("jvm.load_share", share (Span.total_ns "classload.provider"), "ratio");
          ("enforcement.checks_per_op", per_op !enforcement, "count");
          ("rtverifier.dynamic_checks_per_op", per_op !dynamic, "count");
          ("pipeline.size_ratio", World.ratio !served !original, "ratio");
          ("layer.farm_share", share (Span.total_ns "sim.run"), "ratio");
          ( "layer.jvm_share",
            share (Span.self_ns "jvm.run_main" +. Span.self_ns "client.create_dvm"),
            "ratio" );
        ]
    end
  in
  {
    World.attempted = ops;
    failed = !failed;
    window_ns = window;
    slices_ns = slices;
    host_us = host;
    virt_us = virt;
    layer;
    notes = [];
    input_digest = w.input_digest;
  }
