(* perfbench: the benchmark of the class-fetch path (see README.md).

     main.exe --workload fetch-cold|farm-churn|app-run --seed N
              --seconds S --trace 0|1

   Untraced, a run splits S seconds of window over four passes, each on
   a fresh set-up of the same seed with the GC settled before its
   window, and reports the end-to-end metrics: set-up time is the
   median, and host times are each op's fastest pass. Traced, it runs
   one pass untraced and one traced, reports the per-layer metrics and
   writes the traced spans under perfbench/out/. Host time is the
   process's CPU clock (see span.ml). The last line of
   standard output is the result JSON; the exit code is 1 when an op
   failed or served an incorrect output. *)

let workloads = [ "fetch-cold"; "farm-churn"; "app-run" ]

(* Every per-layer metric with its unit, in report order. A workload
   reports 0 for a layer it does not exercise. *)
let per_layer =
  [
    ("bytecode.decode_ns_per_byte", "ns/B");
    ("bytecode.encode_ns_per_byte", "ns/B");
    ("verifier.us_per_class", "us");
    ("verifier.static_checks", "count");
    ("verifier.ns_per_check", "ns");
    ("security.us_per_class", "us");
    ("security.checks_inserted", "count");
    ("security.checks_elided", "count");
    ("security.checks_hoisted", "count");
    ("monitor.us_per_class", "us");
    ("monitor.probes_inserted", "count");
    ("reflect.us_per_class", "us");
    ("analysis.certify_us_per_class", "us");
    ("analysis.certify_fail", "count");
    ("dsig.sign_us_per_class", "us");
    ("pipeline.us_per_class", "us");
    ("pipeline.stage_coverage", "ratio");
    ("pipeline.size_ratio", "ratio");
    ("pipeline.classes", "count");
    ("simnet.events", "count");
    ("simnet.events_per_op", "count");
    ("simnet.ns_per_event", "ns");
    ("farm.requests", "count");
    ("farm.failover_ratio", "ratio");
    ("farm.unavailable", "count");
    ("farm.breaker_skips", "count");
    ("admission.decisions", "count");
    ("admission.shed_ratio", "ratio");
    ("node.pipeline_runs", "count");
    ("node.coalesced", "count");
    ("node.fenced_rejects", "count");
    ("cache.l1_lookups", "count");
    ("cache.l1_hit_ratio", "ratio");
    ("cache.l2_lookups", "count");
    ("cache.l2_hit_ratio", "ratio");
    ("cache.stale_drops", "count");
    ("cache.invalidations", "count");
    ("cache.evictions", "count");
    ("control.commits", "count");
    ("control.commit_virt_p50_us", "us");
    ("control.heartbeats", "count");
    ("control.elections", "count");
    ("control.compactions", "count");
    ("control.snapshot_installs", "count");
    ("control.apply_us", "us");
    ("session.fetches", "count");
    ("session.hedge_ratio", "ratio");
    ("session.hedge_win_ratio", "ratio");
    ("session.retries", "count");
    ("session.stale_served", "count");
    ("jvm.instrs_per_op", "count");
    ("jvm.ns_per_instr", "ns");
    ("jvm.invocations_per_op", "count");
    ("jvm.classes_loaded_per_op", "count");
    ("jvm.load_share", "ratio");
    ("enforcement.checks_per_op", "count");
    ("rtverifier.dynamic_checks_per_op", "count");
    ("layer.pipeline_share", "ratio");
    ("layer.farm_share", "ratio");
    ("layer.jvm_share", "ratio");
    ("telemetry.overhead", "ratio");
    ("fail_ratio", "ratio");
    ("ops", "count");
  ]

(* Untraced, the window is split over this many passes. *)
let passes = 4

type measured = { outcome : World.outcome; setup_s : float }

(* The passes of one seed do the same work, so an op's host time is its
   fastest pass, and so is each slice of the window: what the code costs
   when the shared machine did not slow it down. [attempted] and
   [failed] count every pass. *)
let fastest = function
  | [] -> invalid_arg "fastest: no pass"
  | (first : World.outcome) :: rest ->
    let least get =
      let a = Array.copy (get first) in
      List.iter
        (fun o ->
          let b = get o in
          if Array.length b <> Array.length a then
            failwith "two passes of one seed did different work";
          Array.iteri (fun i x -> a.(i) <- Float.min a.(i) x) b)
        rest;
      a
    in
    let all = first :: rest in
    let sum get = List.fold_left (fun acc o -> acc + get o) 0 all in
    let slices_ns = least (fun o -> o.World.slices_ns) in
    let window_ns = Array.fold_left ( +. ) 0.0 slices_ns in
    let ms ns = Printf.sprintf "%.1f" (ns /. 1e6) in
    {
      first with
      World.attempted = sum (fun o -> o.World.attempted);
      failed = sum (fun o -> o.World.failed);
      slices_ns;
      window_ns;
      host_us = least (fun o -> o.World.host_us);
      notes =
        Printf.sprintf "window ms per pass %s; fastest slices %s"
          (String.concat " " (List.map (fun o -> ms o.World.window_ns) all))
          (ms window_ns)
        :: first.World.notes;
    }

(* Each pass sets the workload up on a fresh world (set-up time is the
   median), compacts the heap so the window starts from a settled GC,
   then runs the window. *)
let measure ~passes ~traced setup run =
  Span.reset ();
  Span.on := false;
  let times = ref [] and outcomes = ref [] in
  for _ = 1 to passes do
    Gc.compact ();
    let t0 = Span.now_ns () in
    let w = setup () in
    times := (Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9) :: !times;
    Gc.compact ();
    Span.on := traced;
    outcomes := run w :: !outcomes;
    Span.on := false
  done;
  { outcome = fastest (List.rev !outcomes); setup_s = World.median !times }

(* [seconds]: the length of one pass's window. *)
let measure_workload name ~seed ~seconds ~passes ~traced =
  match name with
  | "fetch-cold" ->
    measure ~passes ~traced
      (fun () -> Fetch_cold.setup ~seed ~seconds)
      Fetch_cold.run
  | "farm-churn" ->
    measure ~passes ~traced
      (fun () -> Farm_churn.setup ~seed ~seconds)
      Farm_churn.run
  | _ ->
    measure ~passes ~traced
      (fun () -> App_run.setup ~seed ~seconds)
      App_run.run

let ops_per_s (o : World.outcome) =
  World.div (Float.of_int (Array.length o.World.host_us)) (o.World.window_ns /. 1e9)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let end_to_end p =
  let o = p.outcome in
  let host = sorted o.World.host_us and virt = sorted o.World.virt_us in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    ("setup_s", p.setup_s, "s");
    ("ops_per_s", ops_per_s o, "1/s");
    ("op_p50_us", World.percentile host 0.50, "us");
    ("op_p99_us", World.percentile host 0.99, "us");
    ("virt_p50_us", World.percentile virt 0.50, "us");
    ("virt_p99_us", World.percentile virt 0.99, "us");
    ( "served_ratio",
      World.ratio (o.World.attempted - o.World.failed) o.World.attempted,
      "ratio" );
    ( "peak_heap_mb",
      Float.of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0,
      "MB" );
  ]

let layer_metrics ~untraced traced =
  let o = traced.outcome in
  let measured =
    o.World.layer
    @ [
        ( "telemetry.overhead",
          World.div (ops_per_s untraced.outcome) (ops_per_s o),
          "ratio" );
        ("fail_ratio", World.ratio o.World.failed o.World.attempted, "ratio");
        ("ops", Float.of_int o.World.attempted, "count");
      ]
  in
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) measured with
      | Some (_, v, _) -> (name, v, unit)
      | None -> (name, 0.0, unit))
    per_layer

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name
              (number v) unit)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 in
  let usage =
    "main.exe --workload fetch-cold|farm-churn|app-run --seed N --seconds S \
     --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " the workload to run");
      ("--seed", Arg.Set_int seed, " the input seed");
      ( "--seconds",
        Arg.Set_int seconds,
        " nominal window length over all passes, 1-60" );
      ("--trace", Arg.Set_int trace, " 0: end-to-end, 1: per-layer metrics");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  if
    (not (List.mem !workload workloads))
    || !seconds < 1 || !seconds > 60
    || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let run =
    measure_workload !workload ~seed:!seed
      ~seconds:(Float.of_int !seconds /. Float.of_int passes)
  in
  let runs, metrics, notes =
    if !trace = 0 then
      let p = run ~passes ~traced:false in
      ([ p ], end_to_end p, [])
    else begin
      let untraced = run ~passes:1 ~traced:false in
      let traced = run ~passes:1 ~traced:true in
      let path = Printf.sprintf "perfbench/out/spans-%s-%d.tsv" !workload !seed in
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      Span.write path;
      let self =
        List.map
          (fun (name, ns, calls) ->
            Printf.sprintf "self %-28s %12.3f ms %9d calls" name (ns /. 1e6)
              calls)
          (Span.self_times ())
      in
      ( [ untraced; traced ],
        layer_metrics ~untraced traced,
        ("spans written to " ^ path) :: self )
    end
  in
  let o = (List.nth runs (List.length runs - 1)).outcome in
  let correct = List.for_all (fun p -> p.outcome.World.failed = 0) runs in
  let ops = Array.length o.World.host_us in
  Printf.printf "input_digest %s\n" o.World.input_digest;
  Printf.printf "ops %d per pass, %d run in all (%d beyond p99)\n" ops
    o.World.attempted (ops / 100);
  List.iter print_endline (o.World.notes @ notes);
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric %s %s %s\n" name (number v) unit)
    metrics;
  print_endline
    (json ~correct ~attempted:o.World.attempted ~failed:o.World.failed metrics);
  exit (if correct then 0 else 1)
