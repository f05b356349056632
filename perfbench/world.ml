(* What the three workloads share: the seeded input draws, the security
   policies, the filter stack wrapped for tracing, the farm and its
   client sessions, the probe that re-runs one class stage by stage, and
   the per-layer counters read back from the system's public record
   fields. *)

module A = Workloads.Appgen
module CF = Bytecode.Classfile

type metric = string * float * string

(* What one timed window produced. *)
type outcome = {
  attempted : int;
  failed : int;  (* not served fresh, or failed its correctness check *)
  window_ns : float;  (* host time of the window, correctness checks excluded *)
  slices_ns : float array;  (* the window cut where the work is the same in every pass *)
  host_us : float array;  (* per op *)
  virt_us : float array;  (* per op, on the simulation's clock *)
  layer : metric list;  (* per-layer metrics, traced windows only *)
  notes : string list;
  input_digest : string;
}

let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [len] draws from [0, n): seeded permutations back to back, so each
   element comes once per round and the rounds differ in order. *)
let rounds st ~n ~len =
  let perm = Array.init n Fun.id in
  Array.init len (fun i ->
      if i mod n = 0 then shuffle st perm;
      perm.(i mod n))

let digest_inputs parts =
  Dsig.Md5.to_hex
    (Dsig.Md5.digest (String.concat "" (List.map Dsig.Md5.digest parts)))

let div a b = if b = 0.0 then 0.0 else a /. b
let ratio a b = div (Float.of_int a) (Float.of_int b)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear interpolation between the closest ranks of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. Float.of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((pos -. Float.of_int lo) *. (sorted.(hi) -. sorted.(lo)))

(* --- Slicing the window. --- *)

(* A window's host time, cut into consecutive slices at points where
   every pass of the same seed has done the same work (an op issued, an
   arrival due), with correctness checks left out. *)
type slicer = {
  mutable at : int64;
  mutable excluded : int64;
  mutable cut_ns : float list;
}

let slicer () = { at = Span.now_ns (); excluded = 0L; cut_ns = [] }

let cut s =
  let now = Span.now_ns () in
  s.cut_ns <- Int64.to_float (Int64.sub (Int64.sub now s.at) s.excluded) :: s.cut_ns;
  s.at <- now;
  s.excluded <- 0L

(* Leave the time since [t0] out of the current slice. *)
let exclude_since s t0 = s.excluded <- Int64.add s.excluded (Int64.sub (Span.now_ns ()) t0)

(* Closes the last slice; returns the slices and their sum. *)
let slices s =
  cut s;
  let a = Array.of_list (List.rev s.cut_ns) in
  (a, Array.fold_left ( +. ) 0.0 a)

(* --- Policies. --- *)

(* The operation map of the paper's security experiments (§4.1) plus a
   workload's own (permission, class, method) operations. Every
   permission named is granted, so no check ever denies. *)
let policy ops =
  let ops =
    [
      ("file.open", "java/io/FileInputStream", "&lt;init&gt;");
      ("file.read", "java/io/FileInputStream", "read");
      ("property.get", "java/lang/System", "getProperty");
      ("thread.setPriority", "java/lang/Thread", "setPriority");
    ]
    @ ops
  in
  let perms =
    List.sort_uniq String.compare (List.map (fun (p, _, _) -> p) ops)
  in
  Security.Policy_xml.parse
    (Printf.sprintf
       {|<policy default="allow"><domain name="apps">%s</domain>%s<principal classprefix="" domain="apps"/></policy>|}
       (String.concat ""
          (List.map (fun p -> Printf.sprintf {|<grant permission="%s"/>|} p) perms))
       (String.concat ""
          (List.map
             (fun (p, c, m) ->
               Printf.sprintf
                 {|<operation permission="%s" class="%s" method="%s"/>|} p c m)
             ops)))

(* The certification sweep's policy: one permission per app over every
   worker class (those with a [hot] method). The drivers' loops then
   hold many sites of one check, so elision and hoisting have work. *)
let covering_ops (apps : A.app list) =
  List.concat_map
    (fun (app : A.app) ->
      let perm = "work." ^ app.A.spec.A.name in
      List.filter_map
        (fun (c : CF.t) ->
          if
            List.exists
              (fun (m : CF.meth) -> String.equal m.CF.m_name "hot")
              c.CF.methods
          then Some (perm, c.CF.name, "*")
          else None)
        app.A.classes)
    apps

(* --- The filter stack. --- *)

type stack = {
  filters : Rewrite.Filter.t list;
  verifier : Verifier.Static_verifier.counters;
  security : Security.Rewriter.counters;
  audit : Monitor.Instrument.counters;
  certify_fail : int ref;
  last : CF.t option ref;  (* the latest filter output, read by [probe] *)
  runs : (string, int) Hashtbl.t;  (* traced pipeline runs per input class *)
}

let boot_oracle =
  lazy (Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes ()))

(* A filter re-made through the public constructor with a span around
   it. The stack's first filter also counts the traced window's
   pipeline runs per class, which [pipeline_layer] weights probes by. *)
let traced ~last ~runs ~first (f : Rewrite.Filter.t) =
  let name = "filter." ^ f.Rewrite.Filter.name in
  let probe_name = "probe." ^ name in
  Rewrite.Filter.make ~name:f.Rewrite.Filter.name (fun cf ->
      let out =
        if not !Span.on then Rewrite.Filter.apply f cf
        else begin
          if first && not !Span.in_probe then
            Hashtbl.replace runs cf.CF.name
              (1 + Option.value ~default:0 (Hashtbl.find_opt runs cf.CF.name));
          Span.with_span
            (if !Span.in_probe then probe_name else name)
            (fun () -> Rewrite.Filter.apply f cf)
        end
      in
      last := Some out;
      out)

(* verify -> security rewrite -> [certify] -> audit -> reflect. *)
let stack ?(certify = false) policy =
  let verifier = Verifier.Static_verifier.fresh_counters () in
  let security = Security.Rewriter.fresh_counters () in
  let audit = Monitor.Instrument.fresh_counters () in
  let certify_fail = ref 0 in
  let certs = Analysis.Certificate.create_store () in
  let gate = Dvm.Certification.gate ~policy ~certs in
  (* [Proxy.create] takes no pipeline gate, so the certifier rides the
     stack as a filter that rejects the way the gate would. It sits
     right after the security rewriter and re-proves that filter's
     output against the certificates it left, before later filters
     shift the code. *)
  let certify_filter =
    Rewrite.Filter.make ~name:"certify" (fun cf ->
        match gate cf with
        | None -> cf
        | Some reason ->
          incr certify_fail;
          Rewrite.Filter.reject ~filter:"certify" ~cls:cf.CF.name reason)
  in
  let raw =
    [
      Verifier.Static_verifier.filter ~counters:verifier
        ~oracle:(Lazy.force boot_oracle) ();
      Security.Rewriter.filter ~counters:security ~certs policy;
    ]
    @ (if certify then [ certify_filter ] else [])
    @ [
        Monitor.Instrument.audit_filter ~counters:audit ();
        Verifier.Reflect.filter ();
      ]
  in
  let last = ref None and runs = Hashtbl.create 64 in
  {
    filters = List.mapi (fun i f -> traced ~last ~runs ~first:(i = 0) f) raw;
    verifier;
    security;
    audit;
    certify_fail;
    last;
    runs;
  }

(* Classes the stack rejected (the §3.1 replacement was served). *)
let rejections s =
  s.verifier.Verifier.Static_verifier.classes_rejected + !(s.certify_fail)

(* The filters' own counters, summed over stacks. *)
let filter_counts stacks =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stacks in
  [
    ( "verifier.static_checks",
      sum (fun s -> s.verifier.Verifier.Static_verifier.total_static_checks) );
    ( "security.checks_inserted",
      sum (fun s -> s.security.Security.Rewriter.checks_inserted) );
    ( "security.checks_elided",
      sum (fun s -> s.security.Security.Rewriter.checks_elided) );
    ( "security.checks_hoisted",
      sum (fun s -> s.security.Security.Rewriter.checks_hoisted) );
    ( "monitor.probes_inserted",
      sum (fun s -> s.audit.Monitor.Instrument.probes_inserted) );
    ("analysis.certify_fail", sum (fun s -> !(s.certify_fail)));
  ]

let diff before after =
  List.map2 (fun (k, a) (_, b) -> (k, b - a)) before after

let filter_metrics d =
  let checks = List.assoc "verifier.static_checks" d in
  List.map (fun (k, n) -> (k, Float.of_int n, "count")) d
  @ [
      ( "verifier.ns_per_check",
        div (Span.total_ns "filter.verifier") (Float.of_int checks),
        "ns" );
      ("verifier.us_per_class", Span.mean_us "filter.verifier", "us");
      ("security.us_per_class", Span.mean_us "filter.security", "us");
      ("analysis.certify_us_per_class", Span.mean_us "filter.certify", "us");
      ("monitor.us_per_class", Span.mean_us "filter.auditor", "us");
      ("reflect.us_per_class", Span.mean_us "filter.reflect", "us");
    ]

(* --- Farm, sessions, simulation. --- *)

(* By default an intranet origin: a file store 10 ms away. *)
let farm ?signer ?l2 ?cpu_factor ?(origin_latency = fun _ -> Simnet.Engine.ms 10)
    ~cache_capacity ~shards ~origin ~filters engine =
  let origin key = Span.with_span "origin" (fun () -> origin key) in
  Proxy.Farm.create engine
    (Array.init shards (fun i ->
         Proxy.create ?signer ?l2 ?cpu_factor ~cache_capacity
           ~host_name:(Printf.sprintf "shard%d" i)
           engine ~origin ~origin_latency ~filters ()))

let session ?hedge_after_us ?stale_key engine farm link =
  Dvm.Client.Session.create ?hedge_after_us ?stale_key
    ~deliver:(fun ~bytes k ->
      Span.with_span "session.deliver" (fun () ->
          Simnet.Link.transfer link ~bytes (fun () ->
              Span.with_span "session.deliver" k)))
    engine farm

let run_sim ?until engine =
  Span.with_span "sim.run" (fun () -> Simnet.Engine.run ?until engine)

(* One fetch run to completion: what was served, and its latency on the
   simulation's clock. *)
let fetch_sync engine session key =
  let result = ref (Dvm.Client.Session.Failed, 0L) in
  let v0 = Simnet.Engine.now engine in
  Dvm.Client.Session.fetch session ~cls:key (fun served ->
      result := (served, Int64.sub (Simnet.Engine.now engine) v0));
  run_sim engine;
  !result

let farm_counts (farm : Proxy.Farm.t) (l2 : Proxy.Cache.t option) sessions =
  let shards = Array.to_list farm.Proxy.Farm.shards in
  let nodes f = List.fold_left (fun acc (n : Proxy.t) -> acc + f n) 0 shards in
  let l1 f = nodes (fun n -> f n.Proxy.cache) in
  let l2c f = match l2 with Some c -> f c | None -> 0 in
  let caches f = l1 f + l2c f in
  let adm f = nodes (fun n -> f n.Proxy.admission) in
  let clients f =
    List.fold_left
      (fun acc (s : Dvm.Client.Session.t) -> acc + f s)
      0 sessions
  in
  [
    ("farm.requests", farm.Proxy.Farm.requests);
    ("farm.failovers", farm.Proxy.Farm.failovers);
    ("farm.unavailable", farm.Proxy.Farm.unavailable);
    ("farm.breaker_skips", farm.Proxy.Farm.breaker_skips);
    ("admission.admitted", adm Proxy.Admission.admitted);
    ( "admission.shed",
      adm Proxy.Admission.shed_queue + adm Proxy.Admission.shed_deadline );
    ("node.pipeline_runs", Proxy.Farm.pipeline_runs farm);
    ("node.coalesced", Proxy.Farm.coalesced farm);
    ("node.fenced_rejects", nodes (fun n -> n.Proxy.fenced_rejects));
    ("cache.l1_hits", l1 (fun c -> c.Proxy.Cache.hits));
    ("cache.l1_misses", l1 (fun c -> c.Proxy.Cache.misses));
    ("cache.l2_hits", l2c (fun c -> c.Proxy.Cache.hits));
    ("cache.l2_misses", l2c (fun c -> c.Proxy.Cache.misses));
    ("cache.stale_drops", caches (fun c -> c.Proxy.Cache.stale_drops));
    ("cache.invalidations", caches (fun c -> c.Proxy.Cache.invalidations));
    ("cache.evictions", caches (fun c -> c.Proxy.Cache.evictions));
    ("session.fetches", clients (fun s -> s.Dvm.Client.Session.fetches));
    ("session.hedges", clients (fun s -> s.Dvm.Client.Session.hedges));
    ("session.hedge_wins", clients (fun s -> s.Dvm.Client.Session.hedge_wins));
    ("session.retries", clients (fun s -> s.Dvm.Client.Session.retries));
    ( "session.stale_served",
      clients (fun s -> s.Dvm.Client.Session.stale_served) );
  ]

(* Counts, and each ratio next to its base. *)
let farm_metrics d =
  let g k = List.assoc k d in
  let count k = (k, Float.of_int (g k), "count") in
  let lookups tier = g (tier ^ "_hits") + g (tier ^ "_misses") in
  let decisions = g "admission.admitted" + g "admission.shed" in
  [
    count "farm.requests";
    ("farm.failover_ratio", ratio (g "farm.failovers") (g "farm.requests"), "ratio");
    count "farm.unavailable";
    count "farm.breaker_skips";
    ("admission.decisions", Float.of_int decisions, "count");
    ("admission.shed_ratio", ratio (g "admission.shed") decisions, "ratio");
    count "node.pipeline_runs";
    count "node.coalesced";
    count "node.fenced_rejects";
    ("cache.l1_lookups", Float.of_int (lookups "cache.l1"), "count");
    ("cache.l1_hit_ratio", ratio (g "cache.l1_hits") (lookups "cache.l1"), "ratio");
    ("cache.l2_lookups", Float.of_int (lookups "cache.l2"), "count");
    ("cache.l2_hit_ratio", ratio (g "cache.l2_hits") (lookups "cache.l2"), "ratio");
    count "cache.stale_drops";
    count "cache.invalidations";
    count "cache.evictions";
    count "session.fetches";
    ("session.hedge_ratio", ratio (g "session.hedges") (g "session.fetches"), "ratio");
    ( "session.hedge_win_ratio",
      ratio (g "session.hedge_wins") (g "session.hedges"),
      "ratio" );
    count "session.retries";
    count "session.stale_served";
  ]

(* [elsewhere_ns]: host time inside [Simnet.Engine.run] that no span
   covers but that belongs to another layer (the pipeline's decode, sign
   and encode). The rest is event dispatch plus the farm, node, cache
   and session code the events run. *)
let simnet_metrics ~events ~ops ~elsewhere_ns =
  [
    ("simnet.events", Float.of_int events, "count");
    ("simnet.events_per_op", ratio events ops, "count");
    ( "simnet.ns_per_event",
      div (Span.self_ns "sim.run" -. elsewhere_ns) (Float.of_int events),
      "ns" );
  ]

(* --- The pipeline, stage by stage. --- *)

(* Re-run one input outside the timed window: once through
   [Proxy.Pipeline.run], and once with its stages called directly —
   decode, then sign and encode of the filters' output — asserting both
   give the same bytes. Returns the input and output sizes and the
   direct decode + sign + encode ns, the part of a run no filter span
   covers. *)
let probe ?signer s input =
  (* A stage called right after a pipeline run pays to collect that
     run's garbage and to refill caches the filters evicted; one untimed
     call first leaves the timed one its own steady-state cost. *)
  let stage name f =
    ignore (f ());
    let t0 = Span.now_ns () in
    let v = Span.with_span name f in
    (v, Int64.to_float (Int64.sub (Span.now_ns ()) t0))
  in
  let stages () =
    s.last := None;
    let out =
      Span.with_span "probe.pipeline.run" (fun () ->
          Proxy.Pipeline.run ?signer s.filters input)
    in
    let _, decode =
      stage "probe.bytecode.decode" (fun () ->
          Bytecode.Decode.class_of_bytes input)
    in
    let filtered =
      match !(s.last) with
      | Some cf -> cf
      | None -> failwith "probe: no filter ran"
    in
    let signed, sign =
      match signer with
      | None -> (filtered, 0.0)
      | Some key ->
        stage "probe.dsig.sign" (fun () -> Dsig.Sign.sign key filtered)
    in
    let bytes, encode =
      stage "probe.bytecode.encode" (fun () ->
          Bytecode.Encode.class_to_bytes signed)
    in
    (out, bytes, decode +. sign +. encode)
  in
  Span.in_probe := true;
  (* An untimed pass first, so the timed one starts with warm caches and
     does not pay for collecting the previous class's garbage. *)
  Span.on := false;
  ignore (stages ());
  Span.on := true;
  let out, bytes, ns = stages () in
  Span.in_probe := false;
  if
    out.Proxy.Pipeline.rejected <> None
    || not (String.equal bytes out.Proxy.Pipeline.out_bytes)
  then failwith "probe: the stages called directly differ from Pipeline.run";
  (String.length input, String.length bytes, ns)

(* Per-layer pipeline metrics. Every class the window ran through the
   pipeline is probed once. Returns the metrics; the window's pipeline
   host time — its filter spans plus each probed class's decode + sign +
   encode times its run count; and the stage-coverage line. *)
let pipeline_layer ?signer stacks ~input_of =
  let bytes_in = ref 0 and bytes_out = ref 0 and runs = ref 0 in
  let rest_ns = ref 0.0 in
  List.iter
    (fun s ->
      Hashtbl.fold (fun cls n acc -> (cls, n) :: acc) s.runs []
      |> List.sort compare
      |> List.iter (fun (cls, n) ->
             let i, o, ns = probe ?signer s (input_of cls) in
             bytes_in := !bytes_in + i;
             bytes_out := !bytes_out + o;
             runs := !runs + n;
             rest_ns := !rest_ns +. (Float.of_int n *. ns)))
    stacks;
  let ms name = Span.total_ns name /. 1e6 in
  let filters_ms = Span.total_with_prefix "probe.filter." /. 1e6 in
  let run_ms = ms "probe.pipeline.run" in
  let coverage =
    div
      (ms "probe.bytecode.decode" +. filters_ms +. ms "probe.dsig.sign"
      +. ms "probe.bytecode.encode")
      run_ms
  in
  let note =
    Printf.sprintf
      "pipeline.stage_coverage %.3f = (decode %.1f ms + filters %.1f ms + \
       sign %.1f ms + encode %.1f ms) / Pipeline.run %.1f ms, %d classes \
       probed"
      coverage (ms "probe.bytecode.decode") filters_ms (ms "probe.dsig.sign")
      (ms "probe.bytecode.encode") run_ms
      (Span.count "probe.pipeline.run")
  in
  ( [
      ( "bytecode.decode_ns_per_byte",
        div (Span.total_ns "probe.bytecode.decode") (Float.of_int !bytes_in),
        "ns/B" );
      ( "bytecode.encode_ns_per_byte",
        div (Span.total_ns "probe.bytecode.encode") (Float.of_int !bytes_out),
        "ns/B" );
      ("dsig.sign_us_per_class", Span.mean_us "probe.dsig.sign", "us");
      ("pipeline.us_per_class", Span.mean_us "probe.pipeline.run", "us");
      ("pipeline.stage_coverage", coverage, "ratio");
      ("pipeline.size_ratio", ratio !bytes_out !bytes_in, "ratio");
      ("pipeline.classes", Float.of_int !runs, "count");
    ],
    Span.total_with_prefix "filter." +. !rest_ns,
    note )

let shares ~window_ns ~pipeline_ns =
  [
    ("layer.pipeline_share", div pipeline_ns window_ns, "ratio");
    ("layer.farm_share", div (window_ns -. pipeline_ns) window_ns, "ratio");
  ]
