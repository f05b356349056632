(* Tests for the telemetry registry: span nesting and ordering, counter
   and histogram arithmetic, capture/replay against real re-runs, the
   Chrome trace exporter's JSON escaping, and the disabled-mode no-op
   contract. The registry is the module, one per process, so each case
   starts by resetting it. *)

let check = Alcotest.check

(* Read before any test runs: the registry starts disabled. *)
let enabled_at_start = Telemetry.enabled ()

(* A deterministic wall clock: each test gets its own counter that
   advances a fixed step per reading. *)
let fake_clock ?(step = 10L) () =
  let now = ref 0L in
  fun () ->
    let t = !now in
    now := Int64.add !now step;
    t

(* Each test starts from an empty, enabled registry on a fresh fake
   wall clock and no sim clock. *)
let fresh () =
  Telemetry.reset ();
  Telemetry.set_wall_clock (fake_clock ());
  Telemetry.set_sim_clock None;
  Telemetry.enable ()

let test_counters () =
  fresh ();
  Telemetry.incr "a";
  Telemetry.incr "a";
  Telemetry.add "a" 40L;
  Telemetry.incr "b";
  check Alcotest.int64 "a" 42L (Telemetry.counter_value "a");
  check Alcotest.int64 "b" 1L (Telemetry.counter_value "b");
  check Alcotest.int64 "absent" 0L (Telemetry.counter_value "zzz");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int64))
    "sorted"
    [ ("a", 42L); ("b", 1L) ]
    (Telemetry.counters ());
  Telemetry.set_gauge "g" 7L;
  Telemetry.set_gauge "g" 3L;
  check Alcotest.int64 "gauge keeps last" 3L (Telemetry.gauge_value "g");
  Telemetry.reset ();
  check Alcotest.int64 "reset" 0L (Telemetry.counter_value "a")

let test_histogram () =
  fresh ();
  List.iter (Telemetry.observe "h") [ 1L; 2L; 4L; 100L ];
  match Telemetry.histogram_stats "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
    check Alcotest.int "count" 4 s.Telemetry.count;
    check Alcotest.int64 "sum" 107L s.Telemetry.sum_us;
    check Alcotest.int64 "min" 1L s.Telemetry.min_us;
    check Alcotest.int64 "max" 100L s.Telemetry.max_us;
    (* p50/p95 are bucket upper bounds: 2 falls in bucket [2,4), 100 in
       [64,128). *)
    check Alcotest.bool "p50 bounds 2" true
      (s.Telemetry.p50_us >= 2L && s.Telemetry.p50_us <= 4L);
    check Alcotest.bool "p95 bounds 100" true
      (s.Telemetry.p95_us >= 100L && s.Telemetry.p95_us <= 128L)

let test_span_nesting () =
  fresh ();
  let r =
    Telemetry.with_span "outer" (fun () ->
        Telemetry.with_span ~cat:"sub" "inner" (fun () -> ());
        17)
  in
  check Alcotest.int "thunk value" 17 r;
  (* Completion order: inner closes first. *)
  match Telemetry.spans () with
  | [ inner; outer ] ->
    check Alcotest.string "inner name" "inner" inner.Telemetry.sp_name;
    check Alcotest.string "outer name" "outer" outer.Telemetry.sp_name;
    check Alcotest.string "inner cat" "sub" inner.Telemetry.sp_cat;
    check Alcotest.int "inner depth" 1 inner.Telemetry.sp_depth;
    check Alcotest.int "outer depth" 0 outer.Telemetry.sp_depth;
    check Alcotest.bool "inner within outer" true
      (inner.Telemetry.sp_wall_start >= outer.Telemetry.sp_wall_start
      && inner.Telemetry.sp_wall_end <= outer.Telemetry.sp_wall_end)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_on_exception () =
  fresh ();
  (try
     Telemetry.with_span "boom" (fun () -> failwith "no")
   with Failure _ -> ());
  check Alcotest.int "span recorded despite raise" 1 (Telemetry.span_count ());
  (* Depth must unwind so later spans are top-level again. *)
  Telemetry.with_span "after" (fun () -> ());
  match List.rev (Telemetry.spans ()) with
  | after :: _ -> check Alcotest.int "depth unwound" 0 after.Telemetry.sp_depth
  | [] -> Alcotest.fail "no spans"

let test_span_observe_hist () =
  fresh ();
  Telemetry.with_span ~observe_hist:"lat" "work" (fun () -> ());
  match Telemetry.histogram_stats "lat" with
  | Some s -> check Alcotest.int "one observation" 1 s.Telemetry.count
  | None -> Alcotest.fail "observe_hist did not record"

let test_span_observe_hist_sim () =
  (* Regression: with a sim clock attached, [observe_hist] must record
     the simulated duration, not the (nondeterministic) wall one —
     otherwise seeded benches stop being byte-reproducible. *)
  fresh ();
  let sim = ref 1000L in
  Telemetry.set_sim_clock (Some (fun () -> !sim));
  Telemetry.with_span ~observe_hist:"lat" "work" (fun () -> sim := 4000L);
  (match Telemetry.histogram_stats "lat" with
  | Some s ->
    check Alcotest.int64 "sim duration observed" 3000L s.Telemetry.sum_us
  | None -> Alcotest.fail "observe_hist did not record");
  (* detached again: falls back to the wall clock (fake: 10us/reading) *)
  Telemetry.set_sim_clock None;
  Telemetry.with_span ~observe_hist:"wall_lat" "work" (fun () -> ());
  match Telemetry.histogram_stats "wall_lat" with
  | Some s ->
    check Alcotest.bool "wall fallback nonzero" true
      (Int64.compare s.Telemetry.sum_us 0L > 0)
  | None -> Alcotest.fail "wall fallback did not record"

let test_sim_clock () =
  fresh ();
  let sim = ref 1000L in
  Telemetry.set_sim_clock (Some (fun () -> !sim));
  Telemetry.with_span "simmed" (fun () -> sim := 2500L);
  Telemetry.set_sim_clock None;
  Telemetry.with_span "unsimmed" (fun () -> ());
  match Telemetry.spans () with
  | [ simmed; unsimmed ] ->
    check
      (Alcotest.option Alcotest.int64)
      "sim start" (Some 1000L) simmed.Telemetry.sp_sim_start;
    check
      (Alcotest.option Alcotest.int64)
      "sim end" (Some 2500L) simmed.Telemetry.sp_sim_end;
    check
      (Alcotest.option Alcotest.int64)
      "detached" None unsimmed.Telemetry.sp_sim_start
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_json_escape () =
  check Alcotest.string "quotes" {|a\"b|} (Telemetry.Flight.esc {|a"b|});
  check Alcotest.string "backslash" {|a\\b|} (Telemetry.Flight.esc {|a\b|});
  check Alcotest.string "newline" {|a\nb|} (Telemetry.Flight.esc "a\nb");
  check Alcotest.string "control" {|\u0001|} (Telemetry.Flight.esc "\x01")

let test_chrome_trace_valid () =
  fresh ();
  Telemetry.with_span ~cat:"c1" ~args:[ ("k", "v\"with\nnasties") ]
    "sp\"an" (fun () -> ());
  Telemetry.incr "hits";
  let s = Telemetry.chrome_trace () in
  (* Structurally valid JSON array: balanced brackets/braces and every
     quote escaped. A tiny tokenizer beats trusting eyeballs. *)
  let depth = ref 0 and in_str = ref false and esc = ref false in
  String.iter
    (fun c ->
      if !esc then esc := false
      else if !in_str then begin
        if c = '\\' then esc := true else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '[' | '{' -> incr depth
        | ']' | '}' -> decr depth
        | '\n' | ',' | ':' | ' ' -> ()
        | _ -> ())
    s;
  check Alcotest.int "balanced" 0 !depth;
  check Alcotest.bool "string closed" false !in_str;
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "has X event" true (contains {|"ph":"X"|});
  check Alcotest.bool "escaped name survives" true (contains {|sp\"an|})

let test_metrics_json_valid () =
  fresh ();
  Telemetry.incr "hits";
  Telemetry.set_gauge "depth" 7L;
  List.iter (Telemetry.observe "lat\"ency") [ 3L; 9L ];
  let s = Telemetry.metrics_json () in
  (* Same tokenizer as the Chrome-trace check: balanced structure,
     every quote closed. *)
  let depth = ref 0 and in_str = ref false and esc = ref false in
  String.iter
    (fun c ->
      if !esc then esc := false
      else if !in_str then begin
        if c = '\\' then esc := true else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '[' | '{' -> incr depth
        | ']' | '}' -> decr depth
        | _ -> ())
    s;
  check Alcotest.int "balanced" 0 !depth;
  check Alcotest.bool "string closed" false !in_str;
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "counters object" true (contains {|"counters"|});
  check Alcotest.bool "gauges object" true (contains {|"gauges"|});
  check Alcotest.bool "histograms array" true (contains {|"histograms"|});
  check Alcotest.bool "counter value present" true (contains {|"hits":1|});
  check Alcotest.bool "gauge value present" true (contains {|"depth":7|});
  check Alcotest.bool "histogram name escaped" true (contains {|lat\"ency|})

let test_disabled_noop () =
  check Alcotest.bool "disabled by default" false enabled_at_start;
  Telemetry.reset ();
  Telemetry.disable ();
  Telemetry.incr "c";
  Telemetry.observe "h" 5L;
  Telemetry.set_gauge "g" 5L;
  let r = Telemetry.with_span "s" (fun () -> 99) in
  check Alcotest.int "thunk still runs" 99 r;
  check Alcotest.int "no spans" 0 (Telemetry.span_count ());
  check Alcotest.int64 "no counters" 0L (Telemetry.counter_value "c");
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int64)) "no gauges"
    [] (Telemetry.gauges ());
  check Alcotest.bool "no histograms" true (Telemetry.histograms () = [])

let fill n =
  for _ = 1 to n do
    Telemetry.with_span "fill" (fun () -> ())
  done

let test_span_cap () =
  fresh ();
  fill (Telemetry.max_spans + 2);
  check Alcotest.int "capped" Telemetry.max_spans (Telemetry.span_count ());
  check Alcotest.int "dropped counted" 2 (Telemetry.dropped_spans ())

(* --- Quantile accuracy property. ---

   The histograms are log₂-bucketed, so a reported quantile is the
   upper bound of the bucket holding the exact rank-th observation:
   never below the exact sorted-list quantile, never more than 2× above
   it (and exactly 0 when the exact quantile is 0). The reported min
   and max are exact. *)

let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  sorted.(rank - 1)

let arbitrary_samples =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map Int64.to_string l))
    QCheck.Gen.(
      map
        (List.map Int64.of_int)
        (list_size (int_range 1 200)
           (oneof [ int_bound 10; int_bound 1000; int_bound 1_000_000 ])))

let prop_hist_quantile_bounds =
  QCheck.Test.make ~name:"hist quantile within log2 bound of exact"
    ~count:300 arbitrary_samples (fun vs ->
      fresh ();
      List.iter (Telemetry.observe "h") vs;
      let sorted = Array.of_list vs in
      Array.sort Int64.compare sorted;
      match Telemetry.histogram_stats "h" with
      | None -> false
      | Some s ->
        let within q reported =
          let exact = exact_quantile sorted q in
          if Int64.equal exact 0L then Int64.equal reported 0L
          else
            Int64.compare exact reported <= 0
            && Int64.compare reported (Int64.mul 2L exact) <= 0
        in
        within 0.5 s.Telemetry.p50_us
        && within 0.95 s.Telemetry.p95_us
        && within 0.99 s.Telemetry.p99_us
        (* monotone in q *)
        && Int64.compare s.Telemetry.p50_us s.Telemetry.p95_us <= 0
        && Int64.compare s.Telemetry.p95_us s.Telemetry.p99_us <= 0
        (* min and max are exact, and bracket every quantile *)
        && Int64.equal s.Telemetry.min_us sorted.(0)
        && Int64.equal s.Telemetry.max_us sorted.(Array.length sorted - 1)
        && Int64.compare s.Telemetry.p99_us s.Telemetry.max_us <= 0)

(* --- Capture/replay. --- *)

let test_capture_replay () =
  fresh ();
  Telemetry.set_sim_clock (Some (fake_clock ~step:0L ()));
  let work () =
    Telemetry.incr "work.count";
    Telemetry.with_span ~cat:"test" ~observe_hist:"work.us" "work"
      (fun () ->
        Telemetry.add "work.inner" 5L;
        Telemetry.observe "work.len" 17L;
        Telemetry.set_gauge "work.gauge" 3L;
        42)
  in
  let v, tape = Telemetry.capture work in
  check Alcotest.int "captured result" 42 v;
  let tape = match tape with Some tp -> tp | None -> Alcotest.fail "no tape" in
  let spans_before = Telemetry.span_count () in
  Telemetry.replay tape;
  Telemetry.replay tape;
  (* three logical executions: counters, histograms and spans all agree *)
  check Alcotest.int64 "counter x3" 3L (Telemetry.counter_value "work.count");
  check Alcotest.int64 "inner counter x3" 15L
    (Telemetry.counter_value "work.inner");
  check Alcotest.int64 "gauge keeps value" 3L
    (Telemetry.gauge_value "work.gauge");
  (match Telemetry.histogram_stats "work.len" with
  | Some s ->
    check Alcotest.int "observations x3" 3 s.Telemetry.count;
    check Alcotest.int64 "sum x3" 51L s.Telemetry.sum_us
  | None -> Alcotest.fail "work.len histogram missing");
  (match Telemetry.histogram_stats "work.us" with
  | Some s -> check Alcotest.int "span hist x3" 3 s.Telemetry.count
  | None -> Alcotest.fail "work.us histogram missing");
  check Alcotest.int "replay records spans" (spans_before + 2)
    (Telemetry.span_count ());
  (* replayed spans get fresh ids *)
  let ids =
    List.map (fun sp -> sp.Telemetry.sp_id) (Telemetry.spans ())
  in
  check Alcotest.int "ids distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* a nested capture yields no tape (the outer capture owns the ops) *)
  let _, inner =
    fst (Telemetry.capture (fun () -> Telemetry.capture work))
  in
  check Alcotest.bool "nested capture refuses" true (inner = None);
  (* replay on a disabled registry is a no-op *)
  Telemetry.disable ();
  Telemetry.replay tape;
  Telemetry.enable ();
  check Alcotest.int64 "disabled replay no-op" 4L
    (Telemetry.counter_value "work.count")

(* A span carrying [observe_hist], captured with no trace ambient and
   replayed under a trace scope, leaves what a re-run there leaves: the
   same counters, histograms, spans and trace leaves. *)
let test_replay_under_trace () =
  fresh ();
  Telemetry.set_sim_clock (Some (fake_clock ~step:0L ()));
  let work () =
    Telemetry.with_span ~cat:"test" ~observe_hist:"work.us" "work" (fun () ->
        Telemetry.incr "work.count";
        Telemetry.with_span "inner" (fun () -> ()))
  in
  let tape = Option.get (snd (Telemetry.capture work)) in
  let in_scope f =
    Telemetry.reset ();
    Telemetry.Trace.reset ();
    Telemetry.Trace.enable ();
    let root = Telemetry.Trace.root ~node:"client" "request" in
    Telemetry.Trace.scope (Telemetry.Trace.ctx_of root) ~node:"proxy" f;
    Telemetry.Trace.finish root;
    Telemetry.Trace.disable ();
    ( Telemetry.counters (),
      List.map
        (fun (k, s) -> (k, s.Telemetry.count, s.Telemetry.sum_us))
        (Telemetry.histograms ()),
      Telemetry.span_count (),
      Telemetry.Trace.span_count () )
  in
  let c, h, n, leaves = in_scope work in
  let c', h', n', leaves' = in_scope (fun () -> Telemetry.replay tape) in
  check
    Alcotest.(list (pair string int64))
    "counters" c c';
  check Alcotest.(list (triple string int int64)) "histograms" h h';
  check Alcotest.int "histogram observed" 1
    (List.length (List.filter (fun (k, _, _) -> k = "work.us") h'));
  check Alcotest.int "spans" n n';
  check Alcotest.int "re-run: the root and two leaves" 3 leaves;
  check Alcotest.int "trace leaves" leaves leaves'

(* Into a span buffer one short of full, and then into the full one, a
   replay records and drops what a re-run does. *)
let test_replay_full_buffer () =
  fresh ();
  let work () =
    Telemetry.with_span "outer" (fun () ->
        Telemetry.with_span ~observe_hist:"inner.us" "inner" (fun () ->
            Telemetry.incr "work.count"))
  in
  let tape = Option.get (snd (Telemetry.capture work)) in
  let deltas f =
    Telemetry.reset ();
    fill (Telemetry.max_spans - 1);
    let once () =
      let n = Telemetry.span_count () and d = Telemetry.dropped_spans () in
      f ();
      (Telemetry.span_count () - n, Telemetry.dropped_spans () - d)
    in
    let first = once () in
    let second = once () in
    [ first; second ]
  in
  let rerun = deltas work in
  check
    Alcotest.(list (pair int int))
    "re-runs: the last slot, then none" [ (1, 1); (0, 2) ] rerun;
  check
    Alcotest.(list (pair int int))
    "replays: as the re-runs" rerun
    (deltas (fun () -> Telemetry.replay tape))

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters;
          Alcotest.test_case "histogram stats" `Quick test_histogram;
          QCheck_alcotest.to_alcotest prop_hist_quantile_bounds;
        ] );
      ( "replay",
        [
          Alcotest.test_case "capture/replay parity" `Quick test_capture_replay;
          Alcotest.test_case "replay under a trace scope" `Quick
            test_replay_under_trace;
          Alcotest.test_case "replay into a full buffer" `Quick
            test_replay_full_buffer;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "recorded on exception" `Quick
            test_span_on_exception;
          Alcotest.test_case "observe_hist" `Quick test_span_observe_hist;
          Alcotest.test_case "observe_hist uses sim duration" `Quick
            test_span_observe_hist_sim;
          Alcotest.test_case "dual timeline" `Quick test_sim_clock;
          Alcotest.test_case "max_spans cap" `Quick test_span_cap;
        ] );
      ( "export",
        [
          Alcotest.test_case "json escaping" `Quick test_json_escape;
          Alcotest.test_case "chrome trace well-formed" `Quick
            test_chrome_trace_valid;
          Alcotest.test_case "metrics json well-formed" `Quick
            test_metrics_json_valid;
        ] );
      ( "disabled",
        [ Alcotest.test_case "everything is a no-op" `Quick test_disabled_noop ] );
    ]
