(* Tests for the distributed-trace collector and its satellites: span
   trees and context propagation, export well-formedness, the
   flight-recorder ring, the SLO monitor's window arithmetic, and the
   completeness contract — in a seeded chaos run, every overload
   decision counted by telemetry appears exactly once as a trace
   reason event, and the acceptance traces (one shed, one brownout)
   span client, farm edge and shard with their explaining events. *)

let check = Alcotest.check

module Trace = Telemetry.Trace
module Flight = Telemetry.Flight
module Slo = Telemetry.Slo

let with_tracing f =
  Trace.reset ();
  Trace.enable ();
  let clock = ref 0L in
  Trace.set_clock (fun () -> !clock);
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    (fun () -> f clock)

(* The structural-JSON tokenizer shared with the telemetry exporter
   tests: balanced brackets outside strings, every string closed. *)
let assert_balanced label s =
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
  check Alcotest.int (label ^ " balanced") 0 !depth;
  check Alcotest.bool (label ^ " strings closed") false !in_str

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* --- Span trees and contexts. --- *)

let test_tree_basics () =
  with_tracing (fun clock ->
      let root = Trace.root ~node:"client" ~args:[ ("k", "v") ] "fetch" in
      let ctx = Trace.ctx_of root in
      check Alcotest.bool "root ctx live" true (Trace.live ctx);
      clock := 10L;
      let child = Trace.start ctx ~node:"edge" "route" in
      Trace.event (Trace.ctx_of child) ~node:"edge" ~kind:"farm.failover"
        "rerouted";
      clock := 25L;
      Trace.finish child;
      clock := 40L;
      Trace.finish root;
      (* finish is idempotent *)
      Trace.finish root;
      match Trace.trace_ids () with
      | [ tr ] ->
        (match Trace.spans_of tr with
        | [ r; c ] ->
          check Alcotest.string "root node" "client" r.Trace.s_node;
          check Alcotest.int "root has no parent" 0 r.Trace.s_parent;
          check Alcotest.int "child under root" r.Trace.s_id c.Trace.s_parent;
          check Alcotest.int64 "child start" 10L c.Trace.s_start;
          check Alcotest.int64 "child end" 25L c.Trace.s_end;
          check Alcotest.int64 "root end survives double finish" 40L
            r.Trace.s_end
        | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
        (match Trace.events_of tr with
        | [ e ] ->
          check Alcotest.string "event kind" "farm.failover" e.Trace.e_kind
        | l -> Alcotest.failf "expected 1 event, got %d" (List.length l));
        let txt = Trace.render tr in
        check Alcotest.bool "render shows spans" true
          (contains txt "fetch" && contains txt "route");
        check Alcotest.bool "render flags events" true (contains txt "!")
      | l -> Alcotest.failf "expected 1 trace, got %d" (List.length l))

let test_disabled_noop () =
  Trace.reset ();
  Trace.disable ();
  let root = Trace.root ~node:"client" "fetch" in
  check Alcotest.bool "root ctx dead when disabled" false
    (Trace.live (Trace.ctx_of root));
  Trace.event (Trace.ctx_of root) ~node:"client" ~kind:"k" "d";
  Trace.finish root;
  check Alcotest.int "no spans" 0 (Trace.span_count ());
  check Alcotest.int "no events" 0 (Trace.event_count ());
  (* a null ctx is inert even when enabled *)
  Trace.enable ();
  Trace.event Trace.none ~node:"client" ~kind:"k" "d";
  Trace.finish (Trace.start Trace.none ~node:"edge" "route");
  check Alcotest.int "null ctx recorded nothing" 0 (Trace.span_count ());
  Trace.disable ();
  Trace.reset ()

let test_exports_wellformed () =
  with_tracing (fun clock ->
      let root = Trace.root ~node:"cli\"ent" "fe\ntch" in
      let ctx = Trace.ctx_of root in
      clock := 5L;
      let child = Trace.start ctx ~node:"edge" "route" in
      Trace.event (Trace.ctx_of child) ~node:"edge" ~kind:"admission.shed_queue"
        "queue full \"now\"";
      Trace.finish child;
      Trace.finish root;
      match Trace.trace_ids () with
      | [ tr ] ->
        let chrome = Trace.export_chrome tr in
        assert_balanced "chrome export" chrome;
        check Alcotest.bool "chrome has X span" true
          (contains chrome {|"ph":"X"|});
        check Alcotest.bool "chrome has instant event" true
          (contains chrome {|"ph":"i"|});
        let json = Trace.export_json tr in
        assert_balanced "json export" json;
        check Alcotest.bool "json has spans" true (contains json {|"spans"|});
        check Alcotest.bool "json has events" true (contains json {|"events"|})
      | l -> Alcotest.failf "expected 1 trace, got %d" (List.length l))

(* --- Flight recorder. --- *)

let test_flight_ring () =
  Flight.reset ();
  Flight.set_capacity 4;
  Fun.protect
    ~finally:(fun () -> Flight.set_capacity 256)
    (fun () ->
      for i = 1 to 6 do
        Flight.note ~at:(Int64.of_int i) ~node:"shard0"
          (Printf.sprintf "line %d" i)
      done;
      Flight.note ~at:3L ~node:"edge" "edge line";
      check
        (Alcotest.list Alcotest.string)
        "nodes sorted" [ "edge"; "shard0" ] (Flight.nodes ());
      let shard =
        List.filter
          (fun e -> String.equal e.Flight.fl_node "shard0")
          (Flight.entries ())
      in
      check Alcotest.int "ring keeps the last capacity lines" 4
        (List.length shard);
      (match shard with
      | first :: _ ->
        check Alcotest.string "oldest retained line" "line 3"
          first.Flight.fl_line
      | [] -> Alcotest.fail "empty ring");
      (match Flight.entries () with
      | merged ->
        let ats = List.map (fun e -> e.Flight.fl_at) merged in
        check Alcotest.bool "merged entries in timestamp order" true
          (List.sort Int64.compare ats = ats));
      let dump = Flight.dump_json () in
      assert_balanced "flight dump" dump;
      check Alcotest.bool "dump counts drops" true
        (contains dump {|"dropped":2|}))

(* --- SLO monitor. --- *)

let test_slo_window () =
  let s = Slo.create ~window_s:2 ~objective:0.5 () in
  Slo.record s ~now_us:500_000L (Slo.Fresh 1000);
  Slo.record s ~now_us:1_200_000L (Slo.Fresh 4000);
  Slo.record s ~now_us:1_300_000L Slo.Stale;
  Slo.note_shed s ~now_us:1_400_000L;
  Slo.record s ~now_us:2_500_000L Slo.Failed;
  let r = Slo.report s ~now_us:2_500_000L in
  (* window = seconds 1 and 2: the fresh serve at 0.5s aged out *)
  check Alcotest.int "window requests" 3 r.Slo.r_requests;
  check Alcotest.int "window fresh" 1 r.Slo.r_fresh;
  check Alcotest.int "window stale" 1 r.Slo.r_stale;
  check Alcotest.int "window failed" 1 r.Slo.r_failed;
  check Alcotest.int "window sheds" 1 r.Slo.r_sheds;
  check (Alcotest.float 0.001) "goodput = fresh bytes / window" 2000.0
    r.Slo.r_goodput_bps;
  check (Alcotest.float 0.001) "violation rate" (2.0 /. 3.0)
    r.Slo.r_violation_rate;
  check (Alcotest.float 0.001) "budget burn vs 50% objective"
    (2.0 /. 3.0 /. 0.5) r.Slo.r_budget_burn;
  (* totals never age out *)
  check Alcotest.int "total requests" 4 r.Slo.r_total_requests;
  check Alcotest.int "total fresh" 2 r.Slo.r_total_fresh;
  assert_balanced "slo json" (Slo.report_json r)

(* --- Completeness and acceptance over a seeded chaos run. --- *)

(* Short enough to keep the suite fast, long enough (at this seed) for
   sheds, hedges, failovers and serve-stale brownouts all to occur. *)
let chaos_cfg =
  { Dvm.Chaos.default_config with Dvm.Chaos.ch_duration_s = 16; ch_trace = true }

let run_traced_chaos () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:Telemetry.disable
    (fun () -> Dvm.Chaos.run chaos_cfg)

(* Reason-event kind <-> telemetry counter, 1:1. A decision that bumps
   the counter without leaving a trace event (or vice versa) breaks
   the books. *)
let decision_pairs =
  [
    ("admission.shed_deadline", "admission.shed_deadline");
    ("admission.shed_queue", "admission.shed_queue");
    ("breaker.trip", "breaker.trips");
    ("farm.failover", "farm.failovers");
    ("farm.breaker_skip", "farm.breaker_skips");
    ("farm.unavailable", "farm.unavailable");
    ("proxy.coalesce.join", "proxy.coalesced");
    ("proxy.l2_hit", "proxy.l2_hits");
    ("client.hedge", "client.hedges");
    ("client.hedge_win", "client.hedge_wins");
    ("client.serve_stale", "client.stale_served");
  ]

let test_completeness () =
  let t = (run_traced_chaos ()).Dvm.Chaos.co_clients in
  (* the run must actually exercise the decisions under test *)
  check Alcotest.bool "sheds occurred" true
    (t.Dvm.Client.Session.tl_overloaded_seen > 0);
  check Alcotest.bool "hedges occurred" true (t.tl_hedges > 0);
  check Alcotest.bool "brownouts occurred" true (t.tl_stale_served > 0);
  check Alcotest.int "no trace records dropped" 0 (Trace.dropped ());
  let kinds = Trace.event_kind_counts () in
  List.iter
    (fun (kind, counter) ->
      let ev = Option.value ~default:0 (List.assoc_opt kind kinds) in
      let c = Int64.to_int (Telemetry.counter_value counter) in
      check Alcotest.int
        (Printf.sprintf "%s events = %s counter" kind counter)
        c ev)
    decision_pairs;
  (* no orphans: every event hangs off a span of its own trace *)
  let span_ids = Hashtbl.create 1024 in
  List.iter
    (fun s -> Hashtbl.replace span_ids (s.Trace.s_trace, s.Trace.s_id) ())
    (Trace.spans ());
  List.iter
    (fun e ->
      if not (Hashtbl.mem span_ids (e.Trace.e_trace, e.Trace.e_span)) then
        Alcotest.failf "orphan event %s (trace %Lx, span %d)" e.Trace.e_kind
          e.Trace.e_trace e.Trace.e_span)
    (Trace.events ())

let test_acceptance_traces () =
  ignore (run_traced_chaos ());
  let check_trace kind =
    match Trace.find_trace_with ~kind with
    | None -> Alcotest.failf "no trace contains a %s event" kind
    | Some tr ->
      let spans = Trace.spans_of tr in
      let has name node =
        List.exists
          (fun s ->
            String.equal s.Trace.s_name name && String.equal s.Trace.s_node node)
          spans
      in
      check Alcotest.bool (kind ^ ": client span present") true
        (has "client.fetch" "client");
      check Alcotest.bool (kind ^ ": edge routing span present") true
        (has "farm.route" "edge");
      check Alcotest.bool (kind ^ ": explaining event attached") true
        (List.exists
           (fun e -> String.equal e.Trace.e_kind kind)
           (Trace.events_of tr));
      assert_balanced (kind ^ " chrome export") (Trace.export_chrome tr);
      assert_balanced (kind ^ " json export") (Trace.export_json tr)
  in
  check_trace "admission.shed_deadline";
  check_trace "client.serve_stale"

(* Control-plane decisions mirror into reason events 1:1 under the
   same kind names — election, lease, re-drive and snapshot machinery
   included. The config matches the chaos suite's small control run,
   which provably exercises a leader crash, a stale-term wake-up and a
   snapshot catch-up. *)
let control_pairs =
  [
    "control.term_bump";
    "control.stepdown";
    "control.vote";
    "control.election_win";
    "control.redrive";
    "control.lease_grant";
    "control.lease_expire";
    "control.snapshot_compact";
    "control.snapshot_install";
    "control.resync";
    "control.fenced_rejects";
  ]

let test_control_completeness () =
  Telemetry.reset ();
  Telemetry.enable ();
  let o =
    Fun.protect
      ~finally:Telemetry.disable
      (fun () ->
        Dvm.Chaos.run_control
          {
            Dvm.Chaos.default_control_config with
            Dvm.Chaos.cc_clients = 12;
            cc_duration_s = 18;
            cc_applets = 6;
            cc_bump_at_s = 7;
            cc_partitions = 1;
            cc_partition_len_s = 2;
            cc_trace = true;
          })
  in
  (* the run exercised what the mirror claims to cover *)
  check Alcotest.bool "elections happened" true (o.Dvm.Chaos.cn_elections >= 2);
  check Alcotest.bool "suffix re-driven" true (o.Dvm.Chaos.cn_redrives >= 1);
  check Alcotest.bool "snapshot installed" true
    (o.Dvm.Chaos.cn_snapshot_installs >= 1);
  check Alcotest.int "no trace records dropped" 0 (Trace.dropped ());
  let kinds = Trace.event_kind_counts () in
  List.iter
    (fun kind ->
      let ev = Option.value ~default:0 (List.assoc_opt kind kinds) in
      let c = Int64.to_int (Telemetry.counter_value kind) in
      check Alcotest.bool (kind ^ " occurred") true (c > 0);
      check Alcotest.int (kind ^ " events = counter") c ev)
    control_pairs;
  (* all of them hang off the control.plane root span *)
  match Trace.find_trace_with ~kind:"control.election_win" with
  | None -> Alcotest.fail "no trace contains the election"
  | Some tr ->
    check Alcotest.bool "control.plane span present" true
      (List.exists
         (fun s ->
           String.equal s.Trace.s_name "control.plane"
           && String.equal s.Trace.s_node "control")
         (Trace.spans_of tr))

let test_determinism () =
  let snapshot () =
    ignore (run_traced_chaos ());
    let shed =
      match Trace.find_trace_with ~kind:"admission.shed_deadline" with
      | Some tr -> tr
      | None -> Alcotest.fail "no shed trace"
    in
    ( Trace.span_count (),
      Trace.event_count (),
      shed,
      Trace.render shed,
      Trace.export_json shed )
  in
  let s1, e1, tr1, r1, j1 = snapshot () in
  let s2, e2, tr2, r2, j2 = snapshot () in
  check Alcotest.int "span count replays" s1 s2;
  check Alcotest.int "event count replays" e1 e2;
  check Alcotest.int64 "trace ids replay" tr1 tr2;
  check Alcotest.string "render replays byte-identically" r1 r2;
  check Alcotest.string "export replays byte-identically" j1 j2

let () =
  Alcotest.run "trace"
    [
      ( "collector",
        [
          Alcotest.test_case "span tree basics" `Quick test_tree_basics;
          Alcotest.test_case "disabled and null-ctx no-ops" `Quick
            test_disabled_noop;
          Alcotest.test_case "exports well-formed" `Quick
            test_exports_wellformed;
        ] );
      ( "flight",
        [ Alcotest.test_case "bounded ring" `Quick test_flight_ring ] );
      ("slo", [ Alcotest.test_case "window arithmetic" `Quick test_slo_window ]);
      ( "chaos",
        [
          Alcotest.test_case "decision completeness" `Quick test_completeness;
          Alcotest.test_case "control decision completeness" `Quick
            test_control_completeness;
          Alcotest.test_case "acceptance traces" `Quick test_acceptance_traces;
          Alcotest.test_case "seeded determinism" `Quick test_determinism;
        ] );
    ]
