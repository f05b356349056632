(* Tests for the proxy infrastructure: the LRU cache, the
   parse-once pipeline (including the parse-per-service ablation and
   rejection handling), the simulated-time request path, and signing
   integration. *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile

let check = Alcotest.check
let fail = Alcotest.fail
let static = [ CF.Public; CF.Static ]

(* --- Cache. --- *)

let test_cache_lru_eviction () =
  let c = Proxy.Cache.create ~capacity:100 in
  Proxy.Cache.store c "a" (String.make 40 'a');
  Proxy.Cache.store c "b" (String.make 40 'b');
  check Alcotest.bool "a hit" true (Proxy.Cache.find c "a" <> None);
  (* c displaces the least recently used, which is now b *)
  Proxy.Cache.store c "c" (String.make 40 'c');
  check Alcotest.bool "b evicted" true (Proxy.Cache.find c "b" = None);
  check Alcotest.bool "a survives" true (Proxy.Cache.find c "a" <> None);
  check Alcotest.bool "evictions counted" true (c.Proxy.Cache.evictions >= 1)

let test_cache_disabled () =
  let c = Proxy.Cache.create ~capacity:0 in
  Proxy.Cache.store c "a" "xxx";
  check Alcotest.bool "nothing stored" true (Proxy.Cache.find c "a" = None)

let test_cache_oversized_not_stored () =
  let c = Proxy.Cache.create ~capacity:10 in
  Proxy.Cache.store c "big" (String.make 100 'x');
  check Alcotest.bool "not stored" true (Proxy.Cache.find c "big" = None)

let test_cache_restart_drops_not_evictions () =
  (* Regression: [drop_fraction] used to funnel through [evict_one],
     so a restart's cold-cache drop inflated the capacity-eviction
     statistic (and republished the occupancy gauges once per dropped
     entry). Restart drops are their own counter. *)
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:Telemetry.disable
    (fun () ->
      let c = Proxy.Cache.create ~capacity:1000 in
      Proxy.Cache.store c "a" (String.make 100 'a');
      Proxy.Cache.store c "b" (String.make 100 'b');
      Proxy.Cache.store c "c" (String.make 100 'c');
      Proxy.Cache.store c "d" (String.make 100 'd');
      Proxy.Cache.drop_fraction c ~fraction:0.5;
      check Alcotest.int "half dropped" 2 (Proxy.Cache.size c);
      check Alcotest.int "restart drops counted" 2 c.Proxy.Cache.restart_drops;
      check Alcotest.int "evictions not conflated" 0 c.Proxy.Cache.evictions;
      check Alcotest.int64 "restart_drops counter" 2L
        (Telemetry.counter_value "cache.restart_drops");
      check Alcotest.int64 "no eviction counter noise" 0L
        (Telemetry.counter_value "cache.evictions");
      check Alcotest.int64 "occupancy gauge refreshed" 200L
        (Telemetry.gauge_value "cache.bytes_used");
      (* LRU entries go first: the oldest two are gone *)
      check Alcotest.bool "lru dropped first" true
        (Proxy.Cache.find c "a" = None
        && Proxy.Cache.find c "b" = None
        && Proxy.Cache.find c "c" <> None
        && Proxy.Cache.find c "d" <> None);
      Proxy.Cache.drop_fraction c ~fraction:1.0;
      check Alcotest.int "full drop empties" 0 (Proxy.Cache.size c);
      check Alcotest.int "full drop counted" 4 c.Proxy.Cache.restart_drops)

let test_cache_disabled_counts_miss () =
  (* Regression: [find] on a disabled cache (capacity 0) used to
     return early without counting, so cache-off runs reported a 0/0
     hit ratio instead of all-miss. *)
  let c = Proxy.Cache.create ~capacity:0 in
  check Alcotest.bool "no hit" true (Proxy.Cache.find c "a" = None);
  check Alcotest.bool "still no hit" true (Proxy.Cache.find c "b" = None);
  check Alcotest.int "misses counted" 2 c.Proxy.Cache.misses

let test_cache_oversize_skip_counter () =
  (* An entry bigger than the whole cache can never fit: it must be
     skipped and counted — not silently dropped after evicting every
     resident entry in a futile attempt to make room. *)
  let c = Proxy.Cache.create ~capacity:100 in
  Proxy.Cache.store c "small" (String.make 40 's');
  Proxy.Cache.store c "big" (String.make 200 'x');
  check Alcotest.bool "big skipped" true (Proxy.Cache.find c "big" = None);
  check Alcotest.bool "small survives" true (Proxy.Cache.find c "small" <> None);
  check Alcotest.int "skip counted" 1 c.Proxy.Cache.oversize_skips;
  check Alcotest.int "no eviction churn" 0 c.Proxy.Cache.evictions

(* --- Pipeline. --- *)

let hello =
  B.class_ "Hello"
    [
      B.meth ~flags:static "main" "()V"
        [
          B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
          B.Push_str "hi";
          B.Invokevirtual
            ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
          B.Return;
        ];
    ]

let boot_oracle = Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes ())

let filters () =
  [
    Verifier.Static_verifier.filter ~oracle:boot_oracle ();
    Monitor.Instrument.audit_filter ();
  ]

let test_pipeline_transforms () =
  let bytes = Bytecode.Encode.class_to_bytes hello in
  let out = Proxy.Pipeline.run (filters ()) bytes in
  check Alcotest.bool "accepted" true (out.Proxy.Pipeline.rejected = None);
  check Alcotest.int "parsed once" 1 out.Proxy.Pipeline.parses;
  let cf = Bytecode.Decode.class_of_bytes out.Proxy.Pipeline.out_bytes in
  check Alcotest.string "same class" "Hello" cf.CF.name;
  (* audit instrumentation grew the code *)
  check Alcotest.bool "instrumented" true
    (Bytecode.Classfile.instruction_count cf
    > Bytecode.Classfile.instruction_count hello)

let test_pipeline_rejects_into_error_class () =
  let bad =
    B.class_ "Bad" [ B.meth ~flags:static "f" "()I" [ B.Add; B.Ireturn ] ]
  in
  let out = Proxy.Pipeline.run (filters ()) (Bytecode.Encode.class_to_bytes bad) in
  (match out.Proxy.Pipeline.rejected with
  | Some ("verifier", _) -> ()
  | Some (f, _) -> fail ("rejected by unexpected filter " ^ f)
  | None -> fail "bad class accepted");
  (* The replacement class loads and raises VerifyError at init. *)
  let repl = Bytecode.Decode.class_of_bytes out.Proxy.Pipeline.out_bytes in
  check Alcotest.string "replacement keeps name" "Bad" repl.CF.name;
  let vm = Jvm.Bootlib.fresh_vm () in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg repl;
  match Jvm.Interp.ensure_initialized vm "Bad" with
  | _ -> fail "expected VerifyError"
  | exception Jvm.Vmstate.Throw v ->
    check Alcotest.string "VerifyError" "java/lang/VerifyError"
      (Jvm.Value.class_of v)

let test_pipeline_malformed_input () =
  let out = Proxy.Pipeline.run (filters ()) "garbage not a class" in
  match out.Proxy.Pipeline.rejected with
  | Some ("decode", _) -> ()
  | _ -> fail "malformed input not rejected at decode"

let test_parse_per_service_rejection_parity () =
  (* Regression: the ablation used to name the replacement class after
     the *filter* and to omit the replacement's code-generation cost,
     so a rejection produced different bytes and cheaper totals than
     [run]. Both structures must degrade identically. *)
  let bad =
    B.class_ "Bad" [ B.meth ~flags:static "f" "()I" [ B.Add; B.Ireturn ] ]
  in
  let bytes = Bytecode.Encode.class_to_bytes bad in
  let shared = Proxy.Pipeline.run (filters ()) bytes in
  let naive = Proxy.Pipeline.run_parse_per_service (filters ()) bytes in
  (match (shared.Proxy.Pipeline.rejected, naive.Proxy.Pipeline.rejected) with
  | Some ("verifier", _), Some ("verifier", _) -> ()
  | _ -> fail "both structures must reject via the verifier");
  check Alcotest.string "identical replacement bytes"
    shared.Proxy.Pipeline.out_bytes naive.Proxy.Pipeline.out_bytes;
  check Alcotest.string "replacement keeps the rejected class's name" "Bad"
    (Bytecode.Decode.class_of_bytes naive.Proxy.Pipeline.out_bytes).CF.name;
  (* The verifier is the first filter, so parse/transform/generate work
     is identical — including generating the replacement. *)
  check Alcotest.int64 "replacement generate cost charged in both"
    (Proxy.Pipeline.total_cost shared)
    (Proxy.Pipeline.total_cost naive);
  (* Undecodable input degrades identically too. *)
  let s2 = Proxy.Pipeline.run (filters ()) "garbage not a class" in
  let n2 = Proxy.Pipeline.run_parse_per_service (filters ()) "garbage not a class" in
  check Alcotest.string "malformed: identical replacement bytes"
    s2.Proxy.Pipeline.out_bytes n2.Proxy.Pipeline.out_bytes;
  check Alcotest.int64 "malformed: identical total cost"
    (Proxy.Pipeline.total_cost s2) (Proxy.Pipeline.total_cost n2);
  (* A rejection by the last filter: the ablation has re-parsed and
     re-generated before each earlier service, so it costs more, but
     the replacement is the same. *)
  let refuse =
    Rewrite.Filter.make ~name:"last" (fun cf ->
        Rewrite.Filter.reject ~filter:"last" ~cls:cf.CF.name "refused")
  in
  let hello_bytes = Bytecode.Encode.class_to_bytes hello in
  let s3 = Proxy.Pipeline.run (filters () @ [ refuse ]) hello_bytes in
  let n3 =
    Proxy.Pipeline.run_parse_per_service (filters () @ [ refuse ]) hello_bytes
  in
  (match (s3.Proxy.Pipeline.rejected, n3.Proxy.Pipeline.rejected) with
  | Some ("last", _), Some ("last", _) -> ()
  | _ -> fail "both structures must reject via the last filter");
  check Alcotest.string "last filter: identical replacement bytes"
    s3.Proxy.Pipeline.out_bytes n3.Proxy.Pipeline.out_bytes;
  check Alcotest.int "last filter: one parse per service" 3
    n3.Proxy.Pipeline.parses;
  check Alcotest.bool "last filter: naive costs more" true
    (Proxy.Pipeline.total_cost n3 > Proxy.Pipeline.total_cost s3)

let test_parse_per_service_ablation () =
  let bytes = Bytecode.Encode.class_to_bytes hello in
  let shared = Proxy.Pipeline.run (filters ()) bytes in
  let naive = Proxy.Pipeline.run_parse_per_service (filters ()) bytes in
  check Alcotest.bool "same accepted output" true
    (naive.Proxy.Pipeline.rejected = None
    && String.equal shared.Proxy.Pipeline.out_bytes naive.Proxy.Pipeline.out_bytes);
  check Alcotest.int "one parse per service" 2 naive.Proxy.Pipeline.parses;
  check Alcotest.bool "naive costs more" true
    (Proxy.Pipeline.total_cost naive > Proxy.Pipeline.total_cost shared)

let test_pipeline_signs () =
  (* Every class the proxy serves is signed, a §3.1 replacement too,
     whichever stage refused the input: clients redirect unsigned code
     back to the proxy. *)
  let key = Dsig.Sign.make_key ~key_id:"org" ~secret:"k" in
  let bad =
    B.class_ "Bad" [ B.meth ~flags:static "f" "()I" [ B.Add; B.Ireturn ] ]
  in
  let hello_bytes = Bytecode.Encode.class_to_bytes hello in
  (* a certifier that refuses everything, run after the stack *)
  let refuse_all =
    Rewrite.Filter.make ~name:"certify" (fun cf ->
        Rewrite.Filter.reject ~filter:"certify" ~cls:cf.CF.name "refused")
  in
  List.iter
    (fun (what, stage, certify, bytes) ->
      let stack = filters () @ if certify then [ refuse_all ] else [] in
      let out = Proxy.Pipeline.run ~signer:key stack bytes in
      check
        Alcotest.(option string)
        (what ^ ": rejecting stage") stage
        (Option.map fst out.Proxy.Pipeline.rejected);
      let cf = Bytecode.Decode.class_of_bytes out.Proxy.Pipeline.out_bytes in
      check Alcotest.bool (what ^ ": signature valid") true
        (Dsig.Sign.verify [ key ] cf = Dsig.Sign.Valid))
    [
      ("accepted", None, false, hello_bytes);
      ("undecodable", Some "decode", false, "garbage not a class");
      ( "verifier reject",
        Some "verifier",
        false,
        Bytecode.Encode.class_to_bytes bad );
      ("certify reject", Some "certify", true, hello_bytes);
    ]

let test_pipeline_encode_overflow_rejects () =
  (* Regression: an encoding-limit overflow inside code generation used
     to escape the pipeline as a raw [Io.Overflow] exception (and
     before that, to silently mask the oversized field). It must become
     a §3.1 rejection: the client receives an error-propagation
     replacement class naming the overflow. *)
  let bytes = Bytecode.Encode.class_to_bytes hello in
  (* a "service" that inflates a method body's locals past the u2 field *)
  let inflate_locals =
    Rewrite.Filter.make ~name:"inflate" (fun cf ->
        {
          cf with
          CF.methods =
            List.map
              (fun m ->
                match m.CF.m_code with
                | None -> m
                | Some c ->
                  { m with CF.m_code = Some { c with CF.max_locals = 70_000 } })
              cf.CF.methods;
        })
  in
  let out = Proxy.Pipeline.run [ inflate_locals ] bytes in
  (match out.Proxy.Pipeline.rejected with
  | Some ("encode", reason) ->
    check Alcotest.bool "reason names the field" true
      (String.length reason > 0)
  | Some (f, _) -> fail ("rejected by unexpected filter " ^ f)
  | None -> fail "overflowing class accepted");
  check Alcotest.string "replacement keeps name" "Hello"
    (Bytecode.Decode.class_of_bytes out.Proxy.Pipeline.out_bytes).CF.name;
  (* a string constant past the 64 KiB - 1 wire limit trips the same
     conversion *)
  let inflate_string =
    Rewrite.Filter.make ~name:"inflate" (fun cf ->
        let pool = Bytecode.Cp.Builder.of_pool cf.CF.pool in
        ignore (Bytecode.Cp.Builder.utf8 pool (String.make 66_000 's'));
        { cf with CF.pool = Bytecode.Cp.Builder.to_pool pool })
  in
  (match Proxy.Pipeline.run [ inflate_string ] bytes with
  | { Proxy.Pipeline.rejected = Some ("encode", _); _ } -> ()
  | _ -> fail "oversized string constant accepted");
  (* the ablation structure degrades identically *)
  let naive = Proxy.Pipeline.run_parse_per_service [ inflate_locals ] bytes in
  match naive.Proxy.Pipeline.rejected with
  | Some ("encode", _) ->
    check Alcotest.string "ablation: replacement keeps name" "Hello"
      (Bytecode.Decode.class_of_bytes naive.Proxy.Pipeline.out_bytes).CF.name
  | _ -> fail "ablation accepted overflowing class"

let test_pipeline_memo_transparent () =
  (* A memoized pipeline must be observationally identical to an
     unmemoized one: same outcome bytes and costs, and the same
     telemetry (the hit replays the first run's tape). *)
  let bytes = Bytecode.Encode.class_to_bytes hello in
  let fs = filters () in
  let snapshot () =
    ( Telemetry.counters (),
      List.map
        (fun (k, (s : Telemetry.hist_stats)) -> (k, s.Telemetry.count, s.Telemetry.sum_us))
        (Telemetry.histograms ()),
      Telemetry.span_count () )
  in
  Telemetry.reset ();
  Telemetry.enable ();
  (* Pin the duration histograms the way pinned benches do: with a sim
     clock attached, span durations are simulated time (zero for
     synchronous CPU work) rather than nondeterministic host time. *)
  let saved_sim = Telemetry.sim_clock () in
  Telemetry.set_sim_clock (Some (fun () -> 0L));
  let plain1 = Proxy.Pipeline.run fs bytes in
  let plain2 = Proxy.Pipeline.run fs bytes in
  let reference = snapshot () in
  Telemetry.reset ();
  let memo = Proxy.Pipeline.Memo.create () in
  let memo1 = Proxy.Pipeline.run ~memo fs bytes in
  let memo2 = Proxy.Pipeline.run ~memo fs bytes in
  let memoized = snapshot () in
  Telemetry.set_sim_clock saved_sim;
  Telemetry.disable ();
  check Alcotest.int "one miss" 1 (Proxy.Pipeline.Memo.misses memo);
  check Alcotest.int "one hit" 1 (Proxy.Pipeline.Memo.hits memo);
  check Alcotest.string "identical bytes (1st)" plain1.Proxy.Pipeline.out_bytes
    memo1.Proxy.Pipeline.out_bytes;
  check Alcotest.string "identical bytes (hit)" plain2.Proxy.Pipeline.out_bytes
    memo2.Proxy.Pipeline.out_bytes;
  check Alcotest.int64 "identical cost"
    (Proxy.Pipeline.total_cost plain2)
    (Proxy.Pipeline.total_cost memo2);
  let rc, rh, rs = reference and mc, mh, ms = memoized in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int64))
    "identical counters" rc mc;
  check
    (Alcotest.list
       (Alcotest.triple Alcotest.string Alcotest.int Alcotest.int64))
    "identical histograms" rh mh;
  check Alcotest.int "identical span count" rs ms;
  (* a different filter stack bypasses the pinned memo instead of
     serving the wrong entry *)
  let other = Proxy.Pipeline.run ~memo [ Rewrite.Filter.identity ] bytes in
  check Alcotest.int "other stack misses the memo" 1
    (Proxy.Pipeline.Memo.misses memo);
  check Alcotest.bool "other stack really ran" true
    (String.equal other.Proxy.Pipeline.out_bytes bytes)

(* --- Circuit breaker. --- *)

let test_breaker_consecutive_trip () =
  let b = Proxy.Breaker.create () in
  check Alcotest.bool "starts closed" true (Proxy.Breaker.allow b ~now:0L);
  Proxy.Breaker.record_failure b ~now:0L;
  Proxy.Breaker.record_failure b ~now:1L;
  check Alcotest.bool "two failures stay closed" true
    (Proxy.Breaker.allow b ~now:2L);
  Proxy.Breaker.record_failure b ~now:2L;
  check Alcotest.bool "third consecutive failure opens" false
    (Proxy.Breaker.allow b ~now:3L);
  check Alcotest.int "trip counted" 1 (Proxy.Breaker.trips b)

let test_breaker_half_open_cycle () =
  let b = Proxy.Breaker.create ~cooldown_us:1000L () in
  for i = 0 to 2 do
    Proxy.Breaker.record_failure b ~now:(Int64.of_int i)
  done;
  check Alcotest.bool "open rejects" false (Proxy.Breaker.allow b ~now:500L);
  (* cooldown expires -> half-open admits probes *)
  check Alcotest.bool "half-open admits a probe" true
    (Proxy.Breaker.allow b ~now:1500L);
  Proxy.Breaker.record_success b ~now:1500L;
  Proxy.Breaker.record_success b ~now:1501L;
  check Alcotest.bool "two probe successes close" true
    (Proxy.Breaker.state b ~now:1502L = Proxy.Breaker.Closed);
  (* a probe failure instead re-opens with a doubled cooldown *)
  let b = Proxy.Breaker.create ~cooldown_us:1000L () in
  for i = 0 to 2 do
    Proxy.Breaker.record_failure b ~now:(Int64.of_int i)
  done;
  ignore (Proxy.Breaker.allow b ~now:1500L);
  Proxy.Breaker.record_failure b ~now:1500L;
  check Alcotest.bool "probe failure re-opens" false
    (Proxy.Breaker.allow b ~now:1600L);
  check Alcotest.bool "cooldown doubled: still open after base interval" false
    (Proxy.Breaker.allow b ~now:(Int64.add 1500L 1500L));
  check Alcotest.bool "reopens after the doubled interval" true
    (Proxy.Breaker.allow b ~now:(Int64.add 1500L 2500L))

let test_breaker_flapping_window () =
  (* A flapper: every failure is followed by a success, so the
     consecutive counter never reaches 3 — but the windowed count
     does, and the breaker opens anyway. *)
  let b = Proxy.Breaker.create () in
  let t = ref 0L in
  for _ = 1 to 3 do
    Proxy.Breaker.record_failure b ~now:!t;
    t := Int64.add !t 100_000L;
    Proxy.Breaker.record_success b ~now:!t;
    t := Int64.add !t 100_000L;
    check Alcotest.bool "still closed while under the window threshold" true
      (Proxy.Breaker.allow b ~now:!t)
  done;
  Proxy.Breaker.record_failure b ~now:!t;
  check Alcotest.bool "fourth windowed failure opens" false
    (Proxy.Breaker.allow b ~now:!t);
  (* the same four failures spread over more than the window stay closed *)
  let b = Proxy.Breaker.create ~window_us:1_000_000L () in
  let t = ref 0L in
  for _ = 1 to 4 do
    Proxy.Breaker.record_failure b ~now:!t;
    Proxy.Breaker.record_success b ~now:!t;
    t := Int64.add !t 2_000_000L
  done;
  check Alcotest.bool "slow failures age out of the window" true
    (Proxy.Breaker.allow b ~now:!t)

let test_breaker_half_open_probe_cap () =
  (* Regression: Half_open used to answer [true] to every caller, so
     the whole backlog stampeded the recovering shard at once. The cap
     is [success_threshold] outstanding probes; further callers are
     refused until a probe resolves. *)
  let b = Proxy.Breaker.create ~cooldown_us:1000L ~success_threshold:2 () in
  for i = 0 to 2 do
    Proxy.Breaker.record_failure b ~now:(Int64.of_int i)
  done;
  check Alcotest.bool "first probe admitted" true
    (Proxy.Breaker.allow b ~now:1500L);
  check Alcotest.bool "second probe admitted" true
    (Proxy.Breaker.allow b ~now:1501L);
  check Alcotest.bool "third caller refused: cap reached" false
    (Proxy.Breaker.allow b ~now:1502L);
  check Alcotest.bool "still refused while probes unresolved" false
    (Proxy.Breaker.allow b ~now:1600L);
  (* one probe resolves: exactly one slot frees *)
  Proxy.Breaker.record_success b ~now:1700L;
  check Alcotest.bool "resolved probe frees one slot" true
    (Proxy.Breaker.allow b ~now:1701L);
  check Alcotest.bool "cap holds again" false
    (Proxy.Breaker.allow b ~now:1702L);
  (* the second success closes; traffic flows freely again *)
  Proxy.Breaker.record_success b ~now:1800L;
  check Alcotest.bool "closed after threshold successes" true
    (Proxy.Breaker.state b ~now:1801L = Proxy.Breaker.Closed);
  check Alcotest.bool "closed admits everyone" true
    (Proxy.Breaker.allow b ~now:1802L && Proxy.Breaker.allow b ~now:1803L
    && Proxy.Breaker.allow b ~now:1804L)

(* State-machine property for the breaker: drive the real
   implementation and an independently written reference model with
   the same random op sequence and require identical observable
   behaviour — every [allow] verdict, the state, and the trip count.
   The model encodes the spec directly: trips open for the current
   cooldown, each trip doubles the cooldown up to the cap, closing
   resets it, Open always refuses, Half_open admits at most
   [success_threshold] unresolved probes. *)
type breaker_op = B_allow | B_success | B_failure | B_advance of int

let prop_breaker_matches_model =
  let fail_threshold = 3 and window_threshold = 4 and success_threshold = 2 in
  let window_us = 10_000L and base_cooldown = 1_000L and max_cooldown = 4_000L in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 80)
        (frequency
           [
             (3, return B_allow);
             (2, return B_success);
             (3, return B_failure);
             (2, map (fun d -> B_advance d) (int_range 1 3_000));
           ]))
  in
  let print_ops ops =
    String.concat ";"
      (List.map
         (function
           | B_allow -> "allow"
           | B_success -> "success"
           | B_failure -> "failure"
           | B_advance d -> Printf.sprintf "+%dus" d)
         ops)
  in
  QCheck.Test.make ~count:500
    ~name:"breaker matches its reference model (open refuses, cooldown \
           doubles and caps, close resets, probe cap)"
    (QCheck.make gen ~print:print_ops)
    (fun ops ->
      let b = Proxy.Breaker.create ~fail_threshold ~window_threshold ~window_us
          ~cooldown_us:base_cooldown ~max_cooldown_us:max_cooldown
          ~success_threshold ()
      in
      (* the reference model *)
      let m_st = ref `Closed and m_consec = ref 0 and m_window = ref [] in
      let m_cooldown = ref base_cooldown and m_open_until = ref 0L in
      let m_succ = ref 0 and m_inflight = ref 0 and m_trips = ref 0 in
      let now = ref 0L in
      let m_refresh () =
        if !m_st = `Open && Int64.compare !now !m_open_until >= 0 then begin
          m_st := `Half_open;
          m_succ := 0;
          m_inflight := 0
        end
      in
      let m_trip () =
        m_st := `Open;
        m_open_until := Int64.add !now !m_cooldown;
        m_cooldown :=
          (let d = Int64.mul !m_cooldown 2L in
           if Int64.compare d max_cooldown > 0 then max_cooldown else d);
        m_succ := 0;
        m_inflight := 0;
        incr m_trips
      in
      List.for_all
        (fun op ->
          match op with
          | B_advance d ->
            now := Int64.add !now (Int64.of_int d);
            true
          | B_allow ->
            m_refresh ();
            let model_verdict =
              match !m_st with
              | `Closed -> true
              | `Open -> false
              | `Half_open ->
                if !m_inflight >= success_threshold then false
                else begin
                  incr m_inflight;
                  true
                end
            in
            let real = Proxy.Breaker.allow b ~now:!now in
            real = model_verdict
            && not (real && Proxy.Breaker.state b ~now:!now = Proxy.Breaker.Open)
          | B_failure ->
            m_refresh ();
            incr m_consec;
            let horizon = Int64.sub !now window_us in
            m_window :=
              !now
              :: List.filter
                   (fun at -> Int64.compare at horizon >= 0)
                   !m_window;
            (match !m_st with
            | `Open -> ()
            | `Half_open -> m_trip ()
            | `Closed ->
              if
                !m_consec >= fail_threshold
                || List.length !m_window >= window_threshold
              then m_trip ());
            Proxy.Breaker.record_failure b ~now:!now;
            Proxy.Breaker.trips b = !m_trips
          | B_success ->
            m_refresh ();
            m_consec := 0;
            (match !m_st with
            | `Open | `Closed -> ()
            | `Half_open ->
              if !m_inflight > 0 then decr m_inflight;
              incr m_succ;
              if !m_succ >= success_threshold then begin
                m_st := `Closed;
                m_window := [];
                m_cooldown := base_cooldown;
                m_inflight := 0
              end);
            Proxy.Breaker.record_success b ~now:!now;
            (match (Proxy.Breaker.state b ~now:!now, !m_st) with
            | Proxy.Breaker.Closed, `Closed
            | Proxy.Breaker.Open, `Open
            | Proxy.Breaker.Half_open, `Half_open ->
              true
            | _ -> false))
        ops)

(* --- Admission control. --- *)

let test_admission_deadline_shed () =
  let a = Proxy.Admission.create () in
  (* plenty of budget: admitted *)
  (match
     Proxy.Admission.admit a ~now:0L ~deadline:(Some 100_000L) ~est_us:50_000L
   with
  | Proxy.Admission.Admit -> ()
  | _ -> fail "affordable request was shed");
  check Alcotest.int "inflight tracks admission" 1 (Proxy.Admission.inflight a);
  (* deadline closer than the estimate: shed *)
  (match
     Proxy.Admission.admit a ~now:0L ~deadline:(Some 40_000L) ~est_us:50_000L
   with
  | Proxy.Admission.Shed_deadline -> ()
  | _ -> fail "doomed request was admitted");
  (* no deadline carried: always admitted *)
  (match Proxy.Admission.admit a ~now:0L ~deadline:None ~est_us:1_000_000L with
  | Proxy.Admission.Admit -> ()
  | _ -> fail "deadline-free request was shed");
  Proxy.Admission.complete a;
  Proxy.Admission.complete a;
  check Alcotest.int "completions drain inflight" 0
    (Proxy.Admission.inflight a);
  check Alcotest.int "sheds counted" 1 (Proxy.Admission.shed_deadline a)

let test_admission_queue_shed () =
  let a = Proxy.Admission.create ~queue_limit:2 () in
  let admit () =
    Proxy.Admission.admit a ~now:0L ~deadline:None ~est_us:0L
  in
  (match (admit (), admit ()) with
  | Proxy.Admission.Admit, Proxy.Admission.Admit -> ()
  | _ -> fail "under-limit requests were shed");
  (match admit () with
  | Proxy.Admission.Shed_queue -> ()
  | _ -> fail "over-limit request was admitted");
  Proxy.Admission.complete a;
  match admit () with
  | Proxy.Admission.Admit -> ()
  | _ -> fail "freed slot was not reusable"

let test_admission_ewma_tracks_cost () =
  let a = Proxy.Admission.create () in
  check Alcotest.int64 "initial estimate" 50_000L
    (Proxy.Admission.estimate_us a);
  (* a run of slow misses pulls the estimate up *)
  for _ = 1 to 30 do
    (match Proxy.Admission.admit a ~now:0L ~deadline:None ~est_us:0L with
    | Proxy.Admission.Admit -> ()
    | _ -> fail "shed");
    Proxy.Admission.complete ~sample:200_000L a
  done;
  check Alcotest.bool "estimate converged toward the samples" true
    (Proxy.Admission.estimate_us a > 150_000L);
  (* completions without a sample (hits, joins) leave it alone *)
  let before = Proxy.Admission.estimate_us a in
  (match Proxy.Admission.admit a ~now:0L ~deadline:None ~est_us:0L with
  | Proxy.Admission.Admit -> ()
  | _ -> fail "shed");
  Proxy.Admission.complete a;
  check Alcotest.int64 "sample-free completion leaves the estimate" before
    (Proxy.Admission.estimate_us a)

(* --- Proxy request paths. --- *)

let origin_for classes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun cf -> Hashtbl.replace tbl cf.CF.name (Bytecode.Encode.class_to_bytes cf))
    classes;
  fun name -> Hashtbl.find_opt tbl name

(* The proxy sheds a deadline it cannot make, and replies Overloaded
   rather than queueing: the distinct reply is what stops the client
   from counting it as a failure against the breaker. *)
let test_proxy_sheds_hopeless_deadline () =
  let engine = Simnet.Engine.create () in
  let proxy =
    Proxy.create engine ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> 0L)
      ~filters:(filters ()) ()
  in
  (* a deadline in the past can never be met *)
  let got = ref None in
  Proxy.request proxy ~deadline:0L ~cls:"Hello" (fun r -> got := Some r);
  Simnet.Engine.run engine;
  (match !got with
  | Some Proxy.Overloaded -> ()
  | _ -> fail "hopeless deadline was not shed");
  check Alcotest.int "shed counted" 1
    (Proxy.Admission.shed_deadline proxy.Proxy.admission);
  check Alcotest.int "no origin fetch for a shed request" 0
    proxy.Proxy.origin_fetches;
  (* an achievable deadline is served as usual *)
  let got = ref None in
  Proxy.request proxy ~deadline:10_000_000L ~cls:"Hello" (fun r ->
      got := Some r);
  Simnet.Engine.run engine;
  (match !got with
  | Some (Proxy.Bytes _) -> ()
  | _ -> fail "achievable deadline was not served");
  check Alcotest.int "no further shed" 1
    (Proxy.Admission.shed_deadline proxy.Proxy.admission)

let test_request_sync_and_cache () =
  let engine = Simnet.Engine.create () in
  let proxy =
    Proxy.create engine ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> 0L)
      ~filters:(filters ()) ()
  in
  (match Proxy.request_sync proxy ~cls:"Hello" with
  | Proxy.Bytes _ -> ()
  | Proxy.Not_found | Proxy.Unavailable | Proxy.Overloaded -> fail "not served");
  check Alcotest.int "one origin fetch" 1 proxy.Proxy.origin_fetches;
  (match Proxy.request_sync proxy ~cls:"Hello" with
  | Proxy.Bytes _ -> ()
  | Proxy.Not_found | Proxy.Unavailable | Proxy.Overloaded -> fail "not served from cache");
  check Alcotest.int "cache hit, no refetch" 1 proxy.Proxy.origin_fetches;
  match Proxy.request_sync proxy ~cls:"Nowhere" with
  | Proxy.Not_found -> ()
  | Proxy.Bytes _ | Proxy.Unavailable | Proxy.Overloaded -> fail "phantom class"

let test_missing_class_charges_cpu () =
  (* Answering [Not_found] runs the missing-class lookup on the node's
     CPU, and [cpu_us] counts that job like every other one. *)
  let engine = Simnet.Engine.create () in
  let proxy =
    Proxy.create engine ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> 0L)
      ~filters:(filters ()) ()
  in
  (match Proxy.request_sync proxy ~cls:"Nowhere" with
  | Proxy.Not_found -> ()
  | Proxy.Bytes _ | Proxy.Unavailable | Proxy.Overloaded -> fail "phantom class");
  check Alcotest.int64 "the lookup's CPU counted" Serve_core.missing_us
    proxy.Proxy.cpu_us;
  check Alcotest.int64 "as long as the host ran it"
    proxy.Proxy.host.Simnet.Host.cpu_busy proxy.Proxy.cpu_us

let test_request_sync_is_simulated_path () =
  (* [request_sync] is [request] run to completion: it obeys the fence
     and the host's state, and charges what [request] charges,
     signing included. *)
  let node ?signer () =
    Proxy.create (Simnet.Engine.create ()) ?signer
      ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> 0L)
      ~filters:(filters ()) ()
  in
  let refused what p =
    match Proxy.request_sync p ~cls:"Hello" with
    | Proxy.Unavailable -> ()
    | Proxy.Bytes _ -> fail (what ^ ": served")
    | Proxy.Not_found | Proxy.Overloaded -> fail (what ^ ": wrong refusal")
  in
  let fenced = node () in
  fenced.Proxy.serving_allowed <- (fun () -> false);
  refused "fenced node" fenced;
  check Alcotest.int "fence counted" 1 fenced.Proxy.fenced_rejects;
  let crashed = node () in
  Simnet.Host.crash crashed.Proxy.host;
  refused "crashed host" crashed;
  let key = Dsig.Sign.make_key ~key_id:"org" ~secret:"k" in
  let signed = node ~signer:key () in
  (match Proxy.request_sync signed ~cls:"Hello" with
  | Proxy.Bytes _ -> ()
  | Proxy.Not_found | Proxy.Unavailable | Proxy.Overloaded ->
    fail "signed node did not serve");
  let o =
    Proxy.Pipeline.run ~signer:key (filters ())
      (Bytecode.Encode.class_to_bytes hello)
  in
  let sign_cost =
    Dsig.Sign.sign_cost_us ~bytes:(String.length o.Proxy.Pipeline.out_bytes)
  in
  check Alcotest.int64 "a miss charges the pipeline and the signature"
    (Int64.add (Proxy.Pipeline.total_cost o) (Int64.of_int sign_cost))
    signed.Proxy.cpu_us

let test_request_async_timing () =
  let engine = Simnet.Engine.create () in
  let proxy =
    Proxy.create engine
      ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> Simnet.Engine.ms 100)
      ~filters:(filters ()) ()
  in
  let served_at = ref (-1L) in
  Proxy.request proxy ~cls:"Hello" (fun reply ->
      match reply with
      | Proxy.Bytes _ -> served_at := Simnet.Engine.now engine
      | Proxy.Not_found | Proxy.Unavailable | Proxy.Overloaded -> fail "not served");
  Simnet.Engine.run engine;
  (* must include WAN latency plus pipeline compute *)
  check Alcotest.bool "after WAN latency" true (!served_at >= 100_000L);
  check Alcotest.bool "pipeline time accounted" true
    (Int64.to_int !served_at > 100_000)

let test_provider_feeds_client () =
  let engine = Simnet.Engine.create () in
  let proxy =
    Proxy.create engine ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> 0L)
      ~filters:(filters ()) ()
  in
  let vm = Jvm.Bootlib.fresh_vm ~provider:(Proxy.provider proxy) () in
  ignore (Verifier.Rt_verifier.install vm);
  ignore (Monitor.Profiler.install vm ());
  (match Jvm.Interp.run_main vm "Hello" with
  | Ok () -> ()
  | Error e -> fail (Jvm.Interp.describe_throwable e));
  check Alcotest.string "output through full path" "hi\n" (Jvm.Vmstate.output vm)

let test_cache_hit_audit_timing () =
  (* Regression: the cache-hit path used to count bytes_served and
     write the audit record at dispatch time, before the cache-service
     CPU work ran — so audit timestamps led the virtual clock. *)
  let engine = Simnet.Engine.create () in
  let audit = Monitor.Audit.create () in
  let proxy =
    Proxy.create engine ~audit ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> 0L)
      ~filters:(filters ()) ()
  in
  Proxy.request proxy ~cls:"Hello" (fun _ -> ());
  Simnet.Engine.run engine;
  let dispatched_at = Simnet.Engine.now engine in
  let served_before = proxy.Proxy.bytes_served in
  let replied_at = ref (-1L) in
  Proxy.request proxy ~cls:"Hello" (fun reply ->
      (match reply with
      | Proxy.Bytes _ -> ()
      | Proxy.Not_found | Proxy.Unavailable | Proxy.Overloaded -> fail "cache hit not served");
      replied_at := Simnet.Engine.now engine;
      check Alcotest.bool "bytes_served counted by completion" true
        (proxy.Proxy.bytes_served > served_before));
  check Alcotest.int "bytes_served not counted at dispatch" served_before
    proxy.Proxy.bytes_served;
  Simnet.Engine.run engine;
  check Alcotest.bool "cache service occupies the CPU" true
    (!replied_at > dispatched_at);
  match Monitor.Audit.filter_kind audit "proxy.cache_hit" with
  | [ ev ] ->
    check Alcotest.int64 "audit record stamped at completion" !replied_at
      ev.Monitor.Audit.ev_time
  | evs ->
    fail
      (Printf.sprintf "expected one cache-hit audit record, got %d"
         (List.length evs))

let test_cache_gauges_refresh_on_evict () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:Telemetry.disable
    (fun () ->
      let c = Proxy.Cache.create ~capacity:100 in
      Proxy.Cache.store c "a" (String.make 40 'a');
      Proxy.Cache.store c "b" (String.make 40 'b');
      (* storing c evicts the LRU entry; the occupancy gauges must
         reflect the post-eviction state, not the last store *)
      Proxy.Cache.store c "c" (String.make 40 'c');
      check Alcotest.int "two entries" 2 (Proxy.Cache.size c);
      check Alcotest.int64 "bytes gauge tracks eviction" 80L
        (Telemetry.gauge_value "cache.bytes_used");
      check Alcotest.int64 "entries gauge tracks eviction" 2L
        (Telemetry.gauge_value "cache.entries"))

let test_single_flight_coalesces () =
  let engine = Simnet.Engine.create () in
  let proxy =
    Proxy.create engine
      ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> Simnet.Engine.ms 100)
      ~filters:(filters ()) ()
  in
  let replies = ref [] in
  for _ = 1 to 3 do
    Proxy.request proxy ~cls:"Hello" (fun r -> replies := r :: !replies)
  done;
  Simnet.Engine.run engine;
  (match !replies with
  | [ Proxy.Bytes a; Proxy.Bytes b; Proxy.Bytes c ] ->
    check Alcotest.string "identical bytes (1=2)" a b;
    check Alcotest.string "identical bytes (2=3)" b c
  | rs -> fail (Printf.sprintf "expected 3 served replies, got %d" (List.length rs)));
  check Alcotest.int "one pipeline run" 1 proxy.Proxy.pipeline_runs;
  check Alcotest.int "one origin fetch" 1 proxy.Proxy.origin_fetches;
  check Alcotest.int "two joined the leader" 2 proxy.Proxy.coalesced;
  check Alcotest.int "inflight table drained" 0
    (Hashtbl.length proxy.Proxy.core.Serve_core.flights);
  (* a later request is an ordinary cache hit, not a new flight *)
  Proxy.request proxy ~cls:"Hello" (fun _ -> ());
  Simnet.Engine.run engine;
  check Alcotest.int "still one pipeline run" 1 proxy.Proxy.pipeline_runs

let test_single_flight_crash_fails_all_waiters () =
  (* A crash mid-flight settles the whole flight as failed: the leader
     and every joined waiter reply [Unavailable], and the in-flight
     entry is dropped so a post-restart retry starts fresh. *)
  let engine = Simnet.Engine.create () in
  let proxy =
    Proxy.create engine
      ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> Simnet.Engine.ms 100)
      ~filters:(filters ()) ()
  in
  let served = ref 0 and failed = ref 0 in
  let issue () =
    Proxy.request proxy ~cls:"Hello" (function
      | Proxy.Unavailable -> incr failed
      | Proxy.Bytes _ | Proxy.Not_found | Proxy.Overloaded -> incr served)
  in
  issue ();
  issue ();
  (* crash while the leader's pipeline run occupies the CPU: origin
     latency is 100 ms and the pipeline needs >1 ms of compute *)
  Simnet.Engine.schedule engine ~delay:100_500L (fun () ->
      Simnet.Host.crash proxy.Proxy.host);
  Simnet.Engine.run engine;
  check Alcotest.int "nothing served" 0 !served;
  check Alcotest.int "leader and waiter both failed" 2 !failed;
  check Alcotest.int "inflight entry dropped" 0
    (Hashtbl.length proxy.Proxy.core.Serve_core.flights);
  (* after restart, a retry is a fresh flight and succeeds *)
  Simnet.Host.restart proxy.Proxy.host;
  let ok = ref false in
  Proxy.request proxy ~cls:"Hello" (fun r ->
      match r with Proxy.Bytes _ -> ok := true | _ -> ());
  Simnet.Engine.run engine;
  check Alcotest.bool "retry after restart served" true !ok

(* Every reply a standalone request gets, in order. *)
let replies_of proxy ~cls =
  let got = ref [] in
  Proxy.request proxy ~cls (fun r -> got := r :: !got);
  got

let test_crashed_host_replies_unavailable () =
  (* Regression: without a failure hook, a request to a down host
     never completed. It now replies [Unavailable], once. *)
  let engine = Simnet.Engine.create () in
  let proxy =
    Proxy.create engine ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> Simnet.Engine.ms 100)
      ~filters:(filters ()) ()
  in
  Simnet.Host.crash proxy.Proxy.host;
  let got = replies_of proxy ~cls:"Hello" in
  Simnet.Engine.run engine;
  match !got with
  | [ Proxy.Unavailable ] -> ()
  | rs -> fail (Printf.sprintf "expected one Unavailable, got %d replies" (List.length rs))

let test_crash_mid_cache_hit_replies_unavailable () =
  (* Regression: a host crash while a cache hit occupied the CPU
     dropped the request without a reply. *)
  let engine = Simnet.Engine.create () in
  let proxy =
    Proxy.create engine ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> Simnet.Engine.ms 100)
      ~filters:(filters ()) ()
  in
  (match Proxy.request_sync proxy ~cls:"Hello" with
  | Proxy.Bytes _ -> ()
  | _ -> fail "warm-up not served");
  let hits = proxy.Proxy.cache.Proxy.Cache.hits in
  let got = replies_of proxy ~cls:"Hello" in
  (* a hit holds the CPU for 2 ms; crash halfway through *)
  Simnet.Engine.schedule engine ~delay:1_000L (fun () ->
      Simnet.Host.crash proxy.Proxy.host);
  Simnet.Engine.run engine;
  check Alcotest.int "the request was a cache hit" (hits + 1)
    proxy.Proxy.cache.Proxy.Cache.hits;
  match !got with
  | [ Proxy.Unavailable ] -> ()
  | rs -> fail (Printf.sprintf "expected one Unavailable, got %d replies" (List.length rs))

let test_single_flight_respects_policy_version () =
  (* Regression: the in-flight table was keyed by class alone, so a
     request arriving after a bump, while the pre-bump run was still
     on the CPU, joined that run and was served bytes rewritten under
     the revoked version. A request that joined before the bump still
     settles with the run it joined. *)
  let engine = Simnet.Engine.create () in
  let mark name =
    Rewrite.Filter.make ~name (fun cf ->
        { cf with CF.fields = B.field name "I" :: cf.CF.fields })
  in
  let v1 = [ mark "v1" ] and v2 = [ mark "v2" ] in
  let proxy =
    Proxy.create engine
      ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> Simnet.Engine.ms 100)
      ~filters:v1 ()
  in
  proxy.Proxy.policy_version <- 1;
  let replies = Array.make 3 None in
  let issue i =
    Proxy.request proxy ~cls:"Hello" (fun r -> replies.(i) <- Some r)
  in
  issue 0;
  issue 1;
  (* the v1 run is on the CPU at 100.5 ms when the node applies v2 *)
  Simnet.Engine.schedule engine ~delay:100_500L (fun () ->
      check Alcotest.int "v1 run in flight" 1
        (Hashtbl.length proxy.Proxy.core.Serve_core.flights);
      proxy.Proxy.filters <- v2;
      proxy.Proxy.policy_version <- 2;
      issue 2);
  Simnet.Engine.run engine;
  let expect filters policy_version =
    (Proxy.Pipeline.run ~policy_version filters
       (Bytecode.Encode.class_to_bytes hello))
      .Proxy.Pipeline.out_bytes
  in
  List.iteri
    (fun i (what, bytes) ->
      match replies.(i) with
      | Some (Proxy.Bytes b) -> check Alcotest.string what bytes b
      | _ -> fail (what ^ ": not served"))
    [
      ("leader gets its v1 run", expect v1 1);
      ("pre-bump joiner settles with the v1 run", expect v1 1);
      ("post-bump request gets v2 bytes", expect v2 2);
    ];
  check Alcotest.int "only the pre-bump request joined" 1
    proxy.Proxy.coalesced;
  check Alcotest.int "one run per version" 2 proxy.Proxy.pipeline_runs

let test_shared_l2_rewarm () =
  (* Two shards share one L2: the second shard serves the class from
     its peer's pipeline output (no pipeline run, no origin fetch),
     and a shard that loses its L1 to a restart rewarms from the L2. *)
  let engine = Simnet.Engine.create () in
  let l2 = Proxy.Cache.create ~capacity:(1024 * 1024) in
  let mk name =
    Proxy.create engine ~host_name:name ~l2
      ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> 0L)
      ~filters:(filters ()) ()
  in
  let a = mk "shard-a" and b = mk "shard-b" in
  let bytes_a =
    match Proxy.request_sync a ~cls:"Hello" with
    | Proxy.Bytes x -> x
    | _ -> fail "shard a did not serve"
  in
  check Alcotest.int "a ran the pipeline" 1 a.Proxy.pipeline_runs;
  (match Proxy.request_sync b ~cls:"Hello" with
  | Proxy.Bytes x -> check Alcotest.string "identical bytes from L2" bytes_a x
  | _ -> fail "shard b did not serve");
  check Alcotest.int "b skipped the pipeline" 0 b.Proxy.pipeline_runs;
  check Alcotest.int "b never touched the origin" 0 b.Proxy.origin_fetches;
  check Alcotest.int "b hit the shared tier" 1 b.Proxy.l2_hits;
  (* cold restart: b's L1 is gone, the shared tier still has the class *)
  Proxy.Cache.drop_fraction b.Proxy.cache ~fraction:1.0;
  (match Proxy.request_sync b ~cls:"Hello" with
  | Proxy.Bytes x -> check Alcotest.string "rewarmed bytes identical" bytes_a x
  | _ -> fail "shard b did not rewarm");
  check Alcotest.int "rewarm came from the L2" 2 b.Proxy.l2_hits;
  check Alcotest.int "still no pipeline run on b" 0 b.Proxy.pipeline_runs

(* Filters that stamp the class with their name, and the bytes a
   [policy_version] run of them serves. *)
let marked name =
  [
    Rewrite.Filter.make ~name (fun cf ->
        { cf with CF.fields = B.field name "I" :: cf.CF.fields });
  ]

let rewritten filters policy_version =
  (Proxy.Pipeline.run ~policy_version filters
     (Bytecode.Encode.class_to_bytes hello))
    .Proxy.Pipeline.out_bytes

let one_reply what got =
  match !got with
  | [ r ] -> r
  | rs -> fail (Printf.sprintf "%s: %d replies" what (List.length rs))

let test_single_flight_down_at_arrival () =
  (* Regression: the origin fetch is an engine delay, not CPU work, so
     nothing checked the host when the bytes arrived: a host that went
     down during the fetch still ran the pipeline, and only then failed
     the flight. It now fails the flight after one zero-delay hop. *)
  let engine = Simnet.Engine.create () in
  let proxy =
    Proxy.create engine
      ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> Simnet.Engine.ms 100)
      ~filters:(filters ()) ()
  in
  let got = replies_of proxy ~cls:"Hello" in
  Simnet.Engine.schedule engine ~delay:(Simnet.Engine.ms 50) (fun () ->
      Simnet.Host.crash proxy.Proxy.host);
  Simnet.Engine.run engine;
  check Alcotest.int "no pipeline run for a dead flight" 0
    proxy.Proxy.pipeline_runs;
  check Alcotest.bool "failed when the bytes arrived" true
    (Simnet.Engine.now engine > 100_000L);
  (match one_reply "leader" got with
  | Proxy.Unavailable -> ()
  | _ -> fail "leader not failed");
  check Alcotest.int "admission balanced" 0
    (Proxy.Admission.inflight proxy.Proxy.admission)

let test_single_flight_crash_restart_in_fetch () =
  (* Regression: a crash and a restart that both fell inside one origin
     fetch let the pre-crash flight serve after the restart. After a
     cold restart (L1 gone, base policy, as the control-plane chaos run
     restarts a shard) that served the request admitted under version 2
     bytes rewritten under the revoked version 1; after a warm one, a
     post-restart request joined the dead flight. *)
  let engine = Simnet.Engine.create () in
  let v1 = marked "v1" and v2 = marked "v2" in
  let proxy =
    Proxy.create engine
      ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> Simnet.Engine.ms 100)
      ~filters:v2 ()
  in
  proxy.Proxy.policy_version <- 2;
  let pre = replies_of proxy ~cls:"Hello" in
  Simnet.Engine.schedule engine ~delay:(Simnet.Engine.ms 30) (fun () ->
      Simnet.Host.crash proxy.Proxy.host);
  Simnet.Engine.schedule engine ~delay:(Simnet.Engine.ms 60) (fun () ->
      Simnet.Host.restart proxy.Proxy.host;
      Proxy.Cache.clear proxy.Proxy.cache;
      proxy.Proxy.filters <- v1;
      proxy.Proxy.policy_version <- 1);
  Simnet.Engine.run engine;
  (match one_reply "cold: pre-crash request" pre with
  | Proxy.Unavailable -> ()
  | Proxy.Bytes b when String.equal b (rewritten v1 1) ->
    fail "cold: revoked-version bytes served to a v2 request"
  | _ -> fail "cold: pre-crash request not failed");
  check Alcotest.int "cold: no pipeline run" 0 proxy.Proxy.pipeline_runs;
  (* Warm: same version across the restart. *)
  let pre = replies_of proxy ~cls:"Hello" in
  let post = ref (ref []) in
  Simnet.Engine.schedule engine ~delay:(Simnet.Engine.ms 30) (fun () ->
      Simnet.Host.crash proxy.Proxy.host);
  Simnet.Engine.schedule engine ~delay:(Simnet.Engine.ms 60) (fun () ->
      Simnet.Host.restart proxy.Proxy.host);
  Simnet.Engine.schedule engine ~delay:(Simnet.Engine.ms 70) (fun () ->
      post := replies_of proxy ~cls:"Hello");
  Simnet.Engine.run engine;
  (match one_reply "warm: pre-crash request" pre with
  | Proxy.Unavailable -> ()
  | _ -> fail "warm: the pre-crash flight served after the restart");
  (match one_reply "warm: post-restart request" !post with
  | Proxy.Bytes b -> check Alcotest.string "warm: fresh v1 run" (rewritten v1 1) b
  | _ -> fail "warm: post-restart request not served");
  check Alcotest.int "warm: the post-restart request led its own flight" 0
    proxy.Proxy.coalesced;
  check Alcotest.int "warm: one pipeline run, for it" 1
    proxy.Proxy.pipeline_runs

let test_l2_rewarm_keeps_version () =
  (* Regression: an L2 hit rewarmed the L1 under the node's version
     when the transfer finished, not the version the L2 entry matched.
     A bump during the transfer relabelled version-1 bytes as version
     2, and the next request served them from the L1. *)
  let engine = Simnet.Engine.create () in
  let l2 = Proxy.Cache.create ~capacity:(1024 * 1024) in
  let v1 = marked "v1" and v2 = marked "v2" in
  let mk name =
    let p =
      Proxy.create engine ~host_name:name ~l2
        ~origin:(origin_for [ hello ])
        ~origin_latency:(fun _ -> 0L)
        ~filters:v1 ()
    in
    p.Proxy.policy_version <- 1;
    p
  in
  let a = mk "shard-a" and b = mk "shard-b" in
  (match Proxy.request_sync a ~cls:"Hello" with
  | Proxy.Bytes _ -> ()
  | _ -> fail "shard a did not serve");
  let during = replies_of b ~cls:"Hello" in
  (* the transfer holds b's CPU for at least the 1.5 ms lookup *)
  Simnet.Engine.schedule engine ~delay:(Simnet.Engine.ms 1) (fun () ->
      b.Proxy.filters <- v2;
      b.Proxy.policy_version <- 2);
  Simnet.Engine.run engine;
  (match one_reply "admitted under v1" during with
  | Proxy.Bytes x -> check Alcotest.string "v1 bytes from the L2" (rewritten v1 1) x
  | _ -> fail "L2 hit not served");
  check Alcotest.int "it was an L2 hit" 1 b.Proxy.l2_hits;
  match Proxy.request_sync b ~cls:"Hello" with
  | Proxy.Bytes x ->
    check Alcotest.string "a v2 request is served v2 bytes" (rewritten v2 2) x
  | _ -> fail "v2 request not served"

let test_audit_trail () =
  let engine = Simnet.Engine.create () in
  let audit = Monitor.Audit.create () in
  let proxy =
    Proxy.create engine ~audit ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> 0L)
      ~filters:(filters ()) ()
  in
  let done_ = ref false in
  Proxy.request proxy ~cls:"Hello" (fun _ -> done_ := true);
  Simnet.Engine.run engine;
  check Alcotest.bool "served" true !done_;
  check Alcotest.bool "audited" true
    (List.length (Monitor.Audit.filter_kind audit "proxy.serve") = 1);
  check Alcotest.bool "chain ok" true (Monitor.Audit.verify_chain audit)

(* --- Request context. ---

   A request's deadline and trace context reach the node as values,
   with no framing between caller and node: the node opens its span
   under the context it is handed, and records nothing under one that
   tracing has gone off for since it was minted. *)

module Trace = Telemetry.Trace

let with_tracing f =
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

let served_hello ?trace () =
  let engine = Simnet.Engine.create () in
  let proxy =
    Proxy.create engine ~origin:(origin_for [ hello ])
      ~origin_latency:(fun _ -> 0L)
      ~filters:(filters ()) ()
  in
  let got = ref [] in
  Proxy.request proxy ?trace ~cls:"Hello" (fun r -> got := r :: !got);
  Simnet.Engine.run engine;
  match !got with
  | [ Proxy.Bytes _ ] -> ()
  | _ -> fail "Hello was not served exactly once"

let test_trace_ctx_nests_node_span () =
  with_tracing (fun () ->
      let root = Trace.root ~node:"client" "fetch" in
      let ctx = Trace.ctx_of root in
      served_hello ~trace:ctx ();
      Trace.finish root;
      match Trace.trace_ids () with
      | [ tr ] -> (
        let spans = Trace.spans_of tr in
        match
          ( List.filter (fun s -> s.Trace.s_parent = 0) spans,
            List.filter (fun s -> s.Trace.s_name = "proxy.request") spans )
        with
        | [ r ], [ n ] ->
          check Alcotest.int "node span under the caller's root" r.Trace.s_id
            n.Trace.s_parent;
          check Alcotest.bool "node span closed" true
            (Int64.compare n.Trace.s_end 0L >= 0)
        | rs, ns ->
          Alcotest.failf "expected 1 root and 1 node span, got %d and %d"
            (List.length rs) (List.length ns))
      | l -> Alcotest.failf "expected 1 trace, got %d" (List.length l))

let test_trace_off_in_flight_records_nothing () =
  with_tracing (fun () ->
      let root = Trace.root ~node:"client" "fetch" in
      let ctx = Trace.ctx_of root in
      Trace.disable ();
      check Alcotest.bool "ctx dead once tracing is off" false (Trace.live ctx);
      served_hello ~trace:ctx ();
      check Alcotest.int "no span beyond the root" 1 (Trace.span_count ());
      check Alcotest.int "no event" 0 (Trace.event_count ()))

let () =
  Alcotest.run "proxy"
    [
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "disabled" `Quick test_cache_disabled;
          Alcotest.test_case "oversized" `Quick test_cache_oversized_not_stored;
          Alcotest.test_case "gauges refresh on evict" `Quick
            test_cache_gauges_refresh_on_evict;
          Alcotest.test_case "restart drops not evictions" `Quick
            test_cache_restart_drops_not_evictions;
          Alcotest.test_case "disabled cache counts misses" `Quick
            test_cache_disabled_counts_miss;
          Alcotest.test_case "oversize skip counter" `Quick
            test_cache_oversize_skip_counter;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "transforms" `Quick test_pipeline_transforms;
          Alcotest.test_case "rejects to error class" `Quick
            test_pipeline_rejects_into_error_class;
          Alcotest.test_case "malformed input" `Quick
            test_pipeline_malformed_input;
          Alcotest.test_case "parse-per-service ablation" `Quick
            test_parse_per_service_ablation;
          Alcotest.test_case "parse-per-service rejection parity" `Quick
            test_parse_per_service_rejection_parity;
          Alcotest.test_case "signing" `Quick test_pipeline_signs;
          Alcotest.test_case "encode overflow rejects" `Quick
            test_pipeline_encode_overflow_rejects;
          Alcotest.test_case "memo transparent" `Quick
            test_pipeline_memo_transparent;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "consecutive trip" `Quick
            test_breaker_consecutive_trip;
          Alcotest.test_case "half-open cycle" `Quick
            test_breaker_half_open_cycle;
          Alcotest.test_case "flapping window" `Quick
            test_breaker_flapping_window;
          Alcotest.test_case "half-open probe cap" `Quick
            test_breaker_half_open_probe_cap;
          QCheck_alcotest.to_alcotest prop_breaker_matches_model;
        ] );
      ( "admission",
        [
          Alcotest.test_case "deadline shed" `Quick test_admission_deadline_shed;
          Alcotest.test_case "queue shed" `Quick test_admission_queue_shed;
          Alcotest.test_case "ewma cost tracking" `Quick
            test_admission_ewma_tracks_cost;
          Alcotest.test_case "sheds hopeless deadline" `Quick
            test_proxy_sheds_hopeless_deadline;
        ] );
      ( "requests",
        [
          Alcotest.test_case "sync + cache" `Quick test_request_sync_and_cache;
          Alcotest.test_case "missing class charges its CPU" `Quick
            test_missing_class_charges_cpu;
          Alcotest.test_case "sync is the simulated path" `Quick
            test_request_sync_is_simulated_path;
          Alcotest.test_case "async timing" `Quick test_request_async_timing;
          Alcotest.test_case "provider feeds client" `Quick
            test_provider_feeds_client;
          Alcotest.test_case "audit trail" `Quick test_audit_trail;
          Alcotest.test_case "cache-hit audit timing" `Quick
            test_cache_hit_audit_timing;
          Alcotest.test_case "crashed host replies Unavailable once" `Quick
            test_crashed_host_replies_unavailable;
          Alcotest.test_case "crash mid cache hit replies Unavailable once"
            `Quick test_crash_mid_cache_hit_replies_unavailable;
        ] );
      ( "single-flight",
        [
          Alcotest.test_case "coalesces concurrent misses" `Quick
            test_single_flight_coalesces;
          Alcotest.test_case "crash fails all waiters" `Quick
            test_single_flight_crash_fails_all_waiters;
          Alcotest.test_case "keyed by policy version" `Quick
            test_single_flight_respects_policy_version;
          Alcotest.test_case "shared L2 rewarm" `Quick test_shared_l2_rewarm;
          Alcotest.test_case "down host at arrival runs no pipeline" `Quick
            test_single_flight_down_at_arrival;
          Alcotest.test_case "no flight outlives a crash and restart" `Quick
            test_single_flight_crash_restart_in_fetch;
          Alcotest.test_case "L2 rewarm keeps the entry's version" `Quick
            test_l2_rewarm_keeps_version;
        ] );
      ( "request-context",
        [
          Alcotest.test_case "trace ctx nests the node's span" `Quick
            test_trace_ctx_nests_node_span;
          Alcotest.test_case "tracing off in flight records nothing" `Quick
            test_trace_off_in_flight_records_nothing;
        ] );
    ]
