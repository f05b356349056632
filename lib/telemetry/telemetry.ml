(* System telemetry: spans, counters and latency histograms with a
   global registry, a near-zero-cost disabled path, and two exporters —
   a Chrome trace_event JSON stream (loadable in Perfetto / about:tracing)
   and a plain-text metrics snapshot.

   Spans are keyed to two timelines at once: the wall clock (what the
   process actually spent) and, when a simulation is running, the
   Simnet engine's virtual clock (injected via [set_sim_clock], so
   telemetry never depends on the simulator). Every operation on a
   disabled registry returns after a single [enabled] flag check. *)

type clock = unit -> int64

(* --- Log-scale latency histograms. ---

   Bucket [i] counts observations v with 2^(i-1) <= v < 2^i (bucket 0
   counts v <= 0 and v = 1 lands in bucket 1). 63 buckets cover the
   whole non-negative int64 range in microseconds. *)

let hist_buckets = 63

type hist = {
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : int64;
  mutable h_min : int64;
  mutable h_max : int64;
}

let hist_create () =
  {
    buckets = Array.make hist_buckets 0;
    h_count = 0;
    h_sum = 0L;
    h_min = Int64.max_int;
    h_max = Int64.min_int;
  }

let bucket_of v =
  if Int64.compare v 1L < 0 then 0
  else begin
    (* index of the highest set bit, plus one *)
    let rec bits acc v = if Int64.equal v 0L then acc else bits (acc + 1) (Int64.shift_right_logical v 1) in
    min (hist_buckets - 1) (bits 0 v)
  end

let hist_observe h v =
  let i = bucket_of v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- Int64.add h.h_sum v;
  if Int64.compare v h.h_min < 0 then h.h_min <- v;
  if Int64.compare v h.h_max > 0 then h.h_max <- v

(* Approximate quantile: walk buckets to the one holding the q-th
   observation and report its upper bound (clamped to the true max). *)
let hist_quantile h q =
  if h.h_count = 0 then 0L
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.h_count))) in
    let seen = ref 0 and result = ref h.h_max in
    (try
       for i = 0 to hist_buckets - 1 do
         seen := !seen + h.buckets.(i);
         if !seen >= rank then begin
           result := (if i = 0 then 0L else Int64.shift_left 1L i);
           raise Exit
         end
       done
     with Exit -> ());
    if Int64.compare !result h.h_max > 0 then h.h_max else !result
  end

type hist_stats = {
  count : int;
  sum_us : int64;
  min_us : int64;
  max_us : int64;
  p50_us : int64;
  p95_us : int64;
  p99_us : int64;
}

(* --- Spans. --- *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_cat : string;
  sp_depth : int; (* nesting depth at entry; 0 = top level *)
  sp_wall_start : int64; (* µs *)
  sp_wall_end : int64;
  sp_sim_start : int64 option; (* simulated µs, when a sim clock is set *)
  sp_sim_end : int64 option;
  sp_args : (string * string) list;
}

(* --- Capture/replay tapes. ---

   A tape is the recorded sequence of telemetry effects some
   computation performed: counter adds, gauge sets, histogram
   observations and span open/close brackets, in order. Replaying a
   tape re-performs those effects against the registry's *live* state
   — fresh span ids, current clocks, the ambient distributed-trace
   scope — so a memoized computation can skip the work while leaving
   every aggregate (counts, sums, span totals, trace leaves) exactly
   as a real run would have. Counter/gauge/observe values are
   re-applied verbatim; span timestamps are taken live, which under a
   simulation clock reproduces the original durations exactly (the
   captured computation was synchronous, so both elapse zero virtual
   time). *)

type op =
  | Op_add of string * int64
  | Op_set_gauge of string * int64
  | Op_observe of string * int64
  | Op_span_open of {
      o_name : string;
      o_cat : string;
      o_args : (string * string) list;
      o_hist : bool; (* the original span carried ?observe_hist *)
    }
  | Op_span_close

type tape = op list (* in execution order *)

type t = {
  mutable enabled : bool;
  mutable wall_clock : clock;
  mutable sim_clock : clock option;
  counters : (string, int64 ref) Hashtbl.t;
  gauges : (string, int64 ref) Hashtbl.t;
  histograms : (string, hist) Hashtbl.t;
  mutable spans : span list; (* completion order, newest first *)
  mutable span_count : int;
  mutable dropped : int;
  max_spans : int;
  mutable depth : int;
  mutable next_id : int;
  mutable tape_rev : op list ref option; (* active capture, ops newest first *)
}

let wall_now () = Int64.of_float (Unix.gettimeofday () *. 1e6)

let create ?(max_spans = 200_000) () =
  {
    enabled = false;
    wall_clock = wall_now;
    sim_clock = None;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 32;
    spans = [];
    span_count = 0;
    dropped = 0;
    max_spans;
    depth = 0;
    next_id = 0;
    tape_rev = None;
  }

let default = create ()

let enabled t = t.enabled
let enable t = t.enabled <- true
let disable t = t.enabled <- false

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms;
  t.spans <- [];
  t.span_count <- 0;
  t.dropped <- 0;
  t.depth <- 0;
  t.next_id <- 0

let set_wall_clock t c = t.wall_clock <- c
let set_sim_clock t c = t.sim_clock <- c
let sim_clock t = t.sim_clock

(* --- Counters and gauges. --- *)

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
    let r = ref 0L in
    Hashtbl.replace tbl name r;
    r

(* Record one op on the active capture, if any. Call sites only reach
   this when the registry is enabled, so a disabled registry captures
   an empty tape — matching the zero effects it performed. *)
let tape_op t op =
  match t.tape_rev with Some r -> r := op :: !r | None -> ()

let add t name by = if t.enabled then begin
    let r = cell t.counters name in
    r := Int64.add !r by;
    tape_op t (Op_add (name, by))
  end

let incr t name = add t name 1L

let set_gauge t name v =
  if t.enabled then begin
    cell t.gauges name := v;
    tape_op t (Op_set_gauge (name, v))
  end

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0L

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0L

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let gauges t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- Histograms. --- *)

let observe t name v =
  if t.enabled then begin
    let h =
      match Hashtbl.find_opt t.histograms name with
      | Some h -> h
      | None ->
        let h = hist_create () in
        Hashtbl.replace t.histograms name h;
        h
    in
    hist_observe h v;
    tape_op t (Op_observe (name, v))
  end

let histogram_stats t name =
  match Hashtbl.find_opt t.histograms name with
  | None -> None
  | Some h ->
    Some
      {
        count = h.h_count;
        sum_us = h.h_sum;
        min_us = (if h.h_count = 0 then 0L else h.h_min);
        max_us = (if h.h_count = 0 then 0L else h.h_max);
        p50_us = hist_quantile h 0.5;
        p95_us = hist_quantile h 0.95;
        p99_us = hist_quantile h 0.99;
      }

let histograms t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.histograms []
  |> List.sort String.compare
  |> List.filter_map (fun k ->
         Option.map (fun s -> (k, s)) (histogram_stats t k))

(* --- Spans. --- *)

let record_span t sp =
  if t.span_count >= t.max_spans then t.dropped <- t.dropped + 1
  else begin
    t.spans <- sp :: t.spans;
    t.span_count <- t.span_count + 1
  end

let with_span ?(cat = "app") ?(args = []) ?observe_hist t name f =
  if not t.enabled then f ()
  else if
    (* Saturated span buffer, nothing else watching: the span would be
       dropped on the floor anyway, so skip both clock reads and the
       record allocation. Everything observable — the depth counter and
       the dropped tally — still updates. *)
    t.span_count >= t.max_spans && observe_hist = None && Trace.current () = None
  then begin
    tape_op t (Op_span_open { o_name = name; o_cat = cat; o_args = args; o_hist = false });
    t.next_id <- t.next_id + 1;
    let depth = t.depth in
    t.depth <- depth + 1;
    let finish () =
      t.depth <- depth;
      t.dropped <- t.dropped + 1;
      tape_op t Op_span_close
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end
  else begin
    tape_op t
      (Op_span_open
         { o_name = name; o_cat = cat; o_args = args; o_hist = observe_hist <> None });
    let id = t.next_id in
    t.next_id <- id + 1;
    let depth = t.depth in
    t.depth <- depth + 1;
    let wall_start = t.wall_clock () in
    let sim_start = Option.map (fun c -> c ()) t.sim_clock in
    let finish () =
      t.depth <- depth;
      let wall_end = t.wall_clock () in
      let sim_end = Option.map (fun c -> c ()) t.sim_clock in
      record_span t
        {
          sp_id = id;
          sp_name = name;
          sp_cat = cat;
          sp_depth = depth;
          sp_wall_start = wall_start;
          sp_wall_end = wall_end;
          sp_sim_start = sim_start;
          sp_sim_end = sim_end;
          sp_args = args;
        };
      (* When a sim clock is attached the histogram gets the simulated
         duration: benches must never mix virtual and host time in one
         distribution, or seeded runs stop being reproducible. *)
      (match observe_hist with
      | Some hname -> (
        match (sim_start, sim_end) with
        | Some s0, Some s1 -> observe t hname (Int64.sub s1 s0)
        | _ -> observe t hname (Int64.sub wall_end wall_start))
      | None -> ());
      (* If a distributed-trace scope is ambient, the span doubles as a
         leaf of that request's cross-node tree (sim timestamps when
         available, so it lines up with the wire spans). *)
      (match Trace.current () with
      | None -> ()
      | Some _ ->
        let t0, t1 =
          match (sim_start, sim_end) with
          | Some s0, Some s1 -> (s0, s1)
          | _ -> (wall_start, wall_end)
        in
        Trace.leaf ~args:(("cat", cat) :: args) ~name ~start_us:t0 ~end_us:t1 ());
      tape_op t Op_span_close
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* --- Capture and replay. --- *)

let capture t f =
  match t.tape_rev with
  | Some _ ->
    (* A capture is already active: the outer capture owns the ops.
       The inner caller gets no tape, so it cannot memoize a partial
       recording. *)
    (f (), None)
  | None ->
    let r = ref [] in
    t.tape_rev <- Some r;
    let finish () = t.tape_rev <- None in
    (match f () with
    | v ->
      finish ();
      (v, Some (List.rev !r))
    | exception e ->
      finish ();
      raise e)

type replay_frame =
  | Rf_saturated of int (* saved depth *)
  | Rf_live of {
      rf_id : int;
      rf_depth : int;
      rf_name : string;
      rf_cat : string;
      rf_args : (string * string) list;
      rf_wall_start : int64;
      rf_sim_start : int64 option;
    }

let replay t tape =
  if t.enabled then begin
    let stack = ref [] in
    List.iter
      (fun op ->
        match op with
        | Op_add (n, v) -> add t n v
        | Op_set_gauge (n, v) -> set_gauge t n v
        | Op_observe (n, v) -> observe t n v
        | Op_span_open ({ o_name; o_cat; o_args; o_hist } as o) ->
          tape_op t (Op_span_open o);
          (* Mirror with_span's entry decision against the *live*
             registry state, so a replayed span saturates (or not)
             exactly as a re-run would. *)
          if
            t.span_count >= t.max_spans && (not o_hist)
            && Trace.current () = None
          then begin
            t.next_id <- t.next_id + 1;
            let depth = t.depth in
            t.depth <- depth + 1;
            stack := Rf_saturated depth :: !stack
          end
          else begin
            let id = t.next_id in
            t.next_id <- id + 1;
            let depth = t.depth in
            t.depth <- depth + 1;
            stack :=
              Rf_live
                {
                  rf_id = id;
                  rf_depth = depth;
                  rf_name = o_name;
                  rf_cat = o_cat;
                  rf_args = o_args;
                  rf_wall_start = t.wall_clock ();
                  rf_sim_start = Option.map (fun c -> c ()) t.sim_clock;
                }
              :: !stack
          end
        | Op_span_close -> (
          tape_op t Op_span_close;
          match !stack with
          | [] -> () (* unbalanced tape; nothing sensible to close *)
          | Rf_saturated depth :: rest ->
            stack := rest;
            t.depth <- depth;
            t.dropped <- t.dropped + 1
          | Rf_live f :: rest ->
            stack := rest;
            t.depth <- f.rf_depth;
            let wall_end = t.wall_clock () in
            let sim_end = Option.map (fun c -> c ()) t.sim_clock in
            record_span t
              {
                sp_id = f.rf_id;
                sp_name = f.rf_name;
                sp_cat = f.rf_cat;
                sp_depth = f.rf_depth;
                sp_wall_start = f.rf_wall_start;
                sp_wall_end = wall_end;
                sp_sim_start = f.rf_sim_start;
                sp_sim_end = sim_end;
                sp_args = f.rf_args;
              };
            (* The captured span's ?observe_hist observation replays as
               its own Op_observe; only the distributed-trace leaf is
               re-emitted live, under whatever scope is ambient now. *)
            (match Trace.current () with
            | None -> ()
            | Some _ ->
              let t0, t1 =
                match (f.rf_sim_start, sim_end) with
                | Some s0, Some s1 -> (s0, s1)
                | _ -> (f.rf_wall_start, wall_end)
              in
              Trace.leaf
                ~args:(("cat", f.rf_cat) :: f.rf_args)
                ~name:f.rf_name ~start_us:t0 ~end_us:t1 ())))
      tape
  end

let spans t = List.rev t.spans
let span_count t = t.span_count
let dropped_spans t = t.dropped

(* --- Chrome trace_event exporter. ---

   One JSON event per line inside a JSON array, which both Perfetto
   and chrome://tracing load directly. Spans become complete ("X")
   events on pid 1 (wall-clock timeline) and, when simulated times
   were captured, duplicate "X" events on pid 2 (virtual timeline).
   Counters are emitted as a final "C" sample. *)

let json_args args =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (Flight.esc k) (Flight.esc v))
         args)
  ^ "}"

let chrome_trace t =
  let events = ref [] in
  let emit e = events := e :: !events in
  emit
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"wall clock\"}}";
  emit
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\"args\":{\"name\":\"simulated time\"}}";
  let all = spans t in
  (* Rebase wall timestamps so the trace starts near t=0. *)
  let base =
    List.fold_left
      (fun acc sp -> if Int64.compare sp.sp_wall_start acc < 0 then sp.sp_wall_start else acc)
      Int64.max_int all
  in
  let base = if Int64.equal base Int64.max_int then 0L else base in
  let last_ts = ref 0L in
  List.iter
    (fun sp ->
      let ts = Int64.sub sp.sp_wall_start base in
      let dur =
        let d = Int64.sub sp.sp_wall_end sp.sp_wall_start in
        if Int64.compare d 1L < 0 then 1L else d
      in
      if Int64.compare ts !last_ts > 0 then last_ts := ts;
      let args =
        sp.sp_args
        @ (match sp.sp_sim_start with
          | Some s -> [ ("sim_ts_us", Int64.to_string s) ]
          | None -> [])
        @ [ ("depth", string_of_int sp.sp_depth) ]
      in
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%Ld,\"dur\":%Ld,\"pid\":1,\"tid\":1,\"args\":%s}"
           (Flight.esc sp.sp_name) (Flight.esc sp.sp_cat) ts dur
           (json_args args));
      match (sp.sp_sim_start, sp.sp_sim_end) with
      | Some s0, Some s1 ->
        let sdur = Int64.sub s1 s0 in
        let sdur = if Int64.compare sdur 1L < 0 then 1L else sdur in
        emit
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%Ld,\"dur\":%Ld,\"pid\":2,\"tid\":1,\"args\":%s}"
             (Flight.esc sp.sp_name) (Flight.esc sp.sp_cat) s0 sdur
             (json_args sp.sp_args))
      | _ -> ())
    all;
  List.iter
    (fun (name, v) ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%Ld,\"pid\":1,\"tid\":1,\"args\":{\"value\":%Ld}}"
           (Flight.esc name) !last_ts v))
    (counters t);
  "[\n" ^ String.concat ",\n" (List.rev !events) ^ "\n]\n"

(* JSON fragment of the latency histograms: [{"name":...,"count":...,
   "p50_us":...,...}, ...]. Benches embed this in their JSON output so
   tail latency is machine-readable alongside throughput. *)
let histograms_json t =
  let hs = histograms t in
  "["
  ^ String.concat ","
      (List.map
         (fun (k, s) ->
           Printf.sprintf
             "{\"name\":\"%s\",\"count\":%d,\"sum_us\":%Ld,\"min_us\":%Ld,\"p50_us\":%Ld,\"p95_us\":%Ld,\"p99_us\":%Ld,\"max_us\":%Ld}"
             (Flight.esc k) s.count s.sum_us s.min_us s.p50_us s.p95_us
             s.p99_us s.max_us)
         hs)
  ^ "]"

(* Full machine-readable snapshot: counters, gauges and histograms as
   one JSON object — `dvmctl metrics --json` and the BENCH_*.json
   writer share this. *)
let metrics_json t =
  let b = Buffer.create 1024 in
  let kv (k, v) = Printf.sprintf "\"%s\":%Ld" (Flight.esc k) v in
  Buffer.add_string b "{\"counters\":{";
  Buffer.add_string b (String.concat "," (List.map kv (counters t)));
  Buffer.add_string b "},\"gauges\":{";
  Buffer.add_string b (String.concat "," (List.map kv (gauges t)));
  Buffer.add_string b "},\"histograms\":";
  Buffer.add_string b (histograms_json t);
  Buffer.add_string b "}";
  Buffer.contents b

(* --- Plain-text metrics snapshot. --- *)

let metrics_snapshot t =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "== telemetry snapshot ==\n";
  let cs = counters t in
  if cs <> [] then begin
    pf "counters:\n";
    List.iter (fun (k, v) -> pf "  %-44s %12Ld\n" k v) cs
  end;
  let gs = gauges t in
  if gs <> [] then begin
    pf "gauges:\n";
    List.iter (fun (k, v) -> pf "  %-44s %12Ld\n" k v) gs
  end;
  let hs = histograms t in
  if hs <> [] then begin
    pf "histograms (µs):\n";
    pf "  %-44s %8s %12s %8s %8s %8s %8s %8s\n" "" "count" "sum" "min" "p50"
      "p95" "p99" "max";
    List.iter
      (fun (k, s) ->
        pf "  %-44s %8d %12Ld %8Ld %8Ld %8Ld %8Ld %8Ld\n" k s.count s.sum_us
          s.min_us s.p50_us s.p95_us s.p99_us s.max_us)
      hs
  end;
  pf "spans: %d recorded%s\n" t.span_count
    (if t.dropped > 0 then Printf.sprintf " (%d dropped)" t.dropped else "");
  Buffer.contents b

(* --- Shortcuts over the global default registry — what hot-path
   instrumentation call sites use. Disabled cost: one call + one flag
   check. --- *)

module Global = struct
  let on () = default.enabled
  let incr name = incr default name
  let add name by = add default name by
  let set_gauge name v = set_gauge default name v
  let observe name v = observe default name v

  let with_span ?cat ?args ?observe_hist name f =
    with_span ?cat ?args ?observe_hist default name f
end

(* Sibling modules of the wrapped library, re-exported so users write
   Telemetry.Trace / Telemetry.Flight / Telemetry.Slo. *)
module Trace = Trace
module Flight = Flight
module Slo = Slo
