(* System telemetry: the process's one registry of spans, counters
   and latency histograms, a near-zero-cost disabled path, and two
   exporters — a Chrome trace_event JSON stream (loadable in Perfetto /
   about:tracing) and a plain-text metrics snapshot.

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
    }
  | Op_span_close

type tape = op list (* in execution order *)

(* --- The registry: one per process, disabled until [enable]. --- *)

let max_spans = 200_000

let wall_now () = Int64.of_float (Unix.gettimeofday () *. 1e6)

let on = ref false
let wall_clock = ref wall_now
let sim : clock option ref = ref None
let counter_tbl : (string, int64 ref) Hashtbl.t = Hashtbl.create 64
let gauge_tbl : (string, int64 ref) Hashtbl.t = Hashtbl.create 16
let hist_tbl : (string, hist) Hashtbl.t = Hashtbl.create 32
let recorded : span list ref = ref [] (* completion order, newest first *)
let recorded_count = ref 0
let dropped = ref 0
let depth = ref 0
let next_id = ref 0
(* The active capture, ops newest first. *)
let tape_rev : op list ref option ref = ref None

let enabled () = !on
let enable () = on := true
let disable () = on := false

let reset () =
  Hashtbl.reset counter_tbl;
  Hashtbl.reset gauge_tbl;
  Hashtbl.reset hist_tbl;
  recorded := [];
  recorded_count := 0;
  dropped := 0;
  depth := 0;
  next_id := 0

let set_wall_clock c = wall_clock := c
let set_sim_clock c = sim := c
let sim_clock () = !sim

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
let tape_op op = match !tape_rev with Some r -> r := op :: !r | None -> ()

let add name by =
  if !on then begin
    let r = cell counter_tbl name in
    r := Int64.add !r by;
    tape_op (Op_add (name, by))
  end

let incr name = add name 1L

let set_gauge name v =
  if !on then begin
    cell gauge_tbl name := v;
    tape_op (Op_set_gauge (name, v))
  end

let counter_value name =
  match Hashtbl.find_opt counter_tbl name with Some r -> !r | None -> 0L

let gauge_value name =
  match Hashtbl.find_opt gauge_tbl name with Some r -> !r | None -> 0L

let sorted tbl =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () = sorted counter_tbl
let gauges () = sorted gauge_tbl

(* --- Histograms. --- *)

let observe name v =
  if !on then begin
    let h =
      match Hashtbl.find_opt hist_tbl name with
      | Some h -> h
      | None ->
        let h = hist_create () in
        Hashtbl.replace hist_tbl name h;
        h
    in
    hist_observe h v;
    tape_op (Op_observe (name, v))
  end

let histogram_stats name =
  match Hashtbl.find_opt hist_tbl name with
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

let histograms () =
  Hashtbl.fold (fun k _ acc -> k :: acc) hist_tbl []
  |> List.sort String.compare
  |> List.filter_map (fun k -> Option.map (fun s -> (k, s)) (histogram_stats k))

(* --- Spans. --- *)

let record_span sp =
  if !recorded_count >= max_spans then Stdlib.incr dropped
  else begin
    recorded := sp :: !recorded;
    Stdlib.incr recorded_count
  end

let with_span ?(cat = "app") ?(args = []) ?observe_hist name f =
  if not !on then f ()
  else begin
    tape_op (Op_span_open { o_name = name; o_cat = cat; o_args = args });
    let id = !next_id in
    next_id := id + 1;
    let d = !depth in
    depth := d + 1;
    let wall_start = !wall_clock () in
    let sim_start = Option.map (fun c -> c ()) !sim in
    let finish () =
      depth := d;
      let wall_end = !wall_clock () in
      let sim_end = Option.map (fun c -> c ()) !sim in
      record_span
        {
          sp_id = id;
          sp_name = name;
          sp_cat = cat;
          sp_depth = d;
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
        | Some s0, Some s1 -> observe hname (Int64.sub s1 s0)
        | _ -> observe hname (Int64.sub wall_end wall_start))
      | None -> ());
      (* If a distributed-trace scope is ambient, the span doubles as a
         leaf of that request's cross-node tree (sim timestamps when
         available, so it lines up with the request's other spans). *)
      (match Trace.current () with
      | None -> ()
      | Some _ ->
        let t0, t1 =
          match (sim_start, sim_end) with
          | Some s0, Some s1 -> (s0, s1)
          | _ -> (wall_start, wall_end)
        in
        Trace.leaf ~args:(("cat", cat) :: args) ~name ~start_us:t0 ~end_us:t1 ());
      tape_op Op_span_close
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

let capture f =
  match !tape_rev with
  | Some _ ->
    (* A capture is already active: the outer capture owns the ops.
       The inner caller gets no tape, so it cannot memoize a partial
       recording. *)
    (f (), None)
  | None -> (
    let r = ref [] in
    tape_rev := Some r;
    match f () with
    | v ->
      tape_rev := None;
      (v, Some (List.rev !r))
    | exception e ->
      tape_rev := None;
      raise e)

(* Re-perform ops up to the close of the innermost open bracket, and
   return the ops after it. A bracket re-runs [with_span] over the ops
   it encloses, so a replayed span is what a re-run's would be: a
   fresh id, live clocks, the buffer cap and the ambient trace scope.
   Its [?observe_hist] observation is already on the tape, as the
   [Op_observe] just before its close. *)
let rec play = function
  | [] -> []
  | Op_span_close :: rest -> rest
  | Op_add (n, v) :: rest -> add n v; play rest
  | Op_set_gauge (n, v) :: rest -> set_gauge n v; play rest
  | Op_observe (n, v) :: rest -> observe n v; play rest
  | Op_span_open { o_name; o_cat; o_args } :: rest ->
    play (with_span ~cat:o_cat ~args:o_args o_name (fun () -> play rest))

let replay tape = ignore (play tape : tape)

let spans () = List.rev !recorded
let span_count () = !recorded_count
let dropped_spans () = !dropped

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

let chrome_trace () =
  let events = ref [] in
  let emit e = events := e :: !events in
  emit
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"wall clock\"}}";
  emit
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\"args\":{\"name\":\"simulated time\"}}";
  let all = spans () in
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
    (counters ());
  "[\n" ^ String.concat ",\n" (List.rev !events) ^ "\n]\n"

(* JSON fragment of the latency histograms: [{"name":...,"count":...,
   "p50_us":...,...}, ...]. Benches embed this in their JSON output so
   tail latency is machine-readable alongside throughput. *)
let histograms_json () =
  let hs = histograms () in
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
let metrics_json () =
  let b = Buffer.create 1024 in
  let kv (k, v) = Printf.sprintf "\"%s\":%Ld" (Flight.esc k) v in
  Buffer.add_string b "{\"counters\":{";
  Buffer.add_string b (String.concat "," (List.map kv (counters ())));
  Buffer.add_string b "},\"gauges\":{";
  Buffer.add_string b (String.concat "," (List.map kv (gauges ())));
  Buffer.add_string b "},\"histograms\":";
  Buffer.add_string b (histograms_json ());
  Buffer.add_string b "}";
  Buffer.contents b

(* --- Plain-text metrics snapshot. --- *)

let metrics_snapshot () =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "== telemetry snapshot ==\n";
  let cs = counters () in
  if cs <> [] then begin
    pf "counters:\n";
    List.iter (fun (k, v) -> pf "  %-44s %12Ld\n" k v) cs
  end;
  let gs = gauges () in
  if gs <> [] then begin
    pf "gauges:\n";
    List.iter (fun (k, v) -> pf "  %-44s %12Ld\n" k v) gs
  end;
  let hs = histograms () in
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
  pf "spans: %d recorded%s\n" !recorded_count
    (if !dropped > 0 then Printf.sprintf " (%d dropped)" !dropped else "");
  Buffer.contents b

(* Sibling modules of the wrapped library, re-exported so users write
   Telemetry.Trace / Telemetry.Flight / Telemetry.Slo. *)
module Trace = Trace
module Flight = Flight
module Slo = Slo
