(* Discrete-event simulation engine. Time is in integer microseconds.
   Events fire in (time, insertion order) — ties break FIFO so models
   are deterministic. *)

type time = int64

(* Binary min-heap on (time, insertion sequence), kept as parallel
   arrays: a sift compares ints in place, and a queued event costs no
   allocation beyond its closure. Times are stored as OCaml ints (the
   virtual clock never leaves 2^62 µs). A popped slot gets [ignore], so
   the queue keeps no fired closure alive. *)
module Heap = struct
  type t = {
    mutable times : int array;
    mutable seqs : int array;
    mutable fns : (unit -> unit) array;
    mutable size : int;
  }

  let create () =
    {
      times = Array.make 256 0;
      seqs = Array.make 256 0;
      fns = Array.make 256 ignore;
      size = 0;
    }

  let grow h =
    let n = 2 * Array.length h.times in
    let extend a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 h.size;
      b
    in
    h.times <- extend h.times 0;
    h.seqs <- extend h.seqs 0;
    h.fns <- extend h.fns ignore

  (* Sift a hole up from the end and drop the event where it lands. *)
  let push h at seq fn =
    if h.size = Array.length h.times then grow h;
    let times = h.times and seqs = h.seqs and fns = h.fns in
    let i = ref h.size in
    h.size <- h.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      let pt = times.(p) in
      if at < pt || (at = pt && seq < seqs.(p)) then begin
        times.(!i) <- pt;
        seqs.(!i) <- seqs.(p);
        fns.(!i) <- fns.(p);
        i := p
      end
      else continue := false
    done;
    times.(!i) <- at;
    seqs.(!i) <- seq;
    fns.(!i) <- fn

  (* The earliest event's time; the heap must be non-empty. *)
  let min_time h = h.times.(0)

  (* Remove the earliest event and return its closure; the heap must be
     non-empty. The last event fills the root's hole from the top. *)
  let pop h =
    let times = h.times and seqs = h.seqs and fns = h.fns in
    let top = fns.(0) in
    let n = h.size - 1 in
    h.size <- n;
    if n > 0 then begin
      let lt = times.(n) and ls = seqs.(n) and lf = fns.(n) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= n then continue := false
        else begin
          let r = l + 1 in
          let c =
            if r < n
               && (times.(r) < times.(l)
                  || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
            then r
            else l
          in
          let ct = times.(c) in
          if ct < lt || (ct = lt && seqs.(c) < ls) then begin
            times.(!i) <- ct;
            seqs.(!i) <- seqs.(c);
            fns.(!i) <- fns.(c);
            i := c
          end
          else continue := false
        end
      done;
      times.(!i) <- lt;
      seqs.(!i) <- ls;
      fns.(!i) <- lf
    end;
    fns.(n) <- ignore;
    top
end

type t = {
  mutable now : time;
  heap : Heap.t;
  mutable next_seq : int;
  mutable events_processed : int;
  (* During a run, per-event counter updates are batched into these and
     flushed once when the loop exits — the totals (and the final
     queue-depth gauge, which is the heap size at exit) are exactly
     what the per-event writes produced, without two hashtable lookups
     per event. *)
  mutable in_run : bool;
  mutable sched_batch : int;
  (* Optional deterministic event trace: models call [record] at the
     points they consider observable (a request served, a shard chosen)
     and tests compare whole traces across runs. Newest first. An
     optional cap bounds the buffer; records past it are counted, not
     kept. *)
  mutable tracing : bool;
  mutable trace_buf : (time * string) list;
  mutable trace_len : int;
  mutable trace_cap : int option;
  mutable trace_dropped : int;
}

let create () =
  {
    now = 0L;
    heap = Heap.create ();
    next_seq = 0;
    events_processed = 0;
    in_run = false;
    sched_batch = 0;
    tracing = false;
    trace_buf = [];
    trace_len = 0;
    trace_cap = None;
    trace_dropped = 0;
  }

let now t = t.now

let set_tracing t on =
  t.tracing <- on;
  t.trace_buf <- [];
  t.trace_len <- 0;
  t.trace_dropped <- 0

let set_trace_cap t cap =
  (match cap with
  | Some c when c < 0 -> invalid_arg "Engine.set_trace_cap: negative cap"
  | Some _ | None -> ());
  t.trace_cap <- cap

let record t label =
  if t.tracing then begin
    match t.trace_cap with
    | Some cap when t.trace_len >= cap ->
      t.trace_dropped <- t.trace_dropped + 1
    | Some _ | None ->
      t.trace_buf <- (t.now, label) :: t.trace_buf;
      t.trace_len <- t.trace_len + 1
  end

let trace t = List.rev t.trace_buf
let trace_dropped t = t.trace_dropped

(* Queue [fn] at [at], an int; a time in the past is clamped to now. *)
let push t at fn =
  let now = Int64.to_int t.now in
  Heap.push t.heap (if at < now then now else at) t.next_seq fn;
  t.next_seq <- t.next_seq + 1;
  if Telemetry.Global.on () then
    if t.in_run then t.sched_batch <- t.sched_batch + 1
    else begin
      Telemetry.Global.incr "simnet.events.scheduled";
      Telemetry.Global.set_gauge "simnet.queue.depth"
        (Int64.of_int t.heap.Heap.size)
    end

let schedule_at t at fn = push t (Int64.to_int at) fn
let schedule t ~delay fn = push t (Int64.to_int t.now + Int64.to_int delay) fn

let run_loop ?until t =
  let processed = ref 0 in
  let flush () =
    t.in_run <- false;
    if (!processed > 0 || t.sched_batch > 0) && Telemetry.Global.on () then begin
      if t.sched_batch > 0 then
        Telemetry.Global.add "simnet.events.scheduled"
          (Int64.of_int t.sched_batch);
      if !processed > 0 then
        Telemetry.Global.add "simnet.events.processed"
          (Int64.of_int !processed);
      (* The last per-event gauge write always reflected the heap as it
         stood when the loop exited — one write says the same thing. *)
      Telemetry.Global.set_gauge "simnet.queue.depth"
        (Int64.of_int t.heap.Heap.size)
    end;
    t.sched_batch <- 0
  in
  t.in_run <- true;
  Fun.protect ~finally:flush (fun () ->
      (* The horizon as an int; [max_int] when there is none. *)
      let stop =
        match until with
        | None -> max_int
        | Some u ->
          Int64.to_int
            (Int64.max (Int64.of_int min_int)
               (Int64.min u (Int64.of_int max_int)))
      in
      let continue = ref true in
      while !continue do
        if t.heap.Heap.size = 0 then continue := false
        else begin
          let at = Heap.min_time t.heap in
          if at > stop then begin
            (* Past the horizon: leave it queued and stop. *)
            (match until with Some u -> t.now <- u | None -> ());
            continue := false
          end
          else begin
            let fn = Heap.pop t.heap in
            t.now <- Int64.of_int at;
            t.events_processed <- t.events_processed + 1;
            if Telemetry.Global.on () then incr processed;
            fn ()
          end
        end
      done)

let run_inner ?until t =
  if not (Telemetry.Global.on ()) then run_loop ?until t
  else begin
    (* Expose the virtual clock to telemetry for the duration of the
       run, so spans opened inside event handlers carry simulated
       timestamps alongside wall-clock ones. *)
    let reg = Telemetry.default in
    let prev_sim = Telemetry.sim_clock reg in
    Telemetry.set_sim_clock reg (Some (fun () -> t.now));
    let sim0 = t.now in
    let wall0 = Int64.of_float (Unix.gettimeofday () *. 1e6) in
    let finish () =
      let sim_elapsed = Int64.sub t.now sim0 in
      let wall_elapsed =
        Int64.sub (Int64.of_float (Unix.gettimeofday () *. 1e6)) wall0
      in
      Telemetry.Global.add "simnet.virtual_us" sim_elapsed;
      if Int64.compare wall_elapsed 0L > 0 then
        Telemetry.Global.set_gauge "simnet.virtual_wall_ratio_x1000"
          (Int64.div (Int64.mul sim_elapsed 1000L) wall_elapsed);
      Telemetry.set_sim_clock reg prev_sim
    in
    match
      Telemetry.Global.with_span ~cat:"simnet" "simnet.run" (fun () ->
          run_loop ?until t)
    with
    | () -> finish ()
    | exception e ->
      finish ();
      raise e
  end

let run ?until t =
  (* The distributed-trace collector reads time through its own clock;
     point it at virtual time for the whole run (whether or not the
     metrics registry is enabled — tracing can be on independently). *)
  let prev_trace_clock = Telemetry.Trace.current_clock () in
  Telemetry.Trace.set_clock (fun () -> t.now);
  Fun.protect
    ~finally:(fun () -> Telemetry.Trace.set_clock prev_trace_clock)
    (fun () -> run_inner ?until t)

let us n = Int64.of_int n
let ms n = Int64.of_int (n * 1000)
let sec n = Int64.of_int (n * 1_000_000)
let to_ms t = Int64.to_float t /. 1000.
let to_sec t = Int64.to_float t /. 1_000_000.

let events_processed t = t.events_processed
