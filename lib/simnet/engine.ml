(* Discrete-event simulation engine. Time is in integer microseconds.
   Events fire in (time, insertion order) — ties break FIFO so models
   are deterministic. *)

type time = int64

(* Binary min-heap on (time, insertion sequence), kept as parallel int
   arrays — times, sequence numbers and a slot id per position — so a
   sift compares and moves ints only. Times are stored as OCaml ints
   (the virtual clock never leaves 2^62 µs). An event's closure sits in
   a slot table ([fns], by slot id), written once at push and cleared
   to [ignore] once at pop or removal, so the queue keeps no fired or
   cancelled closure alive and no sift touches a pointer. [pos] maps a
   slot to its heap position (-1 while free), which is what lets
   [remove] take any event out in O(log n). [slots] is a permutation of
   the slot ids: positions below [size] hold the queued events' slots
   and the rest hold the free ones, so the next free slot is always
   [slots.(size)]. *)
module Heap = struct
  type t = {
    mutable times : int array;
    mutable seqs : int array;
    mutable slots : int array;
    mutable pos : int array;
    mutable fns : (unit -> unit) array;
    mutable size : int;
  }

  let create () =
    {
      times = Array.make 256 0;
      seqs = Array.make 256 0;
      slots = Array.init 256 Fun.id;
      pos = Array.make 256 (-1);
      fns = Array.make 256 ignore;
      size = 0;
    }

  (* Double every array; the new slots are free and sit past [size]. *)
  let grow h =
    let n = Array.length h.times in
    let extend a fill =
      let b = Array.make (2 * n) fill in
      Array.blit a 0 b 0 n;
      b
    in
    h.times <- extend h.times 0;
    h.seqs <- extend h.seqs 0;
    h.slots <- Array.init (2 * n) (fun i -> if i < n then h.slots.(i) else i);
    h.pos <- extend h.pos (-1);
    h.fns <- extend h.fns ignore

  (* Move the hole at [i] up until (at, seq) fits, and drop the event of
     [slot] there. *)
  let sift_up h i at seq slot =
    let times = h.times and seqs = h.seqs and slots = h.slots and pos = h.pos in
    let i = ref i in
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      let pt = times.(p) in
      if at < pt || (at = pt && seq < seqs.(p)) then begin
        let ps = slots.(p) in
        times.(!i) <- pt;
        seqs.(!i) <- seqs.(p);
        slots.(!i) <- ps;
        pos.(ps) <- !i;
        i := p
      end
      else continue := false
    done;
    times.(!i) <- at;
    seqs.(!i) <- seq;
    slots.(!i) <- slot;
    pos.(slot) <- !i

  (* Move the hole at [i] down, among the first [n] positions, until
     (at, seq) fits, and drop the event of [slot] there. *)
  let sift_down h i n at seq slot =
    let times = h.times and seqs = h.seqs and slots = h.slots and pos = h.pos in
    let i = ref i in
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
        if ct < at || (ct = at && seqs.(c) < seq) then begin
          let cs = slots.(c) in
          times.(!i) <- ct;
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- cs;
          pos.(cs) <- !i;
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- at;
    seqs.(!i) <- seq;
    slots.(!i) <- slot;
    pos.(slot) <- !i

  (* Queue [fn] at (at, seq) in the next free slot, and return the
     slot. *)
  let push h at seq fn =
    if h.size = Array.length h.times then grow h;
    let i = h.size in
    let slot = h.slots.(i) in
    h.size <- i + 1;
    h.fns.(slot) <- fn;
    sift_up h i at seq slot;
    slot

  (* The earliest event's time; the heap must be non-empty. *)
  let min_time h = h.times.(0)

  (* Take the event at position [i] out and return its closure: the
     last event fills the hole, sifting whichever way restores the
     order, and the freed slot goes back past the new end. *)
  let remove h i =
    let slot = h.slots.(i) in
    let fn = h.fns.(slot) in
    let n = h.size - 1 in
    h.size <- n;
    if i < n then begin
      let lt = h.times.(n) and ls = h.seqs.(n) and lslot = h.slots.(n) in
      let p = (i - 1) / 2 in
      if i > 0 && (lt < h.times.(p) || (lt = h.times.(p) && ls < h.seqs.(p)))
      then sift_up h i lt ls lslot
      else sift_down h i n lt ls lslot
    end;
    h.slots.(n) <- slot;
    h.pos.(slot) <- -1;
    h.fns.(slot) <- ignore;
    fn

  (* Remove the earliest event and return its closure; the heap must be
     non-empty. *)
  let pop h = remove h 0
end

type t = {
  mutable now : time;
  heap : Heap.t;
  mutable next_seq : int;
  mutable events_processed : int;
  (* During a run, per-event counter updates are batched into these and
     flushed once when the loop exits — the totals (and the queue-depth
     gauge) are exactly what the per-event writes produced, without two
     hashtable lookups per event. *)
  mutable in_run : bool;
  mutable sched_batch : int;
  mutable cancel_batch : int;
  mutable reported_depth : int; (* this engine's share of the gauge *)
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
    cancel_batch = 0;
    reported_depth = 0;
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

(* The queue-depth gauge is the sum of every engine's queued events:
   each engine adds the change in its own depth since it last
   reported, so a phase that runs several engines loses none. *)
let report_depth t =
  let d = t.heap.Heap.size - t.reported_depth in
  if d <> 0 then begin
    t.reported_depth <- t.heap.Heap.size;
    let reg = Telemetry.default in
    Telemetry.set_gauge reg "simnet.queue.depth"
      (Int64.add
         (Telemetry.gauge_value reg "simnet.queue.depth")
         (Int64.of_int d))
  end

(* Outside a run, an event counter and the queue-depth gauge are
   written at once; inside one they are batched. *)
let note t counter =
  Telemetry.Global.incr counter;
  report_depth t

(* Queue [fn] at [at], an int, and return its slot; a time in the past
   is clamped to now. *)
let push t at fn =
  let now = Int64.to_int t.now in
  let slot = Heap.push t.heap (if at < now then now else at) t.next_seq fn in
  t.next_seq <- t.next_seq + 1;
  if Telemetry.Global.on () then
    if t.in_run then t.sched_batch <- t.sched_batch + 1
    else note t "simnet.events.scheduled";
  slot

let schedule_at t at fn = ignore (push t (Int64.to_int at) fn : int)

let schedule t ~delay fn =
  ignore (push t (Int64.to_int t.now + Int64.to_int delay) fn : int)

(* A handle names its event by slot and sequence number: the slot finds
   it in O(1), and the sequence number, unique per event, tells it
   apart from a later event that reused the slot. *)
type timer = { slot : int; seq : int }

let timer t ~delay fn =
  let seq = t.next_seq in
  let slot = push t (Int64.to_int t.now + Int64.to_int delay) fn in
  { slot; seq }

let cancel t { slot; seq } =
  let h = t.heap in
  let i = h.Heap.pos.(slot) in
  if i >= 0 && h.Heap.seqs.(i) = seq then begin
    ignore (Heap.remove h i : unit -> unit);
    if Telemetry.Global.on () then
      if t.in_run then t.cancel_batch <- t.cancel_batch + 1
      else note t "simnet.events.cancelled"
  end

let run_loop ?until t =
  let processed = ref 0 in
  let flush () =
    t.in_run <- false;
    if
      (!processed > 0 || t.sched_batch > 0 || t.cancel_batch > 0)
      && Telemetry.Global.on ()
    then begin
      if t.sched_batch > 0 then
        Telemetry.Global.add "simnet.events.scheduled"
          (Int64.of_int t.sched_batch);
      if !processed > 0 then
        Telemetry.Global.add "simnet.events.processed"
          (Int64.of_int !processed);
      if t.cancel_batch > 0 then
        Telemetry.Global.add "simnet.events.cancelled"
          (Int64.of_int t.cancel_batch);
      report_depth t
    end;
    t.sched_batch <- 0;
    t.cancel_batch <- 0
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
    let finish () =
      Telemetry.Global.add "simnet.virtual_us" (Int64.sub t.now sim0);
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
let to_sec t = Int64.to_float t /. 1_000_000.

let events_processed t = t.events_processed
