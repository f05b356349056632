(* Tests for the discrete-event engine, links and hosts. *)

let check = Alcotest.check

let test_event_order () =
  let e = Simnet.Engine.create () in
  let order = ref [] in
  let at t tag = Simnet.Engine.schedule_at e t (fun () -> order := tag :: !order) in
  at 30L "c";
  at 10L "a";
  at 20L "b";
  at 10L "a2" (* FIFO tie-break *);
  Simnet.Engine.run e;
  check (Alcotest.list Alcotest.string) "order" [ "a"; "a2"; "b"; "c" ]
    (List.rev !order)

let test_clock_advances () =
  let e = Simnet.Engine.create () in
  let seen = ref [] in
  Simnet.Engine.schedule e ~delay:(Simnet.Engine.ms 5) (fun () ->
      seen := Simnet.Engine.now e :: !seen;
      Simnet.Engine.schedule e ~delay:(Simnet.Engine.ms 7) (fun () ->
          seen := Simnet.Engine.now e :: !seen));
  Simnet.Engine.run e;
  check (Alcotest.list Alcotest.int64) "times" [ 5000L; 12000L ] (List.rev !seen)

let test_run_until () =
  let e = Simnet.Engine.create () in
  let fired = ref 0 in
  Simnet.Engine.schedule_at e 100L (fun () -> incr fired);
  Simnet.Engine.schedule_at e 200L (fun () -> incr fired);
  Simnet.Engine.run ~until:150L e;
  check Alcotest.int "only first" 1 !fired;
  check Alcotest.int64 "clock at horizon" 150L (Simnet.Engine.now e);
  Simnet.Engine.run e;
  check Alcotest.int "rest runs" 2 !fired

let test_trace_cap () =
  let e = Simnet.Engine.create () in
  Simnet.Engine.set_tracing e true;
  Simnet.Engine.set_trace_cap e (Some 3);
  for i = 1 to 5 do
    Simnet.Engine.record e (Printf.sprintf "r%d" i)
  done;
  check Alcotest.int "buffer capped" 3 (List.length (Simnet.Engine.trace e));
  check Alcotest.int "overflow counted" 2 (Simnet.Engine.trace_dropped e);
  check
    (Alcotest.list Alcotest.string)
    "oldest records kept" [ "r1"; "r2"; "r3" ]
    (List.map snd (Simnet.Engine.trace e));
  (* lifting the cap resumes recording; dropped stays as history *)
  Simnet.Engine.set_trace_cap e None;
  Simnet.Engine.record e "r6";
  check Alcotest.int "uncapped grows" 4 (List.length (Simnet.Engine.trace e));
  check Alcotest.int "dropped untouched" 2 (Simnet.Engine.trace_dropped e);
  (* re-enabling tracing clears both the buffer and the counter *)
  Simnet.Engine.set_tracing e true;
  check Alcotest.int "cleared" 0 (List.length (Simnet.Engine.trace e));
  check Alcotest.int "dropped reset" 0 (Simnet.Engine.trace_dropped e);
  check Alcotest.bool "negative cap rejected" true
    (try
       Simnet.Engine.set_trace_cap e (Some (-1));
       false
     with Invalid_argument _ -> true)

let test_past_events_clamped () =
  let e = Simnet.Engine.create () in
  let t = ref (-1L) in
  Simnet.Engine.schedule_at e 100L (fun () ->
      (* scheduling in the past runs "now" *)
      Simnet.Engine.schedule_at e 5L (fun () -> t := Simnet.Engine.now e));
  Simnet.Engine.run e;
  check Alcotest.int64 "clamped to now" 100L !t

let test_link_bandwidth_math () =
  (* 10 Mb/s: 1250 bytes take 1 ms on the wire. *)
  let e = Simnet.Engine.create () in
  let link = Simnet.Link.ethernet_10mb e in
  check Alcotest.int64 "tx time" 1000L (Simnet.Link.tx_time link ~bytes:1250);
  let done_at = ref 0L in
  Simnet.Link.transfer link ~bytes:1250 (fun () -> done_at := Simnet.Engine.now e);
  Simnet.Engine.run e;
  (* tx 1000 + latency 500 *)
  check Alcotest.int64 "arrival" 1500L !done_at

let test_link_serializes () =
  let e = Simnet.Engine.create () in
  let link = Simnet.Link.ethernet_10mb e in
  let arrivals = ref [] in
  Simnet.Link.transfer link ~bytes:1250 (fun () ->
      arrivals := Simnet.Engine.now e :: !arrivals);
  Simnet.Link.transfer link ~bytes:1250 (fun () ->
      arrivals := Simnet.Engine.now e :: !arrivals);
  Simnet.Engine.run e;
  (* Second transmission queues behind the first: 2000 + 500. *)
  check (Alcotest.list Alcotest.int64) "arrivals" [ 1500L; 2500L ]
    (List.rev !arrivals)

let test_closed_form_matches () =
  check Alcotest.int "closed form" 1500
    (Simnet.Link.transfer_time_us ~bandwidth_bps:10_000_000 ~latency_us:500
       ~bytes:1250)

let test_host_compute_serializes () =
  let e = Simnet.Engine.create () in
  let h = Simnet.Host.create e ~name:"h" in
  let arrivals = ref [] in
  Simnet.Host.compute h ~cost_us:100L (fun () ->
      arrivals := Simnet.Engine.now e :: !arrivals);
  Simnet.Host.compute h ~cost_us:50L (fun () ->
      arrivals := Simnet.Engine.now e :: !arrivals);
  Simnet.Engine.run e;
  check (Alcotest.list Alcotest.int64) "fifo cpu" [ 100L; 150L ]
    (List.rev !arrivals)

let test_host_cpu_factor () =
  let e = Simnet.Engine.create () in
  let fast = Simnet.Host.create ~cpu_factor:2.0 e ~name:"fast" in
  check Alcotest.int64 "half cost" 50L
    (Simnet.Host.effective_cost fast ~cost_us:100L)

let test_memory_pressure_slows () =
  let e = Simnet.Engine.create () in
  let h = Simnet.Host.create ~mem_capacity:1000 e ~name:"h" in
  let base = Simnet.Host.effective_cost h ~cost_us:100L in
  Simnet.Host.allocate h 2000;
  (* 2x over-committed *)
  let slowed = Simnet.Host.effective_cost h ~cost_us:100L in
  check Alcotest.bool "slower under pressure" true (slowed > base);
  Simnet.Host.release h 2000;
  check Alcotest.int64 "recovers" base (Simnet.Host.effective_cost h ~cost_us:100L)

let prop_heap_orders_events =
  QCheck.Test.make ~name:"events fire in time order" ~count:100
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let e = Simnet.Engine.create () in
      let fired = ref [] in
      List.iter
        (fun t ->
          Simnet.Engine.schedule_at e (Int64.of_int t) (fun () ->
              fired := Simnet.Engine.now e :: !fired))
        times;
      Simnet.Engine.run e;
      let fired = List.rev !fired in
      (* fired times are sorted and a permutation of the input *)
      List.sort compare fired = fired
      && List.sort compare (List.map Int64.of_int times) = List.sort compare fired)

(* --- The event queue against the record heap it replaced. --- *)

(* The record heap and run loop [Simnet.Engine] used before its queue
   became parallel arrays, kept verbatim (less the telemetry batching
   and the observable-trace buffer) as the reference for firing order,
   clock and event count. One addition gives it cancellation by its
   plain meaning: a timer is an event with a [dead] flag, [cancel] sets
   the flag, and the run loop drops a dead event when it reaches the
   top without moving the clock or the count — lazy deletion. A dead
   event that already fired stays fired. *)
module Ref_engine = struct
  type time = int64

  type event = { at : time; seq : int; fn : unit -> unit; mutable dead : bool }

  (* Binary min-heap on (at, seq). *)
  module Heap = struct
    type t = { mutable data : event array; mutable size : int }

    let dummy = { at = 0L; seq = 0; fn = ignore; dead = false }
    let create () = { data = Array.make 256 dummy; size = 0 }

    let less a b = if Int64.equal a.at b.at then a.seq < b.seq else Int64.compare a.at b.at < 0

    let swap h i j =
      let t = h.data.(i) in
      h.data.(i) <- h.data.(j);
      h.data.(j) <- t

    let push h e =
      if h.size >= Array.length h.data then begin
        let bigger = Array.make (2 * Array.length h.data) dummy in
        Array.blit h.data 0 bigger 0 h.size;
        h.data <- bigger
      end;
      h.data.(h.size) <- e;
      h.size <- h.size + 1;
      let i = ref (h.size - 1) in
      while !i > 0 && less h.data.(!i) h.data.((!i - 1) / 2) do
        swap h !i ((!i - 1) / 2);
        i := (!i - 1) / 2
      done

    let pop h =
      if h.size = 0 then None
      else begin
        let top = h.data.(0) in
        h.size <- h.size - 1;
        h.data.(0) <- h.data.(h.size);
        h.data.(h.size) <- dummy;
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.size && less h.data.(l) h.data.(!smallest) then smallest := l;
          if r < h.size && less h.data.(r) h.data.(!smallest) then smallest := r;
          if !smallest <> !i then begin
            swap h !i !smallest;
            i := !smallest
          end
          else continue := false
        done;
        Some top
      end

    (* The horizon check only needs to *look* at the earliest event; a
       pop-then-push round trip costs two sift passes for nothing. *)
    let peek h = if h.size = 0 then None else Some h.data.(0)
  end

  type t = {
    mutable now : time;
    heap : Heap.t;
    mutable next_seq : int;
    mutable events_processed : int;
  }

  let create () =
    { now = 0L; heap = Heap.create (); next_seq = 0; events_processed = 0 }

  let now t = t.now
  let events_processed t = t.events_processed

  let timer_at t at fn =
    let at = if Int64.compare at t.now < 0 then t.now else at in
    let e = { at; seq = t.next_seq; fn; dead = false } in
    Heap.push t.heap e;
    t.next_seq <- t.next_seq + 1;
    e

  let schedule_at t at fn = ignore (timer_at t at fn : event)
  let schedule t ~delay fn = schedule_at t (Int64.add t.now delay) fn
  let timer t ~delay fn = timer_at t (Int64.add t.now delay) fn
  let cancel _ e = e.dead <- true

  let run ?until t =
    let continue = ref true in
    while !continue do
      match Heap.peek t.heap with
      | None -> continue := false
      | Some e when e.dead -> ignore (Heap.pop t.heap)
      | Some e -> (
        match until with
        | Some stop when Int64.compare e.at stop > 0 ->
          (* Past the horizon: leave it queued and stop. *)
          t.now <- stop;
          continue := false
        | Some _ | None ->
          ignore (Heap.pop t.heap);
          t.now <- e.at;
          t.events_processed <- t.events_processed + 1;
          e.fn ())
    done
end

(* The operations a program drives, over either engine; ['h] is a
   timer handle. *)
type ('e, 'h) ops = {
  create : unit -> 'e;
  now : 'e -> int64;
  processed : 'e -> int;
  schedule_at : 'e -> int64 -> (unit -> unit) -> unit;
  schedule : 'e -> delay:int64 -> (unit -> unit) -> unit;
  timer : 'e -> delay:int64 -> (unit -> unit) -> 'h;
  cancel : 'e -> 'h -> unit;
  run : ?until:int64 -> 'e -> unit;
}

let engine_ops =
  {
    create = Simnet.Engine.create;
    now = Simnet.Engine.now;
    processed = Simnet.Engine.events_processed;
    schedule_at = Simnet.Engine.schedule_at;
    schedule = Simnet.Engine.schedule;
    timer = Simnet.Engine.timer;
    cancel = Simnet.Engine.cancel;
    run = Simnet.Engine.run;
  }

let ref_ops =
  {
    create = Ref_engine.create;
    now = Ref_engine.now;
    processed = Ref_engine.events_processed;
    schedule_at = Ref_engine.schedule_at;
    schedule = Ref_engine.schedule;
    timer = Ref_engine.timer;
    cancel = Ref_engine.cancel;
    run = Ref_engine.run;
  }

(* A seeded program: up to 3 000 initial events at times in [0, 200]
   (so many tie), each handler scheduling 0-3 follow-ups two
   generations deep through [schedule] or [schedule_at] with delays in
   [-5, 45] (a negative one lands in the past and clamps), run to five
   random horizons — some behind the clock — and then drained. What a
   handler does is a function of the program seed and its event's id,
   and ids are handed out in scheduling order, so two engines that fire
   alike run the same program and the first divergence shows in the
   log. Returns the firing log (id and clock per event, newest first)
   and, per run, the clock and event count after it.

   With [~timers], some events (initial and follow-up) are [timer]s
   instead, and cancels land throughout: while the initial events are
   queued, so across the queue's growth from 256 slots; between runs;
   and 0-2 from each handler, aimed either at a random timer so far —
   one that fired (its slot since reused by a later event), was
   cancelled already, is the handler's own, or is still queued — or at
   a timer due at the handler's own time, which may come before or
   after it in the firing order. *)
let run_program ?(timers = false) ops seed =
  let mix a b =
    let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) in
    (h lxor (h lsr 29)) land 0x3FFFFFFF
  in
  let st = Random.State.make [| seed |] in
  let e = ops.create () in
  let log = ref [] and next_id = ref 0 in
  (* Timer handles by id, and the ids of the timers due at each time. *)
  let handles = Hashtbl.create 64 and due = Hashtbl.create 64 in
  let arm_timer id ~delay fn =
    Hashtbl.replace handles id (ops.timer e ~delay fn);
    let now = ops.now e in
    let at = Int64.to_int (Int64.max now (Int64.add now delay)) in
    Hashtbl.replace due at
      (id :: Option.value ~default:[] (Hashtbl.find_opt due at))
  in
  let cancel_id id =
    Option.iter (ops.cancel e) (Hashtbl.find_opt handles id)
  in
  let rec arm ~gen id () =
    log := id :: Int64.to_int (ops.now e) :: !log;
    if gen < 2 then
      for k = 0 to mix seed id mod 4 - 1 do
        let r = mix id (k + 1) in
        let delay = Int64.of_int ((r mod 51) - 5) in
        let child = !next_id in
        incr next_id;
        if timers && r land 0x20000 <> 0 then
          arm_timer child ~delay (arm ~gen:(gen + 1) child)
        else if r land 0x10000 = 0 then
          ops.schedule e ~delay (arm ~gen:(gen + 1) child)
        else
          ops.schedule_at e (Int64.add (ops.now e) delay)
            (arm ~gen:(gen + 1) child)
      done;
    if timers then
      for c = 0 to mix id 7 mod 3 - 1 do
        let r = mix id (100 + c) in
        if r land 1 = 0 then cancel_id (r / 2 mod !next_id)
        else
          match Hashtbl.find_opt due (Int64.to_int (ops.now e)) with
          | Some ids -> cancel_id (List.nth ids (r / 2 mod List.length ids))
          | None -> ()
      done
  in
  for _ = 1 to 1 + Random.State.int st 3000 do
    let id = !next_id in
    incr next_id;
    let at = Int64.of_int (Random.State.int st 201) in
    (match Random.State.int st (if timers then 3 else 2) with
    | 0 -> ops.schedule_at e at (arm ~gen:0 id)
    | 1 -> ops.schedule e ~delay:at (arm ~gen:0 id)
    | _ -> arm_timer id ~delay:at (arm ~gen:0 id));
    if timers && Random.State.int st 8 = 0 then
      cancel_id (Random.State.int st !next_id)
  done;
  let after_runs = ref [] in
  let run until =
    ops.run ?until e;
    after_runs := (ops.now e, ops.processed e) :: !after_runs;
    if timers then
      for _ = 1 to Random.State.int st 20 do
        cancel_id (Random.State.int st !next_id)
      done
  in
  for _ = 1 to 5 do
    run (Some (Int64.of_int (Random.State.int st 301)))
  done;
  run None;
  (!log, !after_runs)

let test_queue_matches_reference () =
  List.iter
    (fun timers ->
      for seed = 1 to 300 do
        let log, runs = run_program ~timers engine_ops seed in
        let ref_log, ref_runs = run_program ~timers ref_ops seed in
        if log <> ref_log then
          Alcotest.failf "program %d%s: firing log differs (%d vs %d entries)"
            seed
            (if timers then " with timers" else "")
            (List.length log) (List.length ref_log);
        check
          (Alcotest.list (Alcotest.pair Alcotest.int64 Alcotest.int))
          (Printf.sprintf "program %d%s: clock and count after each run" seed
             (if timers then " with timers" else ""))
          ref_runs runs
      done)
    [ false; true ]

(* The cancel rules one at a time: a queued timer never fires and is not
   processed; cancelling one that fired, cancelling twice, or cancelling
   through a handle whose slot a later event took over does nothing; a
   handler can cancel a later event due at its own time, and the clock
   does not run on to a cancelled event. *)
let test_cancel_rules () =
  let e = Simnet.Engine.create () in
  let fired = ref [] in
  let tm at tag =
    Simnet.Engine.timer e ~delay:(Int64.of_int at) (fun () ->
        fired := tag :: !fired)
  in
  let a = tm 10 "a" in
  let b = tm 20 "b" in
  Simnet.Engine.cancel e b;
  Simnet.Engine.cancel e b;
  Simnet.Engine.run ~until:15L e;
  (* [a] fired and freed its slot; [c] is the next event queued, so it
     reuses that slot, and [a]'s stale handle must leave it alone. *)
  let c = tm 5 "c" in
  Simnet.Engine.cancel e a;
  Simnet.Engine.run e;
  check (Alcotest.list Alcotest.string) "fired" [ "a"; "c" ] (List.rev !fired);
  check Alcotest.int "cancelled event not processed" 2
    (Simnet.Engine.events_processed e);
  check Alcotest.int64 "clock stops at the last live event, not at b's" 15L
    (Simnet.Engine.now e);
  Simnet.Engine.cancel e c;
  (* Two events due at one time: the first cancels the second, which
     never fires; the second's handle, cancelled from its own handler,
     would do nothing. *)
  let e = Simnet.Engine.create () in
  let fired = ref [] in
  let second = ref None in
  let first =
    Simnet.Engine.timer e ~delay:7L (fun () ->
        fired := "first" :: !fired;
        Option.iter (Simnet.Engine.cancel e) !second)
  in
  second :=
    Some
      (Simnet.Engine.timer e ~delay:7L (fun () ->
           fired := "second" :: !fired;
           Simnet.Engine.cancel e first));
  Simnet.Engine.schedule e ~delay:7L (fun () -> fired := "third" :: !fired);
  Simnet.Engine.run e;
  check (Alcotest.list Alcotest.string) "same-time cancel"
    [ "first"; "third" ] (List.rev !fired)

(* Handles made before the queue grows past its first 256 slots still
   cancel exactly their own events after it has grown (twice). *)
let test_cancel_across_grow () =
  let e = Simnet.Engine.create () in
  let fired = Array.make 1000 false in
  let handles =
    Array.init 1000 (fun i ->
        Simnet.Engine.timer e
          ~delay:(Int64.of_int (i * 7919 mod 1000))
          (fun () -> fired.(i) <- true))
  in
  Array.iteri (fun i h -> if i mod 3 = 0 then Simnet.Engine.cancel e h) handles;
  Simnet.Engine.run e;
  Array.iteri
    (fun i f ->
      if f = (i mod 3 = 0) then
        Alcotest.failf "event %d: fired %b, cancelled %b" i f (i mod 3 = 0))
    fired;
  check Alcotest.int "processed" 666 (Simnet.Engine.events_processed e)

(* Every event scheduled is processed, cancelled or still queued when
   the run stops: the three telemetry counts and the depth gauge add up,
   whether the cancels come from inside a run (batched) or outside. *)
let test_event_count_identity () =
  let reg = Telemetry.default in
  Telemetry.reset reg;
  Telemetry.enable reg;
  Fun.protect
    ~finally:(fun () -> Telemetry.disable reg)
    (fun () ->
      let e = Simnet.Engine.create () in
      let hs =
        Array.init 50 (fun i ->
            Simnet.Engine.timer e ~delay:(Int64.of_int (i * 10)) ignore)
      in
      Simnet.Engine.cancel e hs.(49);
      Simnet.Engine.cancel e hs.(49);
      Simnet.Engine.schedule e ~delay:5L (fun () ->
          Array.iteri
            (fun i h -> if i mod 4 = 1 then Simnet.Engine.cancel e h)
            hs;
          ignore
            (Simnet.Engine.timer e ~delay:1000L ignore : Simnet.Engine.timer));
      Simnet.Engine.run ~until:250L e;
      Simnet.Engine.cancel e hs.(46);
      let counter = Telemetry.counter_value reg in
      let scheduled = counter "simnet.events.scheduled"
      and processed = counter "simnet.events.processed"
      and cancelled = counter "simnet.events.cancelled"
      and depth = Telemetry.gauge_value reg "simnet.queue.depth" in
      check Alcotest.int64 "scheduled" 52L scheduled;
      check Alcotest.int64 "cancelled" 14L cancelled;
      check Alcotest.int64 "processed"
        (Int64.of_int (Simnet.Engine.events_processed e))
        processed;
      check Alcotest.int64 "scheduled = processed + cancelled + depth" scheduled
        (Int64.add processed (Int64.add cancelled depth)))

(* The depth gauge sums every engine's queued events, so the identity
   closes over a phase that runs several engines — and stays closed
   when an earlier engine is driven again after a later one ran. *)
let test_event_count_identity_engines () =
  let reg = Telemetry.default in
  Telemetry.reset reg;
  Telemetry.enable reg;
  Fun.protect
    ~finally:(fun () -> Telemetry.disable reg)
    (fun () ->
      let queue e n =
        for i = 1 to n do
          Simnet.Engine.schedule e ~delay:(Int64.of_int (i * 10)) ignore
        done
      in
      let a = Simnet.Engine.create () and b = Simnet.Engine.create () in
      queue a 5;
      Simnet.Engine.run ~until:25L a;
      queue b 7;
      Simnet.Engine.run ~until:15L b;
      Simnet.Engine.run ~until:35L a;
      let counter = Telemetry.counter_value reg in
      check Alcotest.int64 "queued on both engines" 8L
        (Telemetry.gauge_value reg "simnet.queue.depth");
      check Alcotest.int64 "scheduled = processed + cancelled + depth"
        (counter "simnet.events.scheduled")
        (Int64.add (counter "simnet.events.processed")
           (Int64.add (counter "simnet.events.cancelled")
              (Telemetry.gauge_value reg "simnet.queue.depth"))))

(* A fired event's closure is dropped from the queue: a value only it
   captures becomes garbage. *)
let test_fired_closure_released () =
  let e = Simnet.Engine.create () in
  let finalised = ref 0 in
  let arm at =
    let v = ref at in
    Gc.finalise (fun _ -> incr finalised) v;
    Simnet.Engine.schedule_at e (Int64.of_int at) (fun () -> incr v)
  in
  List.iter arm [ 5; 1; 3; 3; 2 ];
  Simnet.Engine.schedule_at e 10L ignore;
  Simnet.Engine.run ~until:6L e;
  Gc.full_major ();
  check Alcotest.int "every fired closure finalised" 5 !finalised;
  Simnet.Engine.run e

(* Likewise a cancelled event's: the queue forgets it at once, not when
   its time comes. *)
let test_cancelled_closure_released () =
  let e = Simnet.Engine.create () in
  let finalised = ref 0 and fired = ref 0 in
  let arm at =
    let v = ref at in
    Gc.finalise (fun _ -> incr finalised) v;
    Simnet.Engine.timer e ~delay:(Int64.of_int at) (fun () ->
        incr v;
        incr fired)
  in
  let hs = List.map arm [ 5; 1; 3; 3; 2 ] in
  Simnet.Engine.schedule_at e 10L ignore;
  List.iter (Simnet.Engine.cancel e) hs;
  Gc.full_major ();
  check Alcotest.int "every cancelled closure finalised" 5 !finalised;
  Simnet.Engine.run e;
  check Alcotest.int "none fired" 0 !fired

let () =
  Alcotest.run "simnet"
    [
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "past events clamped" `Quick
            test_past_events_clamped;
          Alcotest.test_case "trace cap and dropped counter" `Quick
            test_trace_cap;
          QCheck_alcotest.to_alcotest prop_heap_orders_events;
          Alcotest.test_case "queue matches the record heap" `Quick
            test_queue_matches_reference;
          Alcotest.test_case "cancel rules" `Quick test_cancel_rules;
          Alcotest.test_case "cancel across grow" `Quick
            test_cancel_across_grow;
          Alcotest.test_case "event count identity" `Quick
            test_event_count_identity;
          Alcotest.test_case "event count identity over several engines"
            `Quick test_event_count_identity_engines;
          Alcotest.test_case "fired closures released" `Quick
            test_fired_closure_released;
          Alcotest.test_case "cancelled closures released" `Quick
            test_cancelled_closure_released;
        ] );
      ( "link",
        [
          Alcotest.test_case "bandwidth math" `Quick test_link_bandwidth_math;
          Alcotest.test_case "serializes" `Quick test_link_serializes;
          Alcotest.test_case "closed form" `Quick test_closed_form_matches;
        ] );
      ( "host",
        [
          Alcotest.test_case "cpu serializes" `Quick
            test_host_compute_serializes;
          Alcotest.test_case "cpu factor" `Quick test_host_cpu_factor;
          Alcotest.test_case "memory pressure" `Quick
            test_memory_pressure_slows;
        ] );
    ]
