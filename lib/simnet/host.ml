(* Simulated hosts: a single serializing CPU with a speed factor
   relative to the paper's 200 MHz PentiumPro reference machines, and a
   memory budget. Memory pressure does not fail allocations — it makes
   work slower (the paging behaviour behind Figure 10's saturation
   knee). *)

type t = {
  engine : Engine.t;
  name : string;
  cpu_factor : float; (* 1.0 = reference machine *)
  mem_capacity : int; (* bytes *)
  mutable mem_used : int;
  mutable busy_until : Engine.time;
  mutable cpu_busy : Engine.time; (* total busy µs, for utilization *)
  mutable jobs : int;
  (* Availability: a crashed host refuses new work and abandons work
     in flight. The epoch ticks on every crash so completions
     scheduled before it can tell they were lost. *)
  mutable up : bool;
  mutable epoch : int;
  mutable crashes : int;
}

(* Penalty multiplier applied to work while memory is over-committed. *)
let thrash_factor = 14.0

let create ?(cpu_factor = 1.0) ?(mem_capacity = 64 * 1024 * 1024) engine
    ~name =
  {
    engine;
    name;
    cpu_factor;
    mem_capacity;
    mem_used = 0;
    busy_until = 0L;
    cpu_busy = 0L;
    jobs = 0;
    up = true;
    epoch = 0;
    crashes = 0;
  }

let is_up t = t.up

let crash t =
  if t.up then begin
    t.up <- false;
    t.epoch <- t.epoch + 1;
    t.crashes <- t.crashes + 1
  end

(* Restart after a crash: queued work is gone (the epoch already
   ticked), the CPU comes back idle, and only [mem_retained] of the
   working memory survives — 0.0 models a cold start whose caches and
   per-request state must be rebuilt. *)
let restart ?(mem_retained = 1.0) t =
  if not t.up then begin
    t.up <- true;
    t.busy_until <- Engine.now t.engine;
    t.mem_used <-
      max 0 (int_of_float (Float.of_int t.mem_used *. mem_retained))
  end

(* How far the CPU's commitments already extend past the present — the
   queueing delay a request admitted now would wait before its own work
   starts. Admission control sheds on this. *)
let backlog_us t =
  let now = Engine.now t.engine in
  if Int64.compare t.busy_until now > 0 then Int64.sub t.busy_until now else 0L

let mem_pressure t =
  if t.mem_capacity <= 0 then 0.0
  else Float.of_int t.mem_used /. Float.of_int t.mem_capacity

let effective_cost t ~cost_us =
  let base = Float.of_int (Int64.to_int cost_us) /. t.cpu_factor in
  let pressure = mem_pressure t in
  let slowdown =
    if pressure <= 1.0 then 1.0
    else 1.0 +. ((pressure -. 1.0) *. thrash_factor)
  in
  Int64.of_float (base *. slowdown)

(* Run [cost_us] of work on the host's CPU; [k] fires at completion.
   Work serializes behind whatever the CPU is already committed to.
   On a down host — or if the host crashes before the work completes —
   [on_fail] fires instead (nothing at all happens without one). *)
let compute t ?on_fail ~cost_us k =
  let now = Engine.now t.engine in
  if not t.up then
    match on_fail with
    | Some f -> Engine.schedule_at t.engine now f
    | None -> ()
  else begin
    let epoch = t.epoch in
    let start = if Int64.compare t.busy_until now > 0 then t.busy_until else now in
    let cost = effective_cost t ~cost_us in
    let finish = Int64.add start cost in
    t.busy_until <- finish;
    t.cpu_busy <- Int64.add t.cpu_busy cost;
    t.jobs <- t.jobs + 1;
    Engine.schedule_at t.engine finish (fun () ->
        if t.up && t.epoch = epoch then k ()
        else match on_fail with Some f -> f () | None -> ())
  end

let allocate t bytes = t.mem_used <- t.mem_used + bytes
let release t bytes = t.mem_used <- max 0 (t.mem_used - bytes)

let utilization t =
  let now = Engine.now t.engine in
  if Int64.equal now 0L then 0.0
  else Int64.to_float t.cpu_busy /. Int64.to_float now
