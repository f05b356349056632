(* Deadline-aware admission control for a proxy node.

   The controller answers one question at dispatch time: given what
   this shard is already committed to, can the new request finish
   inside its deadline? If not, reject it {e now} with a distinct
   verdict instead of letting it queue behind work it will never
   outrun — a late rejection costs the client its whole budget, an
   early one costs a round trip.

   Cost model: the caller supplies an estimate (CPU backlog plus the
   expected service cost for the hit/miss path); the expected miss
   cost is an EWMA over the service times of completed misses, so the
   estimate tracks the actual workload without any configuration.

   The bounded queue ([queue_limit] concurrent admitted requests) is a
   second, deadline-independent shed: by default it is [max_int], so a
   node with no deadlines behaves exactly as before — admission is
   passive bookkeeping until a request actually carries a deadline. *)

type verdict = Admit | Shed_queue | Shed_deadline

type t = {
  queue_limit : int;
  mutable inflight : int; (* admitted, not yet completed *)
  mutable est_cost_us : float; (* EWMA of completed miss service time *)
  mutable admitted : int;
  mutable shed_queue : int;
  mutable shed_deadline : int;
}

(* The miss-cost EWMA's weight on each new sample. *)
let ewma_alpha = 0.2

let create ?(queue_limit = max_int) () =
  if queue_limit <= 0 then invalid_arg "Admission.create: queue_limit";
  {
    queue_limit;
    inflight = 0;
    est_cost_us = 50_000.0;
    admitted = 0;
    shed_queue = 0;
    shed_deadline = 0;
  }

let estimate_us t = Int64.of_float t.est_cost_us
let inflight t = t.inflight
let admitted t = t.admitted
let shed_queue t = t.shed_queue
let shed_deadline t = t.shed_deadline

let admit t ~now ~deadline ~est_us =
  if t.inflight >= t.queue_limit then begin
    t.shed_queue <- t.shed_queue + 1;
    Telemetry.incr "admission.shed_queue";
    Shed_queue
  end
  else
    match deadline with
    | Some d when Int64.compare (Int64.add now est_us) d > 0 ->
      t.shed_deadline <- t.shed_deadline + 1;
      Telemetry.incr "admission.shed_deadline";
      Shed_deadline
    | Some _ | None ->
      t.inflight <- t.inflight + 1;
      t.admitted <- t.admitted + 1;
      Admit

(* One admitted request finished (successfully or not). [sample] is
   its actual service time when it exercised the miss path — the only
   observations fed to the EWMA, so cheap cache hits cannot drag the
   miss estimate down into wishful thinking. *)
let complete ?sample t =
  t.inflight <- max 0 (t.inflight - 1);
  match sample with
  | None -> ()
  | Some actual_us ->
    t.est_cost_us <-
      ((1.0 -. ewma_alpha) *. t.est_cost_us)
      +. (ewma_alpha *. Int64.to_float actual_us)
