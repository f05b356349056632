(* Per-shard circuit breaker: Closed / Open / Half_open with
   hysteresis, driven entirely by the virtual clock its callers pass
   in (the module holds no engine reference, so it is testable with
   bare timestamps).

   Two trip conditions, because they catch different pathologies:

   - [fail_threshold] consecutive failures — the classic "shard is
     dead" signal;
   - [window_threshold] failures inside a sliding [window_us] — the
     flapping signal. A host that alternates up/down never accumulates
     consecutive failures (every success resets that counter), but its
     failures pile up in the window, so the breaker opens and routing
     stops following each flap. Successes deliberately do NOT clear
     the window.

   An open breaker rejects traffic until its cooldown expires, then
   admits probes in Half_open; [success_threshold] consecutive probe
   successes close it, one probe failure re-opens it with the cooldown
   doubled (capped at [max_cooldown_us]) so a shard that keeps
   relapsing is retried geometrically less often. Closing resets the
   cooldown to its base. *)

type state = Closed | Open | Half_open

type t = {
  fail_threshold : int;
  window_threshold : int;
  window_us : int64;
  base_cooldown_us : int64;
  max_cooldown_us : int64;
  success_threshold : int;
  mutable st : state;
  mutable consecutive : int;
  mutable window : int64 list; (* failure times inside the window, newest first *)
  mutable cooldown_us : int64; (* next trip's cooldown *)
  mutable open_until : int64;
  mutable probe_successes : int;
  mutable probe_inflight : int; (* Half_open grants not yet resolved *)
  mutable trips : int;
}

let create ?(fail_threshold = 3) ?(window_threshold = 4)
    ?(window_us = 10_000_000L) ?(cooldown_us = 500_000L)
    ?(max_cooldown_us = 4_000_000L) ?(success_threshold = 2) () =
  if fail_threshold <= 0 then invalid_arg "Breaker.create: fail_threshold";
  if window_threshold <= 0 then invalid_arg "Breaker.create: window_threshold";
  if success_threshold <= 0 then invalid_arg "Breaker.create: success_threshold";
  {
    fail_threshold;
    window_threshold;
    window_us;
    base_cooldown_us = cooldown_us;
    max_cooldown_us;
    success_threshold;
    st = Closed;
    consecutive = 0;
    window = [];
    cooldown_us;
    open_until = 0L;
    probe_successes = 0;
    probe_inflight = 0;
    trips = 0;
  }

let trips t = t.trips

let prune t ~now =
  let horizon = Int64.sub now t.window_us in
  t.window <- List.filter (fun at -> Int64.compare at horizon >= 0) t.window

(* Advance Open -> Half_open when the cooldown has expired; every
   observer goes through here so [state] and [allow] agree. *)
let refresh t ~now =
  if t.st = Open && Int64.compare now t.open_until >= 0 then begin
    t.st <- Half_open;
    t.probe_successes <- 0;
    t.probe_inflight <- 0
  end

let state t ~now =
  refresh t ~now;
  t.st

let allow t ~now =
  refresh t ~now;
  match t.st with
  | Closed -> true
  | Open -> false
  | Half_open ->
    (* Cap outstanding probes at [success_threshold]: that many
       successes suffice to close, so admitting more traffic before
       any probe resolves is a thundering herd onto a still-sick
       shard. Further callers are refused until a probe resolves
       (via [record_success] / [record_failure]). *)
    if t.probe_inflight >= t.success_threshold then false
    else begin
      t.probe_inflight <- t.probe_inflight + 1;
      true
    end

let trip t ~now =
  t.st <- Open;
  t.open_until <- Int64.add now t.cooldown_us;
  t.cooldown_us <-
    (let doubled = Int64.mul t.cooldown_us 2L in
     if Int64.compare doubled t.max_cooldown_us > 0 then t.max_cooldown_us
     else doubled);
  t.probe_successes <- 0;
  t.probe_inflight <- 0;
  t.trips <- t.trips + 1;
  Telemetry.Global.incr "breaker.trips"

let record_failure t ~now =
  refresh t ~now;
  t.consecutive <- t.consecutive + 1;
  prune t ~now;
  t.window <- now :: t.window;
  match t.st with
  | Open -> ()
  | Half_open ->
    (* The probe failed: the shard is still sick. Back off harder.
       ([trip] zeroes [probe_inflight] along with the other probe
       bookkeeping.) *)
    trip t ~now
  | Closed ->
    if
      t.consecutive >= t.fail_threshold
      || List.length t.window >= t.window_threshold
    then trip t ~now

let record_success t ~now =
  refresh t ~now;
  t.consecutive <- 0;
  match t.st with
  | Open -> ()
  | Closed -> ()
  | Half_open ->
    (* Floor at 0: a request admitted while Closed can report after
       the breaker went Open and then Half_open, so there may be
       nothing in flight to release. *)
    if t.probe_inflight > 0 then t.probe_inflight <- t.probe_inflight - 1;
    t.probe_successes <- t.probe_successes + 1;
    if t.probe_successes >= t.success_threshold then begin
      t.st <- Closed;
      t.window <- [];
      t.cooldown_us <- t.base_cooldown_us;
      t.probe_inflight <- 0
    end
