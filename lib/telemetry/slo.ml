(* SLO monitor: rolling goodput, deadline-violation rate and
   error-budget burn, computed from per-request outcomes as traces
   settle.  Time is bucketed per second into a ring sized to the
   window; all arithmetic is integer except the final rates, so a
   seeded simulation reports identical numbers run to run.

   "Good" means a fresh reply within deadline.  Stale serves and
   outright failures both violate the objective (the paper's executive
   would have seen a stale applet or an error page); sheds are tracked
   separately because admission control converts them into fast
   failures on purpose. *)

type outcome = Fresh of int  (** body bytes *) | Stale | Failed

type bucket = {
  mutable b_sec : int;  (* absolute second this bucket holds, -1 = empty *)
  mutable b_requests : int;
  mutable b_fresh : int;
  mutable b_fresh_bytes : int;
  mutable b_stale : int;
  mutable b_failed : int;
  mutable b_sheds : int;
}

type t = {
  window_s : int;
  objective : float;  (* target fraction of requests served fresh *)
  buckets : bucket array;
  mutable total_requests : int;
  mutable total_fresh : int;
  mutable total_stale : int;
  mutable total_failed : int;
  mutable total_sheds : int;
}

let create ?(window_s = 10) ?(objective = 0.99) () =
  {
    window_s = max 1 window_s;
    objective;
    buckets =
      Array.init (max 1 window_s) (fun _ ->
          {
            b_sec = -1;
            b_requests = 0;
            b_fresh = 0;
            b_fresh_bytes = 0;
            b_stale = 0;
            b_failed = 0;
            b_sheds = 0;
          });
    total_requests = 0;
    total_fresh = 0;
    total_stale = 0;
    total_failed = 0;
    total_sheds = 0;
  }

let bucket_at t ~now_us =
  let sec = Int64.to_int (Int64.div now_us 1_000_000L) in
  let b = t.buckets.(sec mod t.window_s) in
  if b.b_sec <> sec then begin
    b.b_sec <- sec;
    b.b_requests <- 0;
    b.b_fresh <- 0;
    b.b_fresh_bytes <- 0;
    b.b_stale <- 0;
    b.b_failed <- 0;
    b.b_sheds <- 0
  end;
  b

let record t ~now_us outcome =
  let b = bucket_at t ~now_us in
  b.b_requests <- b.b_requests + 1;
  t.total_requests <- t.total_requests + 1;
  match outcome with
  | Fresh bytes ->
    b.b_fresh <- b.b_fresh + 1;
    b.b_fresh_bytes <- b.b_fresh_bytes + bytes;
    t.total_fresh <- t.total_fresh + 1
  | Stale ->
    b.b_stale <- b.b_stale + 1;
    t.total_stale <- t.total_stale + 1
  | Failed ->
    b.b_failed <- b.b_failed + 1;
    t.total_failed <- t.total_failed + 1

let note_shed t ~now_us =
  let b = bucket_at t ~now_us in
  b.b_sheds <- b.b_sheds + 1;
  t.total_sheds <- t.total_sheds + 1

type report = {
  r_window_s : int;
  r_span_s : int;  (** seconds actually observed, <= window *)
  r_requests : int;  (** in window *)
  r_fresh : int;
  r_stale : int;
  r_failed : int;
  r_sheds : int;
  r_goodput_bps : float;
  r_violation_rate : float;
  r_budget_burn : float;
  r_total_requests : int;
  r_total_fresh : int;
  r_total_stale : int;
  r_total_failed : int;
  r_total_sheds : int;
  r_total_violation_rate : float;
  r_total_budget_burn : float;
}

let rate ~bad ~total = if total = 0 then 0.0 else float_of_int bad /. float_of_int total

let burn t ~violation = violation /. max 1e-9 (1.0 -. t.objective)

let report t ~now_us =
  let sec = Int64.to_int (Int64.div now_us 1_000_000L) in
  let req = ref 0 and fresh = ref 0 and bytes = ref 0 in
  let stale = ref 0 and failed = ref 0 and sheds = ref 0 in
  let oldest = ref max_int in
  Array.iter
    (fun b ->
      if b.b_sec >= 0 && b.b_sec <= sec && sec - b.b_sec < t.window_s then begin
        if b.b_sec < !oldest then oldest := b.b_sec;
        req := !req + b.b_requests;
        fresh := !fresh + b.b_fresh;
        bytes := !bytes + b.b_fresh_bytes;
        stale := !stale + b.b_stale;
        failed := !failed + b.b_failed;
        sheds := !sheds + b.b_sheds
      end)
    t.buckets;
  let violation = rate ~bad:(!req - !fresh) ~total:!req in
  let total_violation =
    rate ~bad:(t.total_requests - t.total_fresh) ~total:t.total_requests
  in
  (* Divide by the seconds actually observed, not the nominal window:
     during warm-up (fewer than [window_s] seconds of traffic) the old
     full-window divisor underreported goodput by up to the warm-up
     ratio. Capped at [window_s]; an empty window reports over 1 s. *)
  let span =
    if !oldest = max_int then 1 else min t.window_s (sec - !oldest + 1)
  in
  let span = max 1 span in
  {
    r_window_s = t.window_s;
    r_span_s = span;
    r_requests = !req;
    r_fresh = !fresh;
    r_stale = !stale;
    r_failed = !failed;
    r_sheds = !sheds;
    r_goodput_bps = float_of_int !bytes /. float_of_int span;
    r_violation_rate = violation;
    r_budget_burn = burn t ~violation;
    r_total_requests = t.total_requests;
    r_total_fresh = t.total_fresh;
    r_total_stale = t.total_stale;
    r_total_failed = t.total_failed;
    r_total_sheds = t.total_sheds;
    r_total_violation_rate = total_violation;
    r_total_budget_burn = burn t ~violation:total_violation;
  }

let report_json r =
  Printf.sprintf
    "{\"window_s\":%d,\"span_s\":%d,\"requests\":%d,\"fresh\":%d,\"stale\":%d,\"failed\":%d,\"sheds\":%d,\"goodput_bps\":%.1f,\"violation_rate\":%.6f,\"budget_burn\":%.4f,\"total_requests\":%d,\"total_fresh\":%d,\"total_stale\":%d,\"total_failed\":%d,\"total_sheds\":%d,\"total_violation_rate\":%.6f,\"total_budget_burn\":%.4f}"
    r.r_window_s r.r_span_s r.r_requests r.r_fresh r.r_stale r.r_failed
    r.r_sheds r.r_goodput_bps r.r_violation_rate r.r_budget_burn
    r.r_total_requests r.r_total_fresh r.r_total_stale r.r_total_failed
    r.r_total_sheds r.r_total_violation_rate r.r_total_budget_burn

let report_text r =
  Printf.sprintf
    "SLO (last %ds window, %ds observed)\n\
    \  requests            %d (fresh %d, stale %d, failed %d; sheds %d)\n\
    \  goodput             %.1f B/s\n\
    \  violation rate      %.4f\n\
    \  error-budget burn   %.2fx\n\
     cumulative\n\
    \  requests            %d (fresh %d, stale %d, failed %d; sheds %d)\n\
    \  violation rate      %.4f\n\
    \  error-budget burn   %.2fx\n"
    r.r_window_s r.r_span_s r.r_requests r.r_fresh r.r_stale r.r_failed
    r.r_sheds r.r_goodput_bps r.r_violation_rate r.r_budget_burn
    r.r_total_requests r.r_total_fresh r.r_total_stale r.r_total_failed
    r.r_total_sheds r.r_total_violation_rate r.r_total_budget_burn
