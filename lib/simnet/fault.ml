(* Seedable deterministic fault models (the availability evaluation the
   paper's §5 replicated-proxy argument calls for but never runs).

   A fault plan owns a private splitmix64 stream, so two simulations
   built from the same seed draw identical loss/jitter decisions and
   produce identical event traces — fault experiments are replayable
   bit-for-bit. Every injected fault is appended to a trace (virtual
   timestamp + description) that tests and the bench compare across
   runs. *)

type t = {
  mutable state : int64;
  mutable crashes : int;
  mutable restarts : int;
  mutable events : string list; (* newest first *)
}

let create ~seed =
  {
    (* Mix the seed once so small seeds don't start in a low-entropy
       region of the stream. *)
    state = Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L;
    crashes = 0;
    restarts = 0;
    events = [];
  }

(* splitmix64: tiny, fast, and stable across OCaml versions (unlike
   the stdlib Random, whose algorithm is not a compatibility
   promise). *)
let next_u64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1): the top 53 bits scaled down. *)
let uniform t =
  Int64.to_float (Int64.shift_right_logical (next_u64 t) 11)
  *. (1.0 /. 9007199254740992.0)

(* Threshold draw: a transfer dropped at loss rate p is also dropped at
   any p' > p while the streams stay aligned, which keeps loss sweeps
   monotone until histories diverge. *)
let flip t ~p = p > 0.0 && uniform t < p

let jitter_us t ~max_us =
  if max_us <= 0 then 0L else Int64.of_float (uniform t *. Float.of_int max_us)

(* Uniform int in [0, max): the draw chaos schedules use to place
   crash windows, pick victim shards and stagger load spikes. *)
let range t ~max = if max <= 0 then 0 else int_of_float (uniform t *. Float.of_int max)

let record t ~at what =
  t.events <- Printf.sprintf "%Ld %s" at what :: t.events

let trace t = List.rev t.events
let crashes t = t.crashes
let restarts t = t.restarts

let count_drop t ~at what = record t ~at what

(* Crash/restart schedule for a host: at each [crash_at] the host goes
   down for [down_for]; the restart is cold (none of the host's working
   memory is retained) and runs [on_restart] so
   owners can clear warm state the crash lost (e.g. a class cache). *)
let schedule_host_faults t (host : Host.t) ?on_restart ~schedule () =
  let engine = host.Host.engine in
  List.iter
    (fun (crash_at, down_for) ->
      Engine.schedule_at engine crash_at (fun () ->
          if host.Host.up then begin
            Host.crash host;
            t.crashes <- t.crashes + 1;
            record t ~at:(Engine.now engine)
              (Printf.sprintf "crash %s" host.Host.name);
            Telemetry.incr "simnet.crashes"
          end);
      Engine.schedule_at engine (Int64.add crash_at down_for) (fun () ->
          if not host.Host.up then begin
            Host.restart ~mem_retained:0.0 host;
            t.restarts <- t.restarts + 1;
            record t ~at:(Engine.now engine)
              (Printf.sprintf "restart %s" host.Host.name);
            Telemetry.incr "simnet.restarts";
            Option.iter (fun f -> f ()) on_restart
          end))
    schedule

(* Partition schedule: at each [start] the partition opens (the caller's
   [set true] makes the affected links lose everything) and [len] later
   it heals. [set] is a closure rather than a link so one schedule can
   sever a whole bundle of links atomically — and so this module does
   not depend on [Link], which depends on it. *)
let schedule_partition t engine ~what ~set ~schedule () =
  List.iter
    (fun (start, len) ->
      Engine.schedule_at engine start (fun () ->
          set true;
          record t ~at:(Engine.now engine) (Printf.sprintf "partition %s" what);
          Telemetry.incr "simnet.partitions");
      Engine.schedule_at engine (Int64.add start len) (fun () ->
          set false;
          record t ~at:(Engine.now engine) (Printf.sprintf "heal %s" what)))
    schedule
