(* Network links with bandwidth and latency. A link is a serializing
   resource: transmissions queue behind one another (the shared-medium
   behaviour of the paper's 10 Mb/s Ethernet), then propagate with the
   link latency. *)

(* Fault profile attached to a link: each transfer draws a loss
   decision at [drop_prob] and, if delivered, a propagation jitter
   uniform in [0, jitter_max_us) — both from the plan's deterministic
   stream. *)
type faults = {
  plan : Fault.t;
  drop_prob : float;
  jitter_max_us : int;
}

type t = {
  engine : Engine.t;
  name : string;
  bandwidth_bps : int; (* bits per second *)
  latency : Engine.time;
  mutable busy_until : Engine.time;
  mutable faults : faults option;
  mutable drops : int;
  mutable partitioned : bool; (* partition window open: every transfer lost *)
  mutable partition_drops : int;
}

let create engine ~name ~bandwidth_bps ~latency =
  {
    engine;
    name;
    bandwidth_bps;
    latency;
    busy_until = 0L;
    faults = None;
    drops = 0;
    partitioned = false;
    partition_drops = 0;
  }

let set_faults t ~plan ?(drop_prob = 0.0) ?(jitter_max_us = 0) () =
  t.faults <- Some { plan; drop_prob; jitter_max_us }

let clear_faults t = t.faults <- None

let set_partitioned t v = t.partitioned <- v

(* Transmission time for [bytes] at the link rate, in µs. *)
let tx_time t ~bytes =
  Int64.of_float (Float.of_int bytes *. 8.0 *. 1_000_000.0
                  /. Float.of_int t.bandwidth_bps)

(* Start (or queue) a transfer; [k] runs when the last byte arrives.
   Under a fault profile the transfer may instead be lost: it still
   occupies the wire (the bytes were transmitted, then dropped in
   flight), [k] never runs, and [on_drop] — if any — fires when the
   last byte would have arrived, for models that want to observe the
   loss directly rather than through a timeout. *)
let transfer t ?on_drop ~bytes k =
  let now = Engine.now t.engine in
  let start = if Int64.compare t.busy_until now > 0 then t.busy_until else now in
  let done_tx = Int64.add start (tx_time t ~bytes) in
  t.busy_until <- done_tx;
  let arrival = Int64.add done_tx t.latency in
  if t.partitioned then begin
    (* A partition loses every transfer — no probability draw, so the
       plan's random stream stays aligned with the unpartitioned run
       and digests outside the window are comparable. *)
    t.partition_drops <- t.partition_drops + 1;
    Telemetry.Global.incr "simnet.partition_drops";
    match on_drop with
    | Some g -> Engine.schedule_at t.engine arrival g
    | None -> ()
  end
  else
  match t.faults with
  | Some f when Fault.flip f.plan ~p:f.drop_prob ->
    t.drops <- t.drops + 1;
    Fault.count_drop f.plan ~at:now
      (Printf.sprintf "drop %s %dB" t.name bytes);
    Telemetry.Global.incr "simnet.drops";
    (match on_drop with
    | Some g -> Engine.schedule_at t.engine arrival g
    | None -> ())
  | Some f ->
    Engine.schedule_at t.engine
      (Int64.add arrival (Fault.jitter_us f.plan ~max_us:f.jitter_max_us))
      k
  | None -> Engine.schedule_at t.engine arrival k

(* The pure-math variant used by closed-form startup models. *)
let transfer_time_us ~bandwidth_bps ~latency_us ~bytes =
  latency_us + int_of_float (Float.of_int bytes *. 8.0 *. 1_000_000.0 /. Float.of_int bandwidth_bps)

(* Common link presets from the paper's evaluation. *)
let ethernet_10mb engine = create engine ~name:"ethernet" ~bandwidth_bps:10_000_000 ~latency:(Engine.us 500)
