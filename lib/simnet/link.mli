(** Network links with bandwidth and latency.

    A link is a serializing resource: transmissions queue behind one
    another (the shared-medium behaviour of the paper's 10 Mb/s
    Ethernet), then propagate with the link latency. *)

type faults = {
  plan : Fault.t;
  drop_prob : float;
  jitter_max_us : int;
}

type t = {
  engine : Engine.t;
  name : string;
  bandwidth_bps : int;
  latency : Engine.time;
  mutable busy_until : Engine.time;
  mutable faults : faults option;
  mutable drops : int;
  mutable partitioned : bool;
  mutable partition_drops : int;
}

val create :
  Engine.t -> name:string -> bandwidth_bps:int -> latency:Engine.time -> t

val set_faults :
  t -> plan:Fault.t -> ?drop_prob:float -> ?jitter_max_us:int -> unit -> unit
(** Attach a fault profile: each transfer draws a loss decision at
    [drop_prob] and, when delivered, a propagation jitter uniform in
    [\[0, jitter_max_us)] — both from [plan]'s deterministic stream. *)

val clear_faults : t -> unit

val set_partitioned : t -> bool -> unit
(** Open or close a network-partition window on this link. While open,
    {e every} transfer is lost (no probability draw, so the fault
    plan's random stream stays aligned with an unpartitioned run);
    [on_drop] still fires at would-be arrival and losses are counted in
    [partition_drops] / [simnet.partition_drops], separate from
    probabilistic [drops]. Schedule windows with
    {!Fault.schedule_partition}. *)

val tx_time : t -> bytes:int -> Engine.time

val transfer : t -> ?on_drop:(unit -> unit) -> bytes:int -> (unit -> unit) -> unit
(** Queue [bytes] on the wire; the continuation runs when the last
    byte arrives. A transfer lost to the fault profile still occupies
    the wire but the continuation never runs; [on_drop], if given,
    fires when the last byte would have arrived — what [test_faults]'
    "link drop occupies wire" times the loss by. Counter:
    [simnet.drops]. *)

val ethernet_10mb : Engine.t -> t
