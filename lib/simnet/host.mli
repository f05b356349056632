(** Simulated hosts.

    A single serializing CPU with a speed factor relative to the
    paper's 200 MHz PentiumPro reference machines, and a memory budget.
    Memory pressure does not fail allocations — it slows work down (the
    paging behaviour behind Figure 10's saturation knee). *)

type t = {
  engine : Engine.t;
  name : string;
  cpu_factor : float;
  mem_capacity : int;
  mutable mem_used : int;
  mutable busy_until : Engine.time;
  mutable cpu_busy : Engine.time;
  mutable jobs : int;
  mutable up : bool;
  mutable epoch : int;  (** ticks on every crash *)
  mutable crashes : int;
}

val create :
  ?cpu_factor:float ->
  ?mem_capacity:int ->
  Engine.t ->
  name:string ->
  t
(** Defaults: reference CPU, 64 MB memory (the paper's proxy). Work
    slows by 14x the over-commitment while memory is over-committed. *)

val backlog_us : t -> Engine.time
(** How far the CPU's commitments extend past the present: the queueing
    delay work admitted now would wait before starting. 0 when idle. *)

val mem_pressure : t -> float
val effective_cost : t -> cost_us:Engine.time -> Engine.time

val compute :
  t -> ?on_fail:(unit -> unit) -> cost_us:Engine.time -> (unit -> unit) -> unit
(** Serialize [cost_us] of work behind the CPU's queue; the
    continuation fires at completion. If the host is down at submit
    time, or crashes before the work completes, [on_fail] fires
    instead (and nothing at all happens without one). *)

val allocate : t -> int -> unit
val release : t -> int -> unit
val utilization : t -> float

(** {1 Availability} *)

val is_up : t -> bool

val crash : t -> unit
(** Take the host down: new work fails, in-flight work is abandoned
    (the epoch ticks). Idempotent while down. *)

val restart : ?mem_retained:float -> t -> unit
(** Bring a crashed host back with an idle CPU, keeping [mem_retained]
    (default 1.0) of its working memory — 0.0 is a cold start. *)
