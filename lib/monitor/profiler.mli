(** The dynamic side of the monitoring services (§3.3).

    Natives backing [dvm/Auditor] (events forwarded to the console),
    [dvm/Profiler] (dynamic call graph, invocation counts, first-use
    order — the input to the §5 repartitioning optimizer) and
    [dvm/Tracer] (synchronization tracing). *)

val auditor_class : string
val profiler_class : string
val tracer_class : string
val desc_s : string

type t

val first_use_order : t -> string list
(** Methods in the order they were first invoked. *)

val call_graph : t -> (string * string * int) list
(** (caller, callee, count) edges; roots appear under ["<root>"]. *)

val invocation_count : t -> string -> int
val sync_count : t -> string -> int

val block_count : t -> string -> int
(** Executions of one basic block, keyed ["method@leader-index"]. *)

val block_profile : t -> (string * int) list
(** All traced blocks, hottest first. *)

val install : Jvm.Vmstate.t -> ?console:Console.t -> ?session:int -> unit -> t
(** Register the monitoring natives in a client VM. *)
