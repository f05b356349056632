(** Per-node flight recorder.

    A bounded ring of recent observability lines per simulated host —
    span completions and decision events as one-line summaries — dumped
    as JSON when a chaos invariant trips or on demand via
    [dvmctl flight].  Rings overwrite oldest-first; writes never
    allocate beyond the ring.  Callers gate on their own enabled flag
    (the trace collector only notes lines for live traces). *)

type entry = { fl_at : int64; fl_node : string; fl_line : string }

val note : at:int64 -> node:string -> string -> unit
val nodes : unit -> string list
(** Sorted node names with at least one note. *)

val entries : ?node:string -> unit -> entry list
(** Retained entries, oldest first; without [node], merged across all
    nodes in timestamp order. *)

val dump_json : unit -> string
(** All rings as one JSON object, nodes sorted, entries oldest first,
    with per-node noted/dropped counts. *)

val set_capacity : int -> unit
(** Ring size per node (default 256). Clears existing rings. *)

val reset : unit -> unit

val esc : string -> string
(** JSON string escaping, shared by every JSON writer (the trace and
    telemetry exporters, the bench and [dvmctl] reports). *)
