(** The static component of the monitoring services (§3.3).

    Transforms applications to invoke the auditing/profiling runtime at
    entry to and exit from methods and constructors, and (for the
    tracing service) at synchronization operations. *)

type counters = {
  mutable probes_inserted : int;
  mutable methods_instrumented : int;
}

val fresh_counters : unit -> counters

val instrument_class :
  ?counters:counters ->
  runtime_class:string ->
  ?sync_trace:bool ->
  Bytecode.Classfile.t ->
  Bytecode.Classfile.t

val trace_blocks :
  ?counters:counters -> Bytecode.Classfile.t -> Bytecode.Classfile.t
(** The instruction-level tracing service of §3.3: counts basic-block
    executions via [dvm/Tracer.block] probes. *)

val audit_filter : ?counters:counters -> unit -> Rewrite.Filter.t
