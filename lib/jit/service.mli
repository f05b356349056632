(** The network compilation service (§3.4).

    Clients describe their native format during the administration
    handshake; the compiler translates ahead of time for each format
    present in the organization, amortizing its cost across all
    clients, and caches compiled units per (class, method,
    architecture). *)

type compiled = {
  arch : Arch.t;
  ir : Ir.meth;
  allocation : Regalloc.result;
  est_cost : float;  (** static per-pass cost estimate, cost units *)
  kernel : bool;  (** directly executable by {!Exec} *)
}

type entry = Compiled of compiled | Interpreter_resident of string

type t = {
  cache : (string, entry) Hashtbl.t;
  mutable compiled_methods : int;
  mutable skipped_methods : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable compile_cost_us : int64;
  mutable guards_emitted : int;
  mutable guards_elided : int;
      (** guards proven redundant by proxy-side dataflow facts *)
}

val create : unit -> t

val compile_class :
  ?elide:bool -> t -> Arch.t -> Bytecode.Classfile.t -> (string * entry) list

val compile_for_fleet :
  t -> Monitor.Console.t -> Bytecode.Classfile.t -> (string * entry) list
(** Compile, with guard elision, for every native format registered at
    the console. *)
