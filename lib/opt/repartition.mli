(** The repartitioning service (§5).

    Splits application classes at method granularity: a cold method's
    body moves verbatim into a satellite class [<C>$cold] as a static
    method whose descriptor gains the receiver as first parameter; the
    original method becomes a forwarding stub, preserving virtual
    dispatch and the public interface. Lazy class loading fetches the
    satellite only on first use; neither clients nor origin servers
    need modification. *)

type result = {
  hot : Bytecode.Classfile.t;
  cold : Bytecode.Classfile.t option;
  moved : int;
  hot_bytes : int;
  cold_bytes : int;
}

val split : First_use.profile -> Bytecode.Classfile.t -> result

val split_app :
  First_use.profile ->
  Bytecode.Classfile.t list ->
  Bytecode.Classfile.t list * result list
