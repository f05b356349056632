(** The static component of the security service (§3.2).

    Rewrites incoming applications so every security-relevant operation
    named by the policy's operation map is preceded by a call to the
    client's enforcement manager. Insertion at the bytecode level means
    checks can guard operations the original system designers never
    anticipated — file read being the paper's example.

    With [elide] on (the default), a proxy-side dataflow pass over
    {!Analysis} drops a check when an identical permission check is
    available on every path with no intervening invalidation point
    (monitor instructions), and hoists loop-invariant checks to the
    loop preheader. Resource-aware checks are never elided. *)

type counters = {
  mutable checks_inserted : int;  (** checks physically inserted *)
  mutable checks_elided : int;  (** sites proven redundant and dropped *)
  mutable checks_hoisted : int;  (** preheader checks added by hoisting *)
  mutable methods_instrumented : int;
}

val fresh_counters : unit -> counters

val protected_sites :
  Policy.t ->
  Bytecode.Cp.t ->
  Bytecode.Classfile.code ->
  (int * string * bool) list
(** Call sites the operation map covers:
    [(index, permission, with_resource)]. *)

val rewrite_class :
  ?counters:counters ->
  ?elide:bool ->
  ?certs:Analysis.Certificate.store ->
  Policy.t ->
  Bytecode.Classfile.t ->
  Bytecode.Classfile.t
(** With [certs], every elided or hoisted check deposits an elision
    certificate (in rewritten-code coordinates) into the store, keyed
    by class name, for the {!Certifier} gate to re-prove. *)

val filter :
  ?counters:counters ->
  ?elide:bool ->
  ?certs:Analysis.Certificate.store ->
  Policy.t ->
  Rewrite.Filter.t
