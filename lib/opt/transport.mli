(** Code-transport modes (§5).

    Measures the three granularities of mobile-code transfer over a
    real first-use profile: whole archive, lazy class loading, and
    method-granularity repartitioning — including the paper's headline
    observation that lazy class loading still transfers 10–30 % of
    code that is never invoked. *)

type mode = Whole_archive | Lazy_class | Repartitioned

val bytes_transferred :
  mode -> First_use.profile -> Bytecode.Classfile.t list -> int

val never_invoked_fraction :
  First_use.profile -> Bytecode.Classfile.t list -> float
(** Share of code transferred under lazy class loading that the
    profile never invoked. *)
