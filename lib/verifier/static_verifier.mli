(** The static verification service (§3.1).

    Runs phases 1–3 against an environment oracle, collects the
    assumptions the class makes about unknown classes, and rewrites the
    class into {e self-verifying} form: methods with deferred
    assumptions get the guarded Figure-3 prologue invoking
    [dvm/RTVerifier], and class-wide assumptions are checked from an
    injected [<clinit>] prologue. *)

type stats = {
  sv_static_checks : int;  (** checks performed at the server *)
  sv_deferred : int;  (** runtime check calls injected *)
  sv_guarded_methods : int;
}

type outcome =
  | Verified of Bytecode.Classfile.t * stats
  | Rejected of Verror.t list * stats

val verify : oracle:Oracle.t -> Bytecode.Classfile.t -> outcome

(** Accumulated service statistics, as read by the remote
    administration console. *)
type counters = {
  mutable total_static_checks : int;
  mutable total_deferred : int;
  mutable classes_verified : int;
  mutable classes_rejected : int;
}

val fresh_counters : unit -> counters

val filter : ?counters:counters -> oracle:Oracle.t -> unit -> Rewrite.Filter.t
(** The service as a proxy filter; rejection raises
    {!Rewrite.Filter.Rejected}, which the proxy converts into an
    error-propagation class ({!Error_class}). *)
