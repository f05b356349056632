(** Certified rewriting, end to end: rewrite the bundled workloads
    with certificate emission on, round-trip through encode/decode,
    and re-prove every elision with the translation validator. The
    mutation harness corrupts rewriter output in targeted ways and
    measures whether the verifier or the certifier kills each
    mutant. *)

val covering_policy : Workloads.Appgen.app -> Security.Policy.t
(** One per-app permission over every worker class — the policy the
    elision bench and the certification sweep share. *)

val gate :
  policy:Security.Policy.t ->
  certs:Analysis.Certificate.store ->
  Bytecode.Classfile.t ->
  string option
(** Post-rewrite certification: re-proves the transformed class
    against its certificate from the store the rewriter filled; [Some
    reason] refuses it. A pipeline runs it as a filter after the
    security rewriter. *)

type report = {
  rp_apps : int;
  rp_classes : int;
  rp_methods : int;
  rp_sites : int;  (** protected resource-use instructions validated *)
  rp_live : int;  (** guarded by an adjacent live check *)
  rp_certified : int;  (** accepted via a re-proved certificate *)
  rp_hoists : int;  (** hoist certificates re-proved *)
  rp_cert_entries : int;  (** certificate entries emitted *)
  rp_elided : int;  (** checks the rewriter elided or hoisted away *)
  rp_failures : (string * string) list;  (** class, reason *)
}

val report_json : report -> string
(** The counts as one JSON object (pinned in [BENCH_certify.json]). *)

val report_text : report -> string
(** The counts, then one ["  FAIL <class>: <reason>"] line per
    failure. *)

val certify_workloads : ?small:bool -> unit -> report
(** Rewrite + certify every class of every bundled workload
    ([small:false], the default, uses the full 401-class builds). *)

type kill = Killed_by_verifier | Killed_by_certifier | Survived

type mutation_result = {
  mu_class : string;
  mu_desc : string;  (** operator + location *)
  mu_kill : kill;
}

type mutation_report = {
  mt_seed : int64;
  mt_mutants : int;
  mt_killed_verifier : int;
  mt_killed_certifier : int;
  mt_survivors : mutation_result list;
  mt_results : mutation_result list;
}

val kill_rate : mutation_report -> float

val mutation_json : mutation_report -> string
(** Seed, counts, kill rate and survivors (["<class>: <desc>"],
    escaped with {!Telemetry.Flight.esc}) as one JSON object (pinned
    in [BENCH_certify.json]). *)

val mutation_text : bar:float -> mutation_report -> string
(** The summary line against kill-rate [bar], then one
    ["  survivor: <class>: <desc>"] line per survivor. *)

val mutation_run :
  ?small:bool -> seed:int64 -> count:int -> unit -> mutation_report
(** Up to [count] mutants per class; the mutant set is a pure function
    of [(seed, workload build)]. [small] defaults to [true]. *)
