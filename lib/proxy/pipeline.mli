(** The static-service pipeline (Figure 2).

    Code flows through a stack of independent code-transformation
    filters; parsing and generation happen once for all services. A
    rejection anywhere becomes an error-propagation replacement class,
    so failures reach clients as ordinary Java exceptions. *)

type outcome = {
  out_bytes : string;
  out_version : int;
      (** security-policy version the class was rewritten under
          (stamped onto every cache/L2 entry); 0 = unversioned *)
  rejected : (string * string) option;  (** (filter, reason) *)
  parse_cost : int64;  (** µs of proxy CPU *)
  transform_cost : int64;
  generate_cost : int64;
  parses : int;
}

val total_cost : outcome -> int64

val digest : outcome -> string
(** MD5 of [out_bytes] — the pipeline is pure, so the same input class
    digests identically no matter which proxy shard ran it. *)

(** Host-CPU memoization of pipeline outcomes.

    The pipeline is a pure function of its input, so load experiments
    that push the same class bytes through the same stack thousands of
    times (chaos and scaling runs disable the simulated cache on
    purpose) can reuse the first outcome. A hit replays the first
    run's telemetry tape — identical counters, histogram observations
    and span structure, under the ambient trace scope — and returns
    the shared outcome, so simulated costs, served bytes and pinned
    digests are byte-identical to real re-runs; only host wall-clock
    changes.

    Opt-in per call site: a stack is memo-safe only when its filters
    are effect-free apart from telemetry. The memo pins itself to the
    first (filters, signer) pair it serves and falls back to real runs
    for any other, so one memo can be shared across a proxy pool the
    way the shared L2 cache is. *)
module Memo : sig
  type t

  val create : unit -> t
  (** Holds at most 1024 inputs; past that, new inputs run uncached. *)

  val hits : t -> int
  val misses : t -> int
end

val run :
  ?policy_version:int ->
  ?memo:Memo.t ->
  ?signer:Dsig.Sign.key ->
  Rewrite.Filter.t list ->
  string ->
  outcome
(** With [signer], every class returned is signed, §3.1 replacements
    included — whether decode, a filter or encoding refused the input.
    A memo pins itself to the first (filters, signer) pair it serves —
    both compared physically — and falls back to real runs for any
    other. [policy_version] (default 0 = unversioned) is stamped into
    [out_version] and keys the memo alongside the input bytes, so
    outcomes computed under different policy versions never alias.
    A caller that certifies appends the certifier
    ([Dvm.Certification.gate]) as a filter, whose rejection is any
    filter's. *)

val run_parse_per_service : Rewrite.Filter.t list -> string -> outcome
(** Ablation: re-parse and re-generate between every pair of services
    — one single-filter {!run} pass per service (unversioned, unsigned,
    unmemoized), stopping at the first rejection. Same output as
    {!run}, costs summed over the passes; [parses] counts them. *)
