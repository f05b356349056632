(** The audit trail (§3.3).

    Events live on a central administration host, off-limits to
    untrusted applications. Each event seals the digest of its
    predecessor (hash chain), making in-place tampering detectable. *)

type event = {
  ev_seq : int;
  ev_time : int64;
  ev_session : int;
  ev_kind : string;
  ev_detail : string;
  ev_chain : string;
}

type t

val create : ?clock:(unit -> int64) -> unit -> t
(** [clock] supplies event times when [append] is not given one —
    inject the simulation's virtual clock so audit events and
    telemetry spans agree on timestamps. Defaults to a constant 0. *)

val append : ?time:int64 -> t -> session:int -> kind:string -> detail:string -> unit
val events : t -> event list
val verify_chain : t -> bool
val count : t -> int
val filter_kind : t -> string -> event list
(** The events of one kind, oldest first. Only tests read it: besides
    its own ("filter by kind"), five assertions in [test_monitor]
    ("handshake", twice in "audit to console") and [test_proxy]
    ("audit trail", "cache-hit audit timing"). *)

val pp_event : Format.formatter -> event -> unit
