(** Dominator tree and natural loops over a {!Cfg.t}. *)

type t

val compute : Cfg.t -> t

val idom : t -> int -> int option
(** Immediate dominator of a block; [None] for the entry and for
    unreachable blocks. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b] — does block [a] dominate block [b]? Unreachable
    blocks are dominated by nothing. *)

type loop = {
  header : int;
  latches : int list;
  body : (int, unit) Hashtbl.t;  (** block ids, header included *)
}

val loops : t -> loop list
(** Natural loops grouped by header. Each [(latch, header)] pair is a
    back edge over non-exception edges. *)
