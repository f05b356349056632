(** The proxy's class cache (§3): rewritten classes are cached so code
    shared between clients is transformed once. LRU over a byte
    budget, kept as an intrusive recency list so find/store/evict are
    all O(1); capacity 0 disables caching. *)

type entry

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable mru : entry option;
  mutable lru : entry option;
  mutable used : int;
  mutable hits : int;
  mutable misses : int;  (** counted on disabled caches too, so hit-ratio
      lines stay comparable between cache-off and cache-on runs *)
  mutable evictions : int;  (** capacity-pressure evictions only *)
  mutable restart_drops : int;  (** entries lost to simulated restarts
      ({!drop_fraction}) — never conflated with [evictions] *)
  mutable oversize_skips : int;  (** stores skipped because the entry
      exceeds the whole capacity *)
  mutable stale_drops : int;  (** versioned lookups that hit an entry
      rewritten under another policy version — dropped on sight and
      counted as misses ([cache.stale_drops]) *)
  mutable invalidations : int;  (** explicit {!remove}s, the control
      plane's revocation path ([cache.invalidations]) *)
}

val create : capacity:int -> t

val find : ?version:int -> t -> string -> string option
(** [version] is the policy version the caller will serve under;
    0 (the default) means unversioned and matches any entry, as does
    an entry stored unversioned. A genuine mismatch is treated as a
    miss {e and} drops the stale entry, so bytes rewritten under a
    revoked policy cannot be resurrected by a later lookup. *)

val store : ?version:int -> t -> string -> string -> unit
(** Stamp the entry with the policy version it was rewritten under
    (0 = unversioned). *)

val remove : t -> string -> bool
(** Explicit invalidation of one key; [true] if it was present.
    Counted in [invalidations], never in [evictions]. *)

val mem : ?version:int -> t -> string -> bool
(** Peek: present in an enabled cache (under a compatible version)?
    Touches neither the recency order nor the hit/miss stats —
    admission control's cost estimate must not perturb what the real
    lookup then records. *)

val size : t -> int

val clear : t -> unit
(** Drop everything — a cold restart. *)

val drop_fraction : t -> fraction:float -> unit
(** Drop the coldest [fraction] of entries (1.0 = everything), as after
    a crash that lost part of the warm state. Counted in
    [restart_drops] / [cache.restart_drops], not [evictions]; occupancy
    gauges are republished once, at the end. *)
