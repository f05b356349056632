(* The proxy's class cache (§3): rewritten classes are cached so code
   shared between clients is transformed once. LRU over a byte budget,
   kept as an intrusive doubly-linked recency list over the hash
   table's entries: find, store and evict are all O(1), so eviction
   storms stay linear instead of the O(n²) a scan-per-eviction
   degrades to. *)

type entry = {
  e_key : string;
  e_bytes : string;
  e_version : int; (* policy version the bytes were rewritten under; 0 = unversioned *)
  mutable e_prev : entry option; (* toward the MRU end *)
  mutable e_next : entry option; (* toward the LRU end *)
}

type t = {
  capacity : int; (* bytes; 0 disables caching *)
  tbl : (string, entry) Hashtbl.t;
  mutable mru : entry option;
  mutable lru : entry option;
  mutable used : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int; (* capacity-pressure evictions only *)
  mutable restart_drops : int; (* warm state lost to simulated restarts *)
  mutable oversize_skips : int; (* stores skipped: entry larger than capacity *)
  mutable stale_drops : int; (* versioned lookups that evicted a stale entry *)
  mutable invalidations : int; (* explicit removes via [remove] *)
}

let create ~capacity =
  {
    capacity;
    tbl = Hashtbl.create 256;
    mru = None;
    lru = None;
    used = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    restart_drops = 0;
    oversize_skips = 0;
    stale_drops = 0;
    invalidations = 0;
  }

let enabled t = t.capacity > 0

let unlink t e =
  (match e.e_prev with Some p -> p.e_next <- e.e_next | None -> t.mru <- e.e_next);
  (match e.e_next with Some n -> n.e_prev <- e.e_prev | None -> t.lru <- e.e_prev);
  e.e_prev <- None;
  e.e_next <- None

let push_mru t e =
  e.e_prev <- None;
  e.e_next <- t.mru;
  (match t.mru with Some m -> m.e_prev <- Some e | None -> t.lru <- Some e);
  t.mru <- Some e

(* Refresh the occupancy gauges wherever the population changes —
   stores, evictions and clears alike. *)
let publish_gauges t =
  if Telemetry.enabled () then begin
    Telemetry.set_gauge "cache.bytes_used" (Int64.of_int t.used);
    Telemetry.set_gauge "cache.entries"
      (Int64.of_int (Hashtbl.length t.tbl))
  end

let detach t e =
  unlink t e;
  Hashtbl.remove t.tbl e.e_key;
  t.used <- t.used - String.length e.e_bytes

(* Version 0 — on either side — means "unversioned, matches anything",
   so the pre-versioning call sites keep their exact behaviour. A real
   mismatch is worse than a miss: the bytes were rewritten under a
   revoked policy, so the entry is dropped on sight rather than left
   to be served by a later unversioned lookup. *)
let version_ok ~version e =
  version = 0 || e.e_version = 0 || e.e_version = version

let find_raw t ~version key =
  match Hashtbl.find_opt t.tbl key with
  | Some e when version_ok ~version e ->
    unlink t e;
    push_mru t e;
    t.hits <- t.hits + 1;
    Some e.e_bytes
  | Some e ->
    detach t e;
    t.stale_drops <- t.stale_drops + 1;
    t.misses <- t.misses + 1;
    if Telemetry.enabled () then Telemetry.incr "cache.stale_drops";
    publish_gauges t;
    None
  | None ->
    t.misses <- t.misses + 1;
    None

let find ?(version = 0) t key =
  if not (enabled t) then begin
    (* A disabled cache still reports the miss: every lookup that would
       have gone to a real cache is one, and counting it keeps hit-ratio
       lines comparable between cache-off and cache-on bench runs. *)
    t.misses <- t.misses + 1;
    if Telemetry.enabled () then Telemetry.incr "cache.misses";
    None
  end
  else if not (Telemetry.enabled ()) then find_raw t ~version key
  else
    Telemetry.with_span ~cat:"cache" ~args:[ ("class", key) ]
      "cache.find" (fun () ->
        match find_raw t ~version key with
        | Some _ as hit ->
          Telemetry.incr "cache.hits";
          hit
        | None ->
          Telemetry.incr "cache.misses";
          None)

(* Detach the LRU entry from the table, without deciding what the
   removal *was* — a capacity eviction and a restart drop are counted
   by their callers. Callers publish gauges when they are done, not
   once per removed entry. *)
let remove_lru t =
  match t.lru with
  | None -> false
  | Some e ->
    detach t e;
    true

(* Explicit invalidation — the control plane's path for revoking one
   class. Distinct from eviction (capacity) and restart drops (crash):
   counted in [invalidations] / [cache.invalidations]. *)
let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> false
  | Some e ->
    detach t e;
    t.invalidations <- t.invalidations + 1;
    if Telemetry.enabled () then Telemetry.incr "cache.invalidations";
    publish_gauges t;
    true

let evict_one t =
  if remove_lru t then begin
    t.evictions <- t.evictions + 1;
    Telemetry.incr "cache.evictions"
  end

let store ?(version = 0) t key bytes =
  if not (enabled t) then ()
  else if String.length bytes > t.capacity then begin
    (* An entry bigger than the whole budget can never be cached;
       count the skip so bench output can tell "cache too small for
       this class" apart from ordinary churn. *)
    t.oversize_skips <- t.oversize_skips + 1;
    if Telemetry.enabled () then Telemetry.incr "cache.oversize_skips"
  end
  else begin
    Option.iter (detach t) (Hashtbl.find_opt t.tbl key);
    while t.used + String.length bytes > t.capacity && Hashtbl.length t.tbl > 0 do
      evict_one t
    done;
    let e =
      { e_key = key; e_bytes = bytes; e_version = version;
        e_prev = None; e_next = None }
    in
    Hashtbl.replace t.tbl key e;
    push_mru t e;
    t.used <- t.used + String.length bytes;
    if Telemetry.enabled () then Telemetry.incr "cache.stores";
    publish_gauges t
  end

(* Peek without touching recency order or hit/miss stats — what
   admission control uses to estimate service cost without polluting
   the numbers the real lookup will record. *)
let mem ?(version = 0) t key =
  enabled t
  &&
  match Hashtbl.find_opt t.tbl key with
  | Some e -> version_ok ~version e
  | None -> false

let size t = Hashtbl.length t.tbl

let clear t =
  Hashtbl.reset t.tbl;
  t.mru <- None;
  t.lru <- None;
  t.used <- 0;
  publish_gauges t

(* Drop the coldest [fraction] of entries — what survives a host
   restart that retains only part of its warm state. A restart loss is
   not capacity pressure: it is counted in [restart_drops] (and the
   [cache.restart_drops] counter), never in [evictions], and the
   occupancy gauges are published once at the end rather than once per
   dropped entry. *)
let drop_fraction t ~fraction =
  let total = Hashtbl.length t.tbl in
  let n =
    if fraction >= 1.0 then total
    else int_of_float (ceil (fraction *. Float.of_int total))
  in
  let dropped = ref 0 in
  for _ = 1 to n do
    if remove_lru t then incr dropped
  done;
  if !dropped > 0 then begin
    t.restart_drops <- t.restart_drops + !dropped;
    if Telemetry.enabled () then
      Telemetry.add "cache.restart_drops" (Int64.of_int !dropped)
  end;
  publish_gauges t
