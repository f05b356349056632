(* A sharded proxy farm: N independent proxy nodes behind one facade,
   with class keys spread across the shards by consistent hashing.

   Each shard is a full [Node.t] — its own host, CPU accounting and L1
   cache — so adding shards multiplies pipeline capacity and, more
   importantly for Figure 10, divides the per-client memory load that
   pushes a single proxy past its thrashing knee. Failover walks the
   ring clockwise to the next distinct live shard — exactly the
   preference order consistent hashing gives for free — driven by a
   shard's [Unavailable] reply.

   The ring's virtual nodes do not balance ownership. FNV-1a over the
   labels "shard-%d#%d" puts one shard's 64 points next to each other,
   so each shard holds one or two runs of the ring. Over 100 000 keys
   named like "a17/C123": at 2 shards the shares are 0.91 and 0.09,
   each shard one run; at 4 shards 0.31, 0.09, 0.25 and 0.35; at 8
   shards from 0.04 to 0.23. ROADMAP's "The ring's virtual nodes do
   not spread" item places the points with a mixed hash instead.

   Determinism: ownership is a pure function of (key, shard count,
   vnodes), dispatch does no random choice and touches no hash-table
   iteration order, so the same seed yields the same event trace; and
   because the pipeline is pure, the bytes a class rewrites to are
   identical no matter which shard served it. *)

type t = {
  engine : Simnet.Engine.t;
  shards : Node.t array;
  ring : (int * int) array; (* (point, shard index), sorted by point *)
  prefs : int list array;
  (* per ring slot: the distinct shards met walking clockwise from it *)
  breakers : Breaker.t array; (* per-shard circuit breaker, ruling routing *)
  mutable requests : int;
  mutable failovers : int; (* requests served by a non-owner shard *)
  mutable unavailable : int; (* requests no shard could serve *)
  mutable overloaded : int; (* requests a shard shed at admission *)
  mutable breaker_skips : int; (* dispatch candidates skipped open-breaker *)
}

(* FNV-1a, 64-bit. Cheap, seedless, and stable across runs — unlike
   [Hashtbl.hash] no randomization flag can perturb it. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash_key (s : string) : int =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  (* Keep it a nonnegative OCaml int: drop the top two bits. *)
  Int64.to_int (Int64.shift_right_logical !h 2)

let create ?(vnodes = 64) engine shards =
  if Array.length shards = 0 then invalid_arg "Farm.create: empty shard pool";
  if vnodes <= 0 then invalid_arg "Farm.create: vnodes must be positive";
  let n = Array.length shards in
  let ring =
    Array.init (n * vnodes) (fun i ->
        let shard = i / vnodes and v = i mod vnodes in
        (hash_key (Printf.sprintf "shard-%d#%d" shard v), shard))
  in
  Array.sort compare ring;
  (* Each slot's failover order, walked once here: the distinct shards
     clockwise from the slot, stopping once every shard has been seen. *)
  let slots = Array.length ring in
  let prefs =
    Array.init slots (fun start ->
        let seen = Array.make n false in
        let order = ref [] and found = ref 0 and i = ref 0 in
        while !found < n do
          let s = snd ring.((start + !i) mod slots) in
          if not seen.(s) then begin
            seen.(s) <- true;
            order := s :: !order;
            incr found
          end;
          incr i
        done;
        List.rev !order)
  in
  {
    engine;
    shards;
    ring;
    prefs;
    breakers = Array.init n (fun _ -> Breaker.create ());
    requests = 0;
    failovers = 0;
    unavailable = 0;
    overloaded = 0;
    breaker_skips = 0;
  }

(* Index of the first ring slot at or clockwise-after the key's point. *)
let ring_position t key =
  let h = hash_key key in
  let n = Array.length t.ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.ring.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let owner t key = snd t.ring.(ring_position t key)

(* Distinct shards in ring order starting at the key's owner — the
   failover preference order for that key. *)
let preference_order t key = t.prefs.(ring_position t key)

let breaker t i = t.breakers.(i)

(* Farm-wide aggregates over the per-shard counters. *)
let sum f t = Array.fold_left (fun acc s -> acc + f s) 0 t.shards
let pipeline_runs t = sum (fun s -> s.Node.pipeline_runs) t
let coalesced t = sum (fun s -> s.Node.coalesced) t
let l2_hits t = sum (fun s -> s.Node.l2_hits) t

(* Drop the first [n] elements (shorter than the list). *)
let rec drop n = function
  | rest when n <= 0 -> rest
  | [] -> []
  | _ :: rest -> drop (n - 1) rest

(* The edge's name in distributed traces — the routing tier is one
   logical hop in front of the shards. *)
let edge = "edge"

let request ?deadline ?(offset = 0) ?(trace = Telemetry.Trace.none) t ~cls k =
  t.requests <- t.requests + 1;
  let sp =
    if not (Telemetry.Trace.live trace) then Telemetry.Trace.null_span
    else
      Telemetry.Trace.start trace ~node:edge
        ~args:
          (("class", cls)
          :: (if offset > 0 then [ ("hedge_offset", string_of_int offset) ]
              else []))
        "farm.route"
  in
  let tctx = Telemetry.Trace.ctx_of sp in
  let k reply =
    Telemetry.Trace.finish sp;
    k reply
  in
  (* A breaker trip is a routing decision worth explaining: attach it
     to the request whose failure tipped the window. *)
  let record_failure_traced ~shard b ~now ~why =
    let before = Breaker.trips b in
    Breaker.record_failure b ~now;
    if Breaker.trips b > before then
      Telemetry.Trace.event tctx ~node:edge ~kind:"breaker.trip"
        (Printf.sprintf "shard %d breaker opened (%s)" shard why)
  in
  (* Walk the key's preference order; a shard whose breaker is open is
     skipped without even probing its host, a shard down at dispatch
     (or replying [Unavailable]: crashed in flight, or fenced) feeds its
     breaker a failure and hands the request to the next distinct live
     shard on the ring. [offset] starts the walk [offset] places past
     the owner — how a hedged request targets the next shard in ring
     order without re-deriving the ring. An [Overloaded] reply
     propagates to the caller with {e no} failover and no breaker
     failure: shedding is the shard protecting itself, and bouncing
     the same work to its neighbours would amplify the overload. *)
  let rec dispatch ~first = function
    | [] ->
      t.unavailable <- t.unavailable + 1;
      Telemetry.Global.incr "farm.unavailable";
      Telemetry.Trace.event tctx ~node:edge ~kind:"farm.unavailable"
        (Printf.sprintf "class %s: no live shard on the ring" cls);
      Simnet.Engine.schedule t.engine ~delay:0L (fun () -> k Node.Unavailable)
    | s :: rest ->
      let p = t.shards.(s) in
      let b = t.breakers.(s) in
      if not (Breaker.allow b ~now:(Simnet.Engine.now t.engine)) then begin
        t.breaker_skips <- t.breaker_skips + 1;
        Telemetry.Global.incr "farm.breaker_skips";
        Telemetry.Trace.event tctx ~node:edge ~kind:"farm.breaker_skip"
          (Printf.sprintf "shard %d skipped: breaker open" s);
        dispatch ~first rest
      end
      else if not (Simnet.Host.is_up p.Node.host) then begin
        record_failure_traced ~shard:s b
          ~now:(Simnet.Engine.now t.engine)
          ~why:"down at dispatch";
        dispatch ~first:false rest
      end
      else begin
        if not first then begin
          t.failovers <- t.failovers + 1;
          Telemetry.Global.incr "farm.failovers";
          Telemetry.Trace.event tctx ~node:edge ~kind:"farm.failover"
            (Printf.sprintf "class %s rerouted to shard %d" cls s)
        end;
        Node.request p ?deadline ~trace:tctx ~cls (fun reply ->
            match reply with
            | Node.Unavailable ->
              record_failure_traced ~shard:s b
                ~now:(Simnet.Engine.now t.engine)
                ~why:"crashed in flight";
              dispatch ~first:false rest
            | Node.Bytes _ | Node.Not_found ->
              Breaker.record_success b ~now:(Simnet.Engine.now t.engine);
              k reply
            | Node.Overloaded ->
              t.overloaded <- t.overloaded + 1;
              k reply)
      end
  in
  dispatch ~first:(offset = 0) (drop offset (preference_order t cls))
