(* A sharded proxy farm: N independent proxy nodes behind one facade,
   with class keys spread across the shards by consistent hashing.

   Each shard is a full [Node.t] — its own host, CPU accounting and L1
   cache — so adding shards multiplies pipeline capacity and, more
   importantly for Figure 10, divides the per-client memory load that
   pushes a single proxy past its thrashing knee. Failover walks the
   ring clockwise to the next distinct live shard — exactly the
   preference order consistent hashing gives for free — driven by a
   shard's [Unavailable] reply.

   This module is the edge's simnet shell. The walk, the breakers and
   the failover decisions are [Fetch_core]'s; this module owns the
   ring, the shards, the counters, the routing spans and reason
   events, and performs each step's effects in the order the core
   returned them. A bare [request] is answered to its caller; the
   client session routes its attempts through [route] instead, so one
   step carries a shard's reply through the edge and on into the
   fetch, and the edge hands the session the effects that are not its
   own.

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

module F = Fetch_core

type t = {
  engine : Simnet.Engine.t;
  shards : Node.t array;
  ring : (int * int) array; (* (point, shard index), sorted by point *)
  prefs : int list array;
  (* per ring slot: the distinct shards met walking clockwise from it *)
  breakers : F.Breaker.t array; (* per-shard circuit breaker, ruling routing *)
  up : int -> bool; (* is the shard's host up? what the core reads *)
  mutable requests : int;
  mutable failovers : int; (* requests served by a non-owner shard *)
  mutable unavailable : int; (* requests no shard could serve *)
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
    breakers = Array.init n (fun _ -> F.Breaker.create ());
    up = (fun s -> Simnet.Host.is_up shards.(s).Node.host);
    requests = 0;
    failovers = 0;
    unavailable = 0;
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

(* Farm-wide aggregates over the per-shard counters. *)
let sum f t = Array.fold_left (fun acc s -> acc + f s) 0 t.shards
let pipeline_runs t = sum (fun s -> s.Node.pipeline_runs) t
let coalesced t = sum (fun s -> s.Node.coalesced) t
let l2_hits t = sum (fun s -> s.Node.l2_hits) t

(* The edge's name in distributed traces — the routing tier is one
   logical hop in front of the shards. *)
let edge_node = "edge"

(* One request at the edge as its shell's closures see it: the class
   and deadline it reached the edge with, its routing span, the core's
   attempt, and whoever routed it with the function that performs the
   effects that are not the edge's. *)
type 'o route = {
  farm : t;
  cls : string;
  deadline : int64 option;
  span : Telemetry.Trace.span;
  ctx : Telemetry.Trace.ctx;
  attempt : F.attempt;
  owner : 'o;
  perform : 'o -> F.output -> unit;
}

let rec resume r input =
  perform r
    (F.step r.farm.breakers ~now:(Simnet.Engine.now r.farm.engine) ~up:r.farm.up
       input)

and perform r = function
  | [] -> ()
  | out :: rest ->
    edge r out;
    perform r rest

(* The edge's effects: counters and reason events, the call to a shard,
   the hop when no shard is live, closing the routing span on the
   answer. Every other effect, the answer included, is the owner's. *)
and edge r = function
  | F.Skip s ->
    r.farm.breaker_skips <- r.farm.breaker_skips + 1;
    Telemetry.Global.incr "farm.breaker_skips";
    Telemetry.Trace.event r.ctx ~node:edge_node ~kind:"farm.breaker_skip"
      (Printf.sprintf "shard %d skipped: breaker open" s)
  | F.Trip (s, why) ->
    (* A breaker trip is a routing decision worth explaining: attach it
       to the request whose failure tipped the window. *)
    Telemetry.Trace.event r.ctx ~node:edge_node ~kind:"breaker.trip"
      (Printf.sprintf "shard %d breaker opened (%s)" s why)
  | F.Failover s ->
    r.farm.failovers <- r.farm.failovers + 1;
    Telemetry.Global.incr "farm.failovers";
    Telemetry.Trace.event r.ctx ~node:edge_node ~kind:"farm.failover"
      (Printf.sprintf "class %s rerouted to shard %d" r.cls s)
  | F.Send s ->
    Node.request r.farm.shards.(s) ?deadline:r.deadline ~trace:r.ctx ~cls:r.cls
      (fun reply -> resume r (F.Replied (r.attempt, reply)))
  | F.No_shard ->
    r.farm.unavailable <- r.farm.unavailable + 1;
    Telemetry.Global.incr "farm.unavailable";
    Telemetry.Trace.event r.ctx ~node:edge_node ~kind:"farm.unavailable"
      (Printf.sprintf "class %s: no live shard on the ring" r.cls);
    Simnet.Engine.schedule r.farm.engine ~delay:0L (fun () ->
        resume r (F.Hop r.attempt))
  | F.Answer _ as out ->
    Telemetry.Trace.finish r.span;
    r.perform r.owner out
  | out -> r.perform r.owner out

let route t ~cls ~deadline ~trace attempt perform owner =
  t.requests <- t.requests + 1;
  let span =
    if not (Telemetry.Trace.live trace) then Telemetry.Trace.null_span
    else
      Telemetry.Trace.start trace ~node:edge_node
        ~args:
          (("class", cls)
          :: (if attempt.F.hedged then [ ("hedge_offset", "1") ] else []))
        "farm.route"
  in
  let ctx = Telemetry.Trace.ctx_of span in
  resume
    { farm = t; cls; deadline; span; ctx; attempt; owner; perform }
    (F.Route (attempt, preference_order t cls))

(* A bare request's owner is its continuation, which takes the answer. *)
let answer k = function F.Answer reply -> k reply | _ -> ()

let request t ~cls k =
  route t ~cls ~deadline:None ~trace:Telemetry.Trace.none (F.bare ()) answer k
