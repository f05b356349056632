(* A sharded proxy farm: N independent proxy nodes behind one facade,
   with class keys spread across the shards by consistent hashing.

   Each shard is a full [Node.t] — its own host, CPU accounting and L1
   cache — so adding shards multiplies pipeline capacity and, more
   importantly for Figure 10, divides the per-client memory load that
   pushes a single proxy past its thrashing knee. The ring uses
   virtual nodes so key ownership stays balanced at small shard
   counts, and failover walks the ring clockwise to the next distinct
   live shard — exactly the preference order consistent hashing gives
   for free — driven by each node request's [on_fail] hook.

   Determinism: ownership is a pure function of (key, shard count,
   vnodes), dispatch does no random choice and touches no hash-table
   iteration order, so the same seed yields the same event trace; and
   because the pipeline is pure, the bytes a class rewrites to are
   identical no matter which shard served it. *)

type t = {
  engine : Simnet.Engine.t;
  shards : Node.t array;
  ring : (int * int) array; (* (point, shard index), sorted by point *)
  health : bool array; (* last observed per-shard state, for the console *)
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
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  (* Keep it a nonnegative OCaml int: drop the top two bits. *)
  Int64.to_int (Int64.shift_right_logical !h 2)

let default_vnodes = 64

let create ?(vnodes = default_vnodes) ?breaker engine shards =
  if Array.length shards = 0 then invalid_arg "Farm.create: empty shard pool";
  if vnodes <= 0 then invalid_arg "Farm.create: vnodes must be positive";
  let n = Array.length shards in
  let ring =
    Array.init (n * vnodes) (fun i ->
        let shard = i / vnodes and v = i mod vnodes in
        (hash_key (Printf.sprintf "shard-%d#%d" shard v), shard))
  in
  Array.sort compare ring;
  let mk_breaker =
    match breaker with Some f -> f | None -> fun _ -> Breaker.create ()
  in
  {
    engine;
    shards;
    ring;
    health = Array.map (fun s -> Simnet.Host.is_up s.Node.host) shards;
    breakers = Array.init n mk_breaker;
    requests = 0;
    failovers = 0;
    unavailable = 0;
    overloaded = 0;
    breaker_skips = 0;
  }

let size t = Array.length t.shards
let shard t i = t.shards.(i)

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
let preference_order t key =
  let n = Array.length t.ring in
  let start = ring_position t key in
  let seen = Array.make (Array.length t.shards) false in
  let order = ref [] in
  for i = 0 to n - 1 do
    let s = snd t.ring.((start + i) mod n) in
    if not seen.(s) then begin
      seen.(s) <- true;
      order := s :: !order
    end
  done;
  List.rev !order

let health t =
  Array.iteri
    (fun i s -> t.health.(i) <- Simnet.Host.is_up s.Node.host)
    t.shards;
  Array.copy t.health

let breaker t i = t.breakers.(i)

(* Health with hysteresis: each probe feeds the raw host state through
   the shard's breaker and reports what routing will actually do. A
   flapping host (up on one probe, down on the next) flips the raw
   [health] view every time, but after enough windowed failures its
   breaker opens and [probe] holds the shard out — steadily — until the
   cooldown expires and probes prove it stable again. *)
let probe t =
  let now = Simnet.Engine.now t.engine in
  Array.mapi
    (fun i s ->
      let b = t.breakers.(i) in
      match Breaker.state b ~now with
      | Breaker.Open -> false
      | Breaker.Closed | Breaker.Half_open ->
        let up = Simnet.Host.is_up s.Node.host in
        if up then Breaker.record_success b ~now
        else Breaker.record_failure b ~now;
        t.health.(i) <- up;
        up && Breaker.state b ~now <> Breaker.Open)
    t.shards

(* Farm-wide aggregates over the per-shard counters. *)
let sum f t = Array.fold_left (fun acc s -> acc + f s) 0 t.shards
let pipeline_runs t = sum (fun s -> s.Node.pipeline_runs) t
let coalesced t = sum (fun s -> s.Node.coalesced) t
let l2_hits t = sum (fun s -> s.Node.l2_hits) t
let origin_fetches t = sum (fun s -> s.Node.origin_fetches) t
let bytes_served t = sum (fun s -> s.Node.bytes_served) t

let cpu_us t =
  Array.fold_left (fun acc s -> Int64.add acc s.Node.cpu_us) 0L t.shards

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
    Telemetry.Trace.start trace ~node:edge
      ~args:
        (("class", cls)
        :: (if offset > 0 then [ ("hedge_offset", string_of_int offset) ] else []))
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
     (or crashing with the request in flight, via [on_fail]) feeds its
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
        t.health.(s) <- false;
        record_failure_traced ~shard:s b
          ~now:(Simnet.Engine.now t.engine)
          ~why:"down at dispatch";
        dispatch ~first:false rest
      end
      else begin
        t.health.(s) <- true;
        if not first then begin
          t.failovers <- t.failovers + 1;
          Telemetry.Global.incr "farm.failovers";
          Telemetry.Trace.event tctx ~node:edge ~kind:"farm.failover"
            (Printf.sprintf "class %s rerouted to shard %d" cls s)
        end;
        Node.request p ?deadline ~trace:tctx ~cls
          (fun reply ->
            (match reply with
            | Node.Bytes _ | Node.Not_found ->
              Breaker.record_success b ~now:(Simnet.Engine.now t.engine)
            | Node.Overloaded -> t.overloaded <- t.overloaded + 1
            | Node.Unavailable -> ());
            k reply)
          ~on_fail:(fun () ->
            t.health.(s) <- false;
            record_failure_traced ~shard:s b
              ~now:(Simnet.Engine.now t.engine)
              ~why:"crashed in flight";
            dispatch ~first:false rest)
      end
  in
  dispatch ~first:(offset = 0) (drop offset (preference_order t cls))
