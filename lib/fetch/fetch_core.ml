(* The client half of the fetch path as a core: a session's fetches —
   deadline, hedge, retries and brown-out — and the farm edge's ring
   walk, breakers and failover.

   The core knows nothing of the engine, the wire, the shards or the
   client's link. Its state is plain data — no closures, no simnet
   values — so a test can copy and hash it, and it moves only through
   [step]: the caller passes one input (a new fetch, a request reaching
   the edge, a shard's reply, a finished delivery, a fired timer or a
   zero-delay hop) and what it reads off the simulation (now, which
   shards are up); [step] returns that step's effects in order.
   [Dvm.Client.Session] and [Proxy.Farm] are the shells that perform
   them over simnet, and must perform them in the order returned: the
   engine breaks same-time ties by insertion order.

   A fetch carries an absolute deadline (start + budget). Its deadline
   timer settles it at expiry, browning out if it can; a response that
   lands later is dropped, never served. Retries and hedges draw from
   one session-wide token pool: a hedge is a speculative attempt
   against the next shard in ring order, taken when the first attempt
   is slow rather than failed, and the pool caps the extra load one
   session can push onto a struggling farm. The first delivery wins;
   a loser's lands on a settled fetch and is dropped. An [Overloaded]
   reply is retried after a backoff, iff a token is left and the retry
   would still start before the deadline; the queued retry counts as
   one of the fetch's live attempts until it fires, and one that fires
   while another attempt is live is dropped, its token spent. A failed
   attempt settles the fetch only when no other attempt is live, a
   queued retry included. A fetch that fails browns out to the bytes
   last served fresh for its archive key, if any — except on
   [Not_found], which is definitive.

   The edge walks the key's shards in ring order. A shard whose breaker
   is open is skipped without probing its host; a shard down at
   dispatch, or one replying [Unavailable] (crashed in flight, or
   fenced), feeds its breaker a failure and the walk moves on. An
   [Overloaded] reply goes back to the caller with no failover and no
   breaker failure: shedding is the shard protecting itself, and
   bouncing the work to its neighbours would amplify the overload. *)

module Breaker = Breaker

type reply = Serve_core.reply = Bytes of string | Not_found | Unavailable | Overloaded

type served = Fresh of string | Stale of string | Failed

type session = {
  budget_us : int64; (* per-fetch deadline budget *)
  hedge_after_us : int64 option; (* hedge delay; None disables hedging *)
  mutable tokens : int; (* the retry + hedge pool *)
  stale : (string, string) Hashtbl.t; (* archive key -> last fresh bytes *)
}

type fetch = {
  session : session;
  key : string; (* its archive key *)
  deadline : int64; (* absolute *)
  mutable live : int; (* unfailed attempts, a queued retry among them *)
  mutable settled : bool;
}

(* A request at the edge: a fetch's attempt, or a bare request. *)
type attempt = {
  fetch : fetch option; (* None: a bare request, answered to its caller *)
  hedged : bool; (* a hedge starts one place past the owner *)
  mutable rest : int list; (* shards still to try, in ring order *)
  mutable first : bool; (* no shard has failed it, and it is no hedge *)
  mutable at : int; (* the shard it was sent to *)
}

type timer = Deadline | Hedge | Retry

type input =
  | Start of fetch
  | Route of attempt * int list
      (* the request reached the edge; its key's shards in ring order *)
  | Replied of attempt * reply (* from the shard it was sent to *)
  | Delivered of attempt * string (* its bytes crossed the client's link *)
  | Fired of fetch * timer
  | Hop of attempt
      (* after a zero-delay hop, the attempt failed unanswered: no live
         shard, or a name the wire cannot carry *)

type output =
  | Arm of timer * int64 (* a timer for the fetch, after a delay *)
  | Dispatch of attempt (* put it on the wire and route it; a hedged one is a hedge *)
  | Skip of int (* the shard's breaker refused the request *)
  | Trip of int * string (* a failure, and why, opened the shard's breaker *)
  | Failover of int (* the shard it goes to next is not its first choice *)
  | Send of int (* hand it to the shard *)
  | No_shard (* nothing live: a zero-delay hop, then [Hop] *)
  | Answer of reply (* the edge answers its caller *)
  | Shed (* a shard shed the fetch's attempt *)
  | Deliver of attempt * string (* put its bytes on the client's link *)
  | Late (* they landed past the deadline: dropped *)
  | Expired (* the deadline passed *)
  | Won (* the hedge's bytes won the fetch *)
  | Cancel (* the fetch's deadline and hedge timers *)
  | Settle of served

(* The pause before re-sending a shed request. *)
let retry_backoff_us = 50_000L

let session ~budget_us ?hedge_after_us ~tokens () =
  { budget_us; hedge_after_us; tokens; stale = Hashtbl.create 64 }

let fetch session ~key ~now =
  { session; key; deadline = Int64.add now session.budget_us; live = 0; settled = false }

let bare () = { fetch = None; hedged = false; rest = []; first = true; at = -1 }

(* Spend one token; [false] means the pool is dry and the fetch must
   not add load. *)
let take_token s = s.tokens > 0 && (s.tokens <- s.tokens - 1; true)

let attempt f ~hedged =
  f.live <- f.live + 1;
  Dispatch { fetch = Some f; hedged; rest = []; first = not hedged; at = -1 }

let settle f served =
  f.settled <- true;
  [ Cancel; Settle served ]

let brownout f =
  match Hashtbl.find_opt f.session.stale f.key with
  | Some b -> settle f (Stale b)
  | None -> settle f Failed

let one_down f =
  f.live <- f.live - 1;
  if f.live = 0 then brownout f else []

let rec walk breakers ~now ~up a =
  match a.rest with
  | [] -> [ No_shard ]
  | s :: rest ->
    a.rest <- rest;
    if not (Breaker.allow breakers.(s) ~now) then Skip s :: walk breakers ~now ~up a
    else if not (up s) then fail_over breakers ~now ~up a s "down at dispatch"
    else (a.at <- s; if a.first then [ Send s ] else [ Failover s; Send s ])

(* Shard [s] failed [a]: feed its breaker, whose trip is worth
   explaining, and walk on. *)
and fail_over breakers ~now ~up a s why =
  let b = breakers.(s) in
  let trips = Breaker.trips b in
  Breaker.record_failure b ~now;
  a.first <- false;
  let next = walk breakers ~now ~up a in
  if Breaker.trips b > trips then Trip (s, why) :: next else next

(* The edge answers [a]; a fetch's attempt goes on to its fetch. *)
let answer ~now a r =
  match a.fetch with
  | Some f when not f.settled -> (
    Answer r
    ::
    (match r with
    | Bytes b -> [ Deliver (a, b) ]
    | Not_found -> settle f Failed
    | Overloaded ->
      (* Retry after the backoff iff it starts in time and a token is
         left; never fail over sideways. *)
      if Int64.compare (Int64.add now retry_backoff_us) f.deadline < 0 && take_token f.session
      then [ Shed; Arm (Retry, retry_backoff_us) ]
      else Shed :: one_down f
    | Unavailable -> one_down f))
  | Some _ | None -> [ Answer r ]

let step breakers ~now ~up = function
  | Start f ->
    let first = attempt f ~hedged:false in
    Arm (Deadline, f.session.budget_us)
    :: (match f.session.hedge_after_us with None -> [ first ] | Some h -> [ Arm (Hedge, h); first ])
  | Route (a, order) ->
    a.rest <- (match order with _ :: rest when a.hedged -> rest | _ -> order);
    walk breakers ~now ~up a
  | Replied (a, Unavailable) -> fail_over breakers ~now ~up a a.at "crashed in flight"
  | Replied (a, ((Bytes _ | Not_found) as r)) ->
    Breaker.record_success breakers.(a.at) ~now;
    answer ~now a r
  | Replied (a, Overloaded) -> answer ~now a Overloaded
  | Delivered ({ fetch = Some f; hedged; _ }, b) when not f.settled ->
    if Int64.compare now f.deadline > 0 then (f.live <- f.live - 1; [ Late ])
    else begin
      Hashtbl.replace f.session.stale f.key b;
      if hedged then Won :: settle f (Fresh b) else settle f (Fresh b)
    end
  | Delivered _ -> []
  | Fired (f, _) when f.settled -> []
  | Fired (f, Deadline) -> Expired :: brownout f
  | Fired (f, Hedge) ->
    if take_token f.session then [ attempt f ~hedged:true ] else []
  | Fired (f, Retry) ->
    (* The retry stops counting as live; if another attempt still is,
       don't stack a third copy of the work on the farm. *)
    f.live <- f.live - 1;
    if f.live > 0 then [] else [ attempt f ~hedged:false ]
  | Hop a -> answer ~now a Unavailable
