(* An explicit-state model checker for the client half of the fetch
   path ([Fetch_core]), driven with fake shards and a fake clock
   instead of simnet: one session with hedging on and a small token
   pool, and a farm edge of two shards, each behind a real [Breaker].
   It explores every interleaving of at most two fetches (for two
   classes that share one archive key), any of the four replies from
   any outstanding dispatch, deliveries that land or are lost, timers
   and hops firing in due order, and one shard going down and coming
   back, skipping states it has already seen, and checks seven session
   and edge rules at every state. The search is [Explore]'s, shared
   with [test_control] and [test_serve]. *)

module F = Fetch_core

(* Two classes, each with its own ring order over the two shards; both
   brown out to the one archive key. *)
let names = [| "a/1"; "a/2" |]
let order = [| [ 0; 1 ]; [ 1; 0 ] |]
let key = "a"
let pool = 2 (* the session's retry + hedge tokens *)

type fetch = {
  f : F.fetch;
  name : int;
  mutable outcomes : F.served list; (* newest first *)
  mutable missing : bool; (* a shard reported the class missing *)
}

type attempt = {
  a : F.attempt;
  fi : int; (* its fetch *)
  mutable visited : int list; (* shards it was sent to *)
  mutable refused : int list; (* shards whose breaker refused it *)
}

(* Timers and hops the shells would have queued, fired in (due, seq)
   order as the engine fires them. *)
type due = Timer of int * F.timer (* fetch, timer *) | Hop of int (* attempt *)

type world = {
  breakers : F.Breaker.t array;
  session : F.session;
  mutable now : int64;
  mutable seq : int;
  mutable fetches : fetch array;
  quota : int; (* the most fetches a schedule starts *)
  mutable attempts : attempt array;
  mutable sent : (int * int) list; (* attempt, shard: awaiting its reply *)
  mutable lan : (int * string) list; (* attempt, bytes: on the client's link *)
  mutable dues : (int64 * int * due) list; (* sorted *)
  up : bool array;
  mutable downs : int; (* shard crashes left in the budget *)
  mutable ups : int; (* restarts left *)
  mutable spent : int; (* hedges and retries started *)
  mutable archive : string option; (* the last fresh bytes served for [key] *)
  mutable broke : string option; (* a rule a step broke in passing *)
}

type kind = Serve | Missing | Gone | Shed

type action =
  | Start (* the next fetch *)
  | Reply of int * kind (* the i-th outstanding dispatch *)
  | Land of int (* the i-th delivery *)
  | Lose of int
  | Tick (* the earliest timer or hop *)
  | Down of int
  | Up of int

(* The worlds are plain data, so a copy is a marshalling round trip. *)
let copy (w : world) : world = Marshal.from_string (Marshal.to_string w []) 0

let notes = ref []
let note who kind = notes := Printf.sprintf "%s %s" who kind :: !notes

let break w fmt =
  Printf.ksprintf (fun m -> if w.broke = None then w.broke <- Some m) fmt

let outstanding w ai =
  List.exists (fun (j, _) -> j = ai) w.sent
  || List.exists (fun (j, _) -> j = ai) w.lan
  || List.exists (function _, _, Hop j -> j = ai | _ -> false) w.dues

let live_attempts w fi =
  List.filter
    (fun ai -> w.attempts.(ai).fi = fi && outstanding w ai)
    (List.init (Array.length w.attempts) Fun.id)

let retry_queued w fi =
  List.exists (function _, _, Timer (j, F.Retry) -> j = fi | _ -> false) w.dues

let schedule w delay due =
  w.dues <- List.sort compare ((Int64.add w.now delay, w.seq, due) :: w.dues);
  w.seq <- w.seq + 1

let rec step w ~fi ~ai input =
  let outs = F.step w.breakers ~now:w.now ~up:(fun s -> w.up.(s)) input in
  List.iter (effect w ~fi ~ai input) outs;
  outs

and effect w ~fi ~ai input out =
  let who = Printf.sprintf "f%d" fi in
  match out with
  | F.Arm (timer, delay) ->
    if timer = F.Retry then begin
      w.spent <- w.spent + 1;
      note who "client.retry"
    end;
    schedule w delay (Timer (fi, timer))
  | F.Dispatch a ->
    if a.F.hedged then begin
      w.spent <- w.spent + 1;
      note who "client.hedge"
    end;
    (match input with
    | F.Fired (_, F.Retry) when live_attempts w fi <> [] ->
      break w "%s's retry started while another attempt is live" who
    | _ -> ());
    let ai = Array.length w.attempts in
    w.attempts <- Array.append w.attempts [| { a; fi; visited = []; refused = [] } |];
    ignore (step w ~fi ~ai (F.Route (a, order.(w.fetches.(fi).name))) : F.output list)
  | F.Skip s ->
    note who "farm.breaker_skip";
    w.attempts.(ai).refused <- s :: w.attempts.(ai).refused
  | F.Trip _ -> note who "breaker.trip"
  | F.Failover _ -> note who "farm.failover"
  | F.Send s ->
    let at = w.attempts.(ai) in
    if List.mem s at.refused then break w "a%d sent to s%d, whose breaker refused it" ai s;
    if List.mem s at.visited then break w "a%d sent to s%d twice" ai s;
    at.visited <- s :: at.visited;
    w.sent <- w.sent @ [ (ai, s) ]
  | F.No_shard ->
    note who "farm.unavailable";
    schedule w 0L (Hop ai)
  | F.Answer _ -> ()
  | F.Shed -> note who "client.shed"
  | F.Deliver (_, b) -> w.lan <- w.lan @ [ (ai, b) ]
  | F.Late -> note who "client.late"
  | F.Expired -> note who "client.deadline_expired"
  | F.Won -> note who "client.hedge_win"
  | F.Cancel ->
    w.dues <-
      List.filter
        (function _, _, Timer (j, (F.Deadline | F.Hedge)) -> j <> fi | _ -> true)
        w.dues
  | F.Settle served -> settle w ~fi input served

and settle w ~fi input served =
  let fc = w.fetches.(fi) in
  if fc.outcomes <> [] then break w "f%d settled twice" fi;
  fc.outcomes <- served :: fc.outcomes;
  (match served with
  | F.Fresh b ->
    if Int64.compare w.now fc.f.F.deadline > 0 then
      break w "f%d served fresh at %Ld, past its deadline %Ld" fi w.now fc.f.F.deadline;
    w.archive <- Some b;
    if Hashtbl.find_opt w.session.F.stale key <> Some b then
      break w "f%d's fresh serve left the archive without its bytes" fi
  | F.Stale b ->
    note (Printf.sprintf "f%d" fi) "client.serve_stale";
    if w.archive <> Some b then break w "f%d browned out to %s, not the archive's bytes" fi b
  | F.Failed ->
    if w.archive <> None && not fc.missing then
      break w "f%d failed while the archive held bytes for it" fi);
  (* 1. a failing racer never settles the fetch while its retry is
     queued; [Not_found] is definitive *)
  match (input, served) with
  | F.Replied (_, F.Not_found), _ -> ()
  | (F.Replied _ | F.Hop _), (F.Stale _ | F.Failed) when retry_queued w fi ->
    break w "f%d settled by a failing racer while its retry was queued" fi
  | _ -> ()

let remove i l = List.filteri (fun j _ -> j <> i) l

let act w = function
  | Start ->
    let fi = Array.length w.fetches in
    let f = F.fetch w.session ~key ~now:w.now in
    w.fetches <- Array.append w.fetches [| { f; name = fi; outcomes = []; missing = false } |];
    ignore (step w ~fi ~ai:(-1) (F.Start f) : F.output list);
    Printf.sprintf "f%d: fetch %s" fi names.(fi)
  | Reply (i, kind) ->
    let ai, s = List.nth w.sent i in
    w.sent <- remove i w.sent;
    let at = w.attempts.(ai) in
    let fc = w.fetches.(at.fi) in
    let reply =
      match kind with
      | Serve -> F.Bytes names.(fc.name)
      | Missing -> fc.missing <- true; F.Not_found
      | Gone -> F.Unavailable
      | Shed -> F.Overloaded
    in
    let breakers = Marshal.to_string w.breakers [] in
    let outs = step w ~fi:at.fi ~ai (F.Replied (at.a, reply)) in
    (* An [Overloaded] reply never fails over and feeds no breaker. *)
    if kind = Shed then begin
      if
        List.exists
          (function F.Skip _ | F.Trip _ | F.Failover _ | F.Send _ | F.No_shard -> true | _ -> false)
          outs
      then break w "a%d failed over on an Overloaded reply" ai;
      if Marshal.to_string w.breakers [] <> breakers then
        break w "a%d's Overloaded reply fed s%d's breaker" ai s
    end;
    Printf.sprintf "s%d replies %s to a%d"
      s (match kind with Serve -> "bytes" | Missing -> "not found" | Gone -> "unavailable" | Shed -> "overloaded") ai
  | Land i ->
    let ai, b = List.nth w.lan i in
    w.lan <- remove i w.lan;
    let at = w.attempts.(ai) in
    ignore (step w ~fi:at.fi ~ai (F.Delivered (at.a, b)) : F.output list);
    Printf.sprintf "a%d's bytes land" ai
  | Lose i ->
    let ai, _ = List.nth w.lan i in
    w.lan <- remove i w.lan;
    Printf.sprintf "a%d's bytes are lost" ai
  | Tick -> (
    match w.dues with
    | [] -> assert false
    | (at, _, due) :: rest ->
      w.dues <- rest;
      w.now <- at;
      match due with
      | Timer (fi, timer) ->
        let fc = w.fetches.(fi) and attempts = Array.length w.attempts in
        ignore (step w ~fi ~ai:(-1) (F.Fired (fc.f, timer)) : F.output list);
        if timer = F.Retry && fc.outcomes = [] && Array.length w.attempts = attempts then
          note (Printf.sprintf "f%d" fi) "client.retry_dropped";
        Printf.sprintf "f%d's %s timer fires" fi
          (match timer with F.Deadline -> "deadline" | F.Hedge -> "hedge" | F.Retry -> "retry")
      | Hop ai ->
        let at' = w.attempts.(ai) in
        ignore (step w ~fi:at'.fi ~ai (F.Hop at'.a) : F.output list);
        Printf.sprintf "a%d's hop ends" ai)
  | Down s ->
    w.up.(s) <- false;
    w.downs <- w.downs - 1;
    Printf.sprintf "s%d goes down" s
  | Up s ->
    w.up.(s) <- true;
    w.ups <- w.ups - 1;
    Printf.sprintf "s%d comes back" s

let perform w a =
  notes := [];
  let w = copy w in
  let label = act w a in
  (w, label, List.rev !notes)

let actions w =
  let shards = [ 0; 1 ] in
  List.concat
    [
      (if Array.length w.fetches < w.quota then [ Start ] else []);
      List.concat
        (List.mapi
           (fun i (_, s) ->
             if w.up.(s) then [ Reply (i, Serve); Reply (i, Missing); Reply (i, Gone); Reply (i, Shed) ]
             else [ Reply (i, Gone) ])
           w.sent);
      List.concat (List.mapi (fun i _ -> [ Land i; Lose i ]) w.lan);
      (if w.dues <> [] then [ Tick ] else []);
      (if w.downs > 0 then List.filter_map (fun s -> if w.up.(s) then Some (Down s) else None) shards
       else []);
      (if w.ups > 0 then List.filter_map (fun s -> if w.up.(s) then None else Some (Up s)) shards
       else []);
    ]

(* The fault-free order: deliveries land, shards serve, the next fetch
   starts, and only then does a timer fire. *)
let default w =
  if w.lan <> [] then Some (Land 0)
  else if w.sent <> [] then Some (Reply (0, Serve))
  else if Array.length w.fetches < w.quota then Some Start
  else if w.dues <> [] then Some Tick
  else None

(* --- the seven rules --- *)

let violation w =
  let some fmt = Printf.ksprintf Option.some fmt in
  let fetches = List.init (Array.length w.fetches) Fun.id in
  let timer fi t = List.exists (function _, _, Timer (j, t') -> j = fi && t' = t | _ -> false) w.dues in
  List.find_map
    (fun check -> check ())
    [
      (* 1, 2, 5's retry half, 6 and 7 are checked as each step runs *)
      (fun () -> w.broke);
      (* 1. once nothing of a fetch is outstanding, it has settled *)
      (fun () ->
        List.find_map
          (fun fi ->
            if
              w.fetches.(fi).outcomes = []
              && live_attempts w fi = []
              && not (timer fi F.Deadline || timer fi F.Hedge || retry_queued w fi)
            then some "f%d never settled" fi
            else None)
          fetches);
      (* 3. hedges plus retries never exceed the token pool *)
      (fun () ->
        if w.spent > pool then some "%d hedges and retries from a pool of %d" w.spent pool
        else None);
      (* 4. a settled fetch holds no armed deadline or hedge timer *)
      (fun () ->
        List.find_map
          (fun fi ->
            if w.fetches.(fi).outcomes <> [] && (timer fi F.Deadline || timer fi F.Hedge) then
              some "f%d settled with a timer armed" fi
            else None)
          fetches);
      (* 5. at most two attempts of one fetch are outstanding *)
      (fun () ->
        List.find_map
          (fun fi ->
            let n = List.length (live_attempts w fi) in
            if n > 2 then some "f%d has %d attempts outstanding" fi n else None)
          fetches);
    ]

(* Two worlds are one state when they agree on everything the rules
   and the core will read: a settled fetch only by its outcome, an
   attempt only while something of it is outstanding (renumbered in
   order), the queue's insertion numbers only by their order. *)
let fingerprint w =
  let live = List.filter (outstanding w) (List.init (Array.length w.attempts) Fun.id) in
  let rank ai = List.length (List.filter (fun j -> j < ai) live) in
  let stale = List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) w.session.F.stale []) in
  Digest.string
    (Marshal.to_string
       ( ( w.breakers,
           w.session.F.tokens,
           stale,
           Array.map
             (fun fc ->
               if fc.outcomes <> [] then (0L, 0, fc.outcomes, false)
               else (fc.f.F.deadline, fc.f.F.live, fc.outcomes, fc.missing))
             w.fetches,
           List.map
             (fun ai ->
               let at = w.attempts.(ai) in
               (at.a.F.hedged, at.a.F.rest, at.a.F.first, at.a.F.at, at.fi, at.visited, at.refused))
             live ),
         ( List.map (fun (ai, s) -> (rank ai, s)) w.sent,
           List.map (fun (ai, b) -> (rank ai, b)) w.lan,
           List.mapi
             (fun i (at, _, d) -> (at, i, match d with Hop ai -> Hop (rank ai) | Timer _ -> d))
             w.dues ),
         (w.now, w.up, w.downs, w.ups, w.spent, w.archive, w.broke) )
       [ Marshal.No_sharing ])

module S = Explore.Make (struct
  type nonrec world = world
  type nonrec action = action

  let actions = actions
  let default = default
  let perform = perform
  let violation = violation
  let fingerprint = fingerprint
  let now w = w.now
end)

(* The session's budget outlasts two 50 ms retry backoffs; the hedge
   fires after 30 ms; a breaker trips on one failure and cools down in
   40 ms, so a search reaches skips and half-open probes. *)
let start ?(fetches = 2) () =
  {
    breakers = Array.init 2 (fun _ -> F.Breaker.create ~fail_threshold:1 ~cooldown_us:40_000L ());
    session = F.session ~budget_us:120_000L ~hedge_after_us:30_000L ~tokens:pool ();
    now = 0L;
    seq = 0;
    fetches = [||];
    quota = fetches;
    attempts = [||];
    sent = [];
    lan = [];
    dues = [];
    up = [| true; true |];
    downs = 1;
    ups = 1;
    spent = 0;
    archive = None;
    broke = None;
  }

(* The bounds reach a retry dropped because the other racer is live,
   its token spent. *)
let test_one_fetch () =
  S.reaches
    (S.search ~name:"one fetch, every schedule" ~depth:60 ~deviations:60
       (start ~fetches:1 ()))
    [
      "client.hedge"; "client.hedge_win"; "client.retry"; "client.shed";
      "client.deadline_expired"; "farm.failover"; "farm.breaker_skip";
      "farm.unavailable"; "breaker.trip"; "client.retry_dropped";
    ]

let test_two_fetches () =
  S.reaches
    (S.search ~name:"two fetches, every schedule of 8 actions" ~depth:8 ~deviations:8
       (start ()))
    [ "client.serve_stale"; "client.retry_dropped" ]

let test_long_runs () =
  S.reaches
    (S.search ~name:"two fetches, 6 departures from the fault-free order" ~depth:60
       ~deviations:6 (start ()))
    [ "client.serve_stale"; "client.retry_dropped" ]

let () =
  Alcotest.run "fetch"
    [
      ( "explorer",
        [
          Alcotest.test_case "one fetch, every schedule" `Quick test_one_fetch;
          Alcotest.test_case "two fetches, every schedule of 8 actions" `Quick
            test_two_fetches;
          Alcotest.test_case "two fetches, long runs" `Quick test_long_runs;
        ] );
    ]
