(* An explicit-state model checker for a proxy node's serve core
   ([Serve_core]), driven with a fake host instead of simnet. It
   explores every interleaving of client requests, CPU completions
   (FIFO per host and epoch), origin arrivals and zero-delay hops in
   any order, a policy-version bump, a fence toggle, an invalidation,
   a crash and a cold restart, skipping states it has already seen,
   and checks six serve rules at every state: one node, and two nodes
   sharing an L2. The caches and admission are the real [Cache] and
   [Admission]; the pipeline is a fake whose output names the class
   and the version it ran under. The search is [Explore]'s, shared
   with [test_control]. *)

module C = Serve_core

let base = 1 (* the policy version a node starts at and restarts cold at *)
let classes = [ "A"; "B" ]

(* A node: its core (L1, the shared L2, admission, flights) and what
   the shell reads off its host and the control plane. *)
type node = {
  core : C.t;
  mutable up : bool;
  mutable epoch : int;
  mutable version : int;
  mutable fence : bool;
}

(* Work the simnet shell would have scheduled, with the request whose
   continuation its closure holds. A CPU job fires in FIFO order among
   its host's jobs of one epoch: a restart resets the CPU, and the jobs
   it abandoned still fire, as failures, at their old instants. An
   origin arrival or a zero-delay hop may fire at any point. *)
type pending =
  | Cpu of { node : int; epoch : int; owner : int; job : C.job }
  | Later of { node : int; owner : int; input : C.input }

type request = {
  at : int; (* the node *)
  cls : string;
  admitted : int option; (* the version it was admitted under *)
  refused : bool; (* it arrived at a down or fenced node *)
  replies : C.reply list;
}

type world = {
  nodes : node array;
  pending : pending list; (* in issue order *)
  reqs : request array; (* by id *)
  requests : int; (* the most requests a schedule issues *)
  bumps : int;
  fences : int;
  invalidations : int;
  crashes : int;
  restarts : int;
  broke : string option; (* a rule an action broke in passing *)
}

type action =
  | Request of int * string
  | Fire of int (* the i-th pending event *)
  | Bump of int
  | Fence of int
  | Invalidate of int * string
  | Crash of int
  | Restart of int

(* The worlds are plain data — that is the core's point — so a copy is
   a marshalling round trip, which keeps the L2 shared. *)
let copy (w : world) : world = Marshal.from_string (Marshal.to_string w []) 0

let version_of bytes =
  int_of_string (List.nth (String.split_on_char '@' bytes) 1)

let reply_to_string = function
  | C.Bytes b -> b
  | C.Not_found -> "not found"
  | C.Unavailable -> "unavailable"
  | C.Overloaded -> "overloaded"

let answer w owner reply =
  let r = w.reqs.(owner) in
  w.reqs.(owner) <- { r with replies = reply :: r.replies };
  w

(* The serve paths a transition took, as reason events for the
   search's coverage tally. *)
let notes = ref []

let note i kind = notes := Printf.sprintf "n%d %s" i kind :: !notes

(* One core step at node [i] for the request [owner]; its effects
   become pending events and replies, and the fake pipeline runs at
   once, as the shell's does. *)
let rec step w i owner input =
  let n = w.nodes.(i) in
  let outs =
    C.step n.core ~now:0L ~up:n.up ~epoch:n.epoch ~backlog:0L ~fence:n.fence
      ~version:n.version input
  in
  List.fold_left (fun w o -> perform_output w i owner o) w outs

and perform_output w i owner out =
  let n = w.nodes.(i) in
  let later input = { w with pending = w.pending @ [ Later { node = i; owner; input } ] } in
  note i
    (match out with
    | C.Refuse C.Down -> "refuse.down"
    | C.Refuse C.Fenced -> "refuse.fenced"
    | C.Refuse (C.Shed _) -> "refuse.shed"
    | C.Compute (_, C.Hit _) -> "hit"
    | C.Compute (_, C.Rewarm _) -> "rewarm"
    | C.Compute (_, C.Missing _) -> "missing"
    | C.Compute (_, C.Rewrite _) -> "rewrite"
    | C.Join _ -> "join"
    | C.Fetch _ -> "fetch"
    | C.Run _ -> "run"
    | C.Hop _ -> "dead_flight"
    | C.Reply _ -> "reply"
    | C.Settle (C.Bytes _, _ :: _) -> "settle.fanout"
    | C.Settle (C.Bytes _, []) -> "settle.served"
    | C.Settle (_, _) -> "settle.failed");
  match out with
  | C.Refuse why ->
    (* The hop before a refusal's reply touches no core state, so the
       reply comes at once. *)
    answer w owner
      (match why with C.Shed _ -> C.Overloaded | C.Down | C.Fenced -> C.Unavailable)
  | C.Compute (_, job) ->
    if n.up then
      { w with pending = w.pending @ [ Cpu { node = i; epoch = n.epoch; owner; job } ] }
    else later (C.Failed job)
  | C.Join _ -> w
  | C.Fetch f -> later (C.Fetched (f, Some ""))
  | C.Run (f, _) ->
    let w =
      if n.up && f.C.epoch = n.epoch then w
      else
        { w with
          broke =
            Some
              (Printf.sprintf "pipeline ran for n%d's flight r%d, which outlived a crash"
                 i owner) }
    in
    let out = Printf.sprintf "%s@%d" f.C.leader.C.cls n.version in
    step w i owner (C.Ran (f, out, n.version, 0L))
  | C.Hop job -> later (C.Failed job)
  | C.Reply reply -> answer w owner reply
  | C.Settle (reply, joined) ->
    List.fold_left (fun w id -> answer w id reply) (answer w owner reply) joined

let fireable w =
  let rec scan i seen = function
    | [] -> []
    | Cpu { node; epoch; _ } :: rest ->
      (if List.mem (node, epoch) seen then [] else [ i ])
      @ scan (i + 1) ((node, epoch) :: seen) rest
    | Later _ :: rest -> i :: scan (i + 1) seen rest
  in
  scan 0 [] w.pending

let actions w =
  let nodes = List.init (Array.length w.nodes) Fun.id in
  let if_ c l = if c then l else [] in
  List.concat
    [
      List.map (fun i -> Fire i) (fireable w);
      if_
        (Array.length w.reqs < w.requests)
        (List.concat_map (fun i -> List.map (fun c -> Request (i, c)) classes) nodes);
      if_ (w.bumps > 0) (List.map (fun i -> Bump i) nodes);
      if_ (w.fences > 0) (List.map (fun i -> Fence i) nodes);
      if_ (w.invalidations > 0)
        (List.concat_map (fun i -> List.map (fun c -> Invalidate (i, c)) classes) nodes);
      List.concat_map
        (fun i ->
          if w.nodes.(i).up then if_ (w.crashes > 0) [ Crash i ]
          else if_ (w.restarts > 0) [ Restart i ])
        nodes;
    ]

(* Only the CPU queues are ordered: sort the rest, so that one
   multiset of pending events is one state. *)
let normal w =
  let key = function
    | Cpu { node; epoch; _ } -> (0, node, epoch)
    | Later _ -> (1, 0, 0)
  in
  let order a b =
    match compare (key a) (key b) with
    | 0 -> ( match (a, b) with Later _, Later _ -> compare a b | _ -> 0)
    | c -> c
  in
  { w with pending = List.stable_sort order w.pending }

let rec perform w a =
  notes := [];
  let w, label = act (copy w) a in
  (normal w, label, List.rev !notes)

and act w a =
  match a with
  | Request (i, cls) ->
    let n = w.nodes.(i) in
    let id = Array.length w.reqs in
    let refused = not (n.up && n.fence) in
    let r = { at = i; cls; admitted = None; refused; replies = [] } in
    let w = { w with reqs = Array.append w.reqs [| r |] } in
    let admitted = C.Admission.admitted n.core.C.admission in
    let w = step w i id (C.Request { id; cls; deadline = None }) in
    if C.Admission.admitted n.core.C.admission > admitted then
      w.reqs.(id) <- { (w.reqs.(id)) with admitted = Some n.version };
    (w, Printf.sprintf "r%d: request %s at n%d (v%d)" id cls i n.version)
  | Fire k ->
    let e = List.nth w.pending k in
    let w = { w with pending = List.filteri (fun j _ -> j <> k) w.pending } in
    (match e with
    | Cpu { node; epoch; owner; job } ->
      let n = w.nodes.(node) in
      let ok = n.up && n.epoch = epoch in
      ( step w node owner (if ok then C.Done job else C.Failed job),
        Printf.sprintf "n%d cpu %s for r%d" node (if ok then "done" else "failed") owner )
    | Later { node; owner; input } ->
      ( step w node owner input,
        Printf.sprintf "n%d %s for r%d" node
          (match input with C.Fetched _ -> "origin bytes arrive" | _ -> "hop")
          owner ))
  | Bump i ->
    let n = w.nodes.(i) in
    n.version <- n.version + 1;
    ({ w with bumps = w.bumps - 1 }, Printf.sprintf "bump n%d to v%d" i n.version)
  | Fence i ->
    let n = w.nodes.(i) in
    n.fence <- not n.fence;
    ({ w with fences = w.fences - 1 }, Printf.sprintf "fence n%d %b" i n.fence)
  | Invalidate (i, cls) ->
    let n = w.nodes.(i) in
    ignore (C.Cache.remove n.core.C.l1 cls : bool);
    Option.iter (fun l2 -> ignore (C.Cache.remove l2 cls : bool)) n.core.C.l2;
    ( { w with invalidations = w.invalidations - 1 },
      Printf.sprintf "invalidate %s at n%d" cls i )
  | Crash i ->
    let n = w.nodes.(i) in
    n.up <- false;
    n.epoch <- n.epoch + 1;
    let w = step w i (-1) C.Crash in
    ({ w with crashes = w.crashes - 1 }, Printf.sprintf "crash n%d" i)
  | Restart i ->
    (* cold, as [Chaos.run_control] restarts a shard: L1 gone, base policy *)
    let n = w.nodes.(i) in
    n.up <- true;
    C.Cache.clear n.core.C.l1;
    n.version <- base;
    ({ w with restarts = w.restarts - 1 }, Printf.sprintf "restart n%d cold" i)

(* --- the six rules --- *)

let entries (c : C.Cache.t) =
  List.sort compare
    (Hashtbl.fold
       (fun k (e : C.Cache.entry) acc -> (k, e.C.Cache.e_version, e.C.Cache.e_bytes) :: acc)
       c.C.Cache.tbl [])

let caches w =
  let l1s = Array.to_list (Array.mapi (fun i n -> (Printf.sprintf "n%d L1" i, n.core.C.l1)) w.nodes) in
  match w.nodes.(0).core.C.l2 with Some l2 -> ("L2", l2) :: l1s | None -> l1s

let flights n =
  List.sort compare
    (Hashtbl.fold (fun k (f : C.flight) acc -> (k, f) :: acc) n.core.C.flights [])

let violation w =
  let some fmt = Printf.ksprintf Option.some fmt in
  let reqs = List.mapi (fun id r -> (id, r)) (Array.to_list w.reqs) in
  List.find_map
    (fun check -> check ())
    [
      (fun () -> w.broke);
      (* 1. a request is replied at most once, and exactly once when
         nothing is pending *)
      (fun () ->
        List.find_map
          (fun (id, r) ->
            match r.replies with
            | _ :: _ :: _ -> some "r%d replied %d times" id (List.length r.replies)
            | [] when w.pending = [] -> some "r%d never replied" id
            | _ -> None)
          reqs);
      (* 2. a request admitted at version v is never served bytes
         rewritten under a version below v *)
      (fun () ->
        List.find_map
          (fun (id, r) ->
            match (r.admitted, r.replies) with
            | Some v, C.Bytes b :: _ when version_of b < v ->
              some "r%d admitted at v%d served %s" id v b
            | _ -> None)
          reqs);
      (* 3. every L1/L2 entry's tag is the version its bytes were
         rewritten under *)
      (fun () ->
        List.find_map
          (fun (name, c) ->
            List.find_map
              (fun (k, v, b) ->
                if version_of b = v then None
                else some "%s holds %s tagged v%d as %s" name b v k)
              (entries c))
          (caches w));
      (* 4. admission's in-flight count is the admitted requests not yet
         replied *)
      (fun () ->
        List.find_map
          (fun (i, n) ->
            let open_ =
              List.length
                (List.filter
                   (fun (_, r) -> r.at = i && r.admitted <> None && r.replies = [])
                   reqs)
            in
            let got = C.Admission.inflight n.core.C.admission in
            if got = open_ then None
            else some "n%d admission holds %d in flight, %d admitted unreplied" i got open_)
          (List.mapi (fun i n -> (i, n)) (Array.to_list w.nodes)));
      (* 5. at most one pipeline run per (class, version) in flight, and
         no flight survives a crash *)
      (fun () ->
        List.find_map
          (fun (i, n) ->
            List.find_map
              (fun (k, (f : C.flight)) ->
                if f.C.epoch = n.epoch then None
                else some "n%d's flight for %s outlived a crash" i (fst k))
              (flights n))
          (List.mapi (fun i n -> (i, n)) (Array.to_list w.nodes)));
      (fun () ->
        let runs =
          List.filter_map
            (function
              | Cpu { node; epoch; job = C.Rewrite f; _ }
                when epoch = w.nodes.(node).epoch ->
                Some (node, f.C.leader.C.cls, f.C.leader.C.version)
              | _ -> None)
            w.pending
        in
        List.find_map
          (fun ((i, cls, v) as run) ->
            if List.length (List.filter (( = ) run) runs) < 2 then None
            else some "n%d runs the pipeline twice for (%s, v%d)" i cls v)
          runs);
      (* 6. a request that arrives at a down or fenced node is answered
         Unavailable *)
      (fun () ->
        List.find_map
          (fun (id, r) ->
            match r.replies with
            | reply :: _ when r.refused && reply <> C.Unavailable ->
              some "r%d refused at n%d answered %s" id r.at (reply_to_string reply)
            | _ -> None)
          reqs);
    ]

(* Two worlds are one state when they agree on everything the rules
   and the core read: the caches' contents, not their recency order
   or hit counts; admission's in-flight count, not its cost EWMA, which
   only a deadline reads and no request here carries one. *)
let fingerprint w =
  let node n =
    ( (n.up, n.epoch, n.version, n.fence),
      entries n.core.C.l1,
      flights n,
      C.Admission.inflight n.core.C.admission )
  in
  Digest.string
    (Marshal.to_string
       ( Array.map node w.nodes,
         Option.map entries w.nodes.(0).core.C.l2,
         w.pending,
         w.reqs,
         (w.bumps, w.fences, w.invalidations, w.crashes, w.restarts, w.broke) )
       [ Marshal.No_sharing ])

module S = Explore.Make (struct
  type nonrec world = world
  type nonrec action = action

  let actions = actions
  let default _ = None
  let perform = perform
  let violation = violation
  let fingerprint = fingerprint
  let now _ = 0L
end)

(* --- the starts --- *)

(* The real cache and core, with small tables: a copy then marshals
   a few buckets, not hundreds. *)
let cache () = { (C.Cache.create ~capacity:1024) with C.Cache.tbl = Hashtbl.create 4 }

let core ?l2 () =
  { (C.create ~l1:(cache ()) ?l2 (C.Admission.create ())) with
    C.flights = Hashtbl.create 4 }

(* Every node up, unfenced, at the base version, caches empty; one
   bump, fence toggle, invalidation, crash and cold restart in the
   budget. *)
let start ~requests ~nodes =
  let l2 = if nodes > 1 then Some (cache ()) else None in
  {
    nodes =
      Array.init nodes (fun _ ->
          {
            core = core ?l2 ();
            up = true;
            epoch = 0;
            version = base;
            fence = true;
          });
    pending = [];
    reqs = [||];
    requests;
    bumps = 1;
    fences = 1;
    invalidations = 1;
    crashes = 1;
    restarts = 1;
    broke = None;
  }

(* The searches reach every serve path, a dead flight included. *)
let test_one_node () =
  S.reaches
    (S.search ~name:"one node" ~depth:60 ~deviations:60 (start ~requests:3 ~nodes:1))
    [ "hit"; "join"; "rewrite"; "dead_flight"; "refuse.down"; "refuse.fenced";
      "settle.fanout"; "settle.failed" ]

let test_two_nodes () =
  S.reaches
    (S.search ~name:"two nodes sharing an L2" ~depth:60 ~deviations:60
       (start ~requests:2 ~nodes:2))
    [ "hit"; "rewarm"; "join"; "rewrite"; "dead_flight"; "settle.failed" ]

let () =
  Alcotest.run "serve"
    [
      ( "explorer",
        [
          Alcotest.test_case "one node, three requests" `Quick test_one_node;
          Alcotest.test_case "two nodes sharing an L2, two requests" `Quick
            test_two_nodes;
        ] );
    ]
