(* An explicit-state model checker for the control plane's protocol
   core ([Control_core]), driven with a fake network instead of
   simnet. It explores every interleaving, within a bound, of message
   delivery, drop, duplication and reordering, timer firings at their
   due instants, crashes and restarts, and scripted proposals,
   skipping states it has already seen, and checks five properties at
   every state. Two bounds: every schedule of at most 7 actions, and
   every schedule of at most 60 actions that departs from the
   fault-free order at most twice. A violation fails with its shortest
   schedule and the reason events each step emitted; the search itself
   is [Explore]'s, shared with [test_serve]. The regression schedules
   at the end replay, against the real core, the counterexamples of
   bugs the explorer catches, and two hand-built schedules for bugs
   past its bounds. *)

module C = Control_core

let check = Alcotest.check

(* --- the model --- *)

(* A message in flight: it may be delivered at any instant up to
   [deadline] — the transit bound the commit rule assumes — and is
   lost once time passes it. *)
type flight = { deadline : int64; src : int; dst : int; msg : C.msg }

(* An armed fence backstop, due at [at]. *)
type armed = { at : int64; member : int; id : int; term : int }

type world = {
  core : C.t;
  now : int64;
  up : bool array;
  net : flight list; (* sorted: the network is a multiset *)
  backstops : armed list; (* sorted *)
  proposed : (int * C.entry) list; (* proposal id -> entry *)
  script : C.entry list; (* entries still to propose *)
  crashes : int; (* crashes left in the budget *)
  dups : int; (* duplicate deliveries left in the budget *)
  ghost : (int * C.entry) list; (* index -> entry seen committed there *)
  clash : (int * int * C.entry * C.entry) option;
      (* an index seen committed as two entries: member, index, both *)
}

type action =
  | Fire of int (* the member's tick, at its due instant (now if overdue) *)
  | Fire_backstop of int (* the i-th armed backstop, likewise *)
  | Deliver of int (* the i-th message in flight, now *)
  | Deliver_late of int (* the i-th message, at its deadline *)
  | Duplicate of int (* deliver the i-th message, and keep it in flight *)
  | Crash of int
  | Restart of int
  | Propose (* the next scripted entry, at the leased leader *)

let live w id = w.up.(id)

(* The core's mutable parts are its members (records whose only
   mutable contents are the two per-peer arrays) and its commit table;
   everything else is immutable and shared. *)
let copy w =
  let core = w.core in
  {
    w with
    core =
      {
        core with
        C.members =
          Array.map
            (fun (m : C.member) ->
              {
                m with
                C.m_match = Array.copy m.C.m_match;
                m_acked_send = Array.copy m.C.m_acked_send;
              })
            core.C.members;
        commits_at = Hashtbl.copy core.C.commits_at;
      };
    up = Array.copy w.up;
  }

(* Two worlds are one state when they agree on everything but commit
   times, which no rule reads. *)
let fingerprint w =
  let c = w.core in
  let commits =
    List.sort compare
      (Hashtbl.fold (fun id _ acc -> id :: acc) c.C.commits_at [])
  in
  Digest.string
    (Marshal.to_string
       ( (c.C.members, c.C.next_index, c.C.next_id, c.C.version, commits),
         (w.now, w.up, w.net, w.backstops),
         (w.proposed, w.script, w.crashes, w.dups, w.ghost) )
       [ Marshal.No_sharing ])

let due (m : C.member) =
  match m.C.m_role with
  | C.Leader -> Int64.add m.C.m_last_hb_sent C.hb_interval_us
  | C.Follower | C.Candidate -> Int64.add m.C.m_heard_at (C.timeout_of m)

(* Let time pass to [t] (if later): messages past their deadline are
   lost. *)
let advance w t =
  if Int64.compare t w.now <= 0 then w
  else
    {
      w with
      now = t;
      net = List.filter (fun f -> Int64.compare f.deadline t >= 0) w.net;
    }

let without l i = List.filteri (fun j _ -> j <> i) l

(* One core step, its effects folded into the world; returns the
   reason events it emitted. *)
let run w id input =
  let outs = C.step w.core ~live:(live w) ~now:w.now id input in
  let net, backstops, notes =
    List.fold_left
      (fun (net, bs, notes) -> function
        | C.Send { src; dst; msg } ->
          let deadline = Int64.add w.now C.commit_margin_us in
          ({ deadline; src; dst; msg } :: net, bs, notes)
        | C.Arm { member; at; id; term } ->
          (net, { at; member; id; term } :: bs, notes)
        | C.Apply _ -> (net, bs, notes)
        | C.Note { member; kind; detail } ->
          (net, bs, Printf.sprintf "m%d %s %s" member kind detail :: notes))
      (w.net, w.backstops, []) outs
  in
  ( {
      w with
      net = List.sort compare net;
      backstops = List.sort compare backstops;
    },
    List.rev notes )

let actions w =
  let ids = List.init (Array.length w.up) Fun.id in
  let if_ c l = if c then l else [] in
  List.concat
    [
      List.filter_map (fun i -> if w.up.(i) then Some (Fire i) else None) ids;
      List.mapi (fun i _ -> Fire_backstop i) w.backstops;
      List.concat
        (List.mapi
           (fun i f ->
             if_ w.up.(f.dst)
               ([ Deliver i ]
               @ if_ (Int64.compare f.deadline w.now > 0) [ Deliver_late i ]
               @ if_ (w.dups > 0) [ Duplicate i ]))
           w.net);
      List.concat_map
        (fun i ->
          if w.up.(i) then if_ (w.crashes > 0) [ Crash i ] else [ Restart i ])
        ids;
      if_
        (w.script <> []
        && C.leased_leader w.core ~live:(live w) ~now:w.now <> None)
        [ Propose ];
    ]

let msg_to_string = function
  | C.Request_vote { v_term; v_last_index; _ } ->
    Printf.sprintf "request-vote t%d last %d" v_term v_last_index
  | C.Vote_reply { r_term; r_granted; r_promise; _ } ->
    Printf.sprintf "vote-reply t%d %s promise %Ld" r_term
      (if r_granted then "granted" else "refused")
      r_promise
  | C.Append a ->
    Printf.sprintf "append t%d%s prev %d [%s]%s" a.C.a_term
      (if a.C.a_leased then " leased" else "")
      a.C.a_prev_index
      (String.concat "; "
         (List.map
            (fun r ->
              Printf.sprintf "%d:%s@t%d" r.C.l_index
                (C.entry_to_string r.C.l_entry)
                r.C.l_term)
            a.C.a_entries))
      (match a.C.a_snap with
      | Some s -> Printf.sprintf " +snapshot %d" s.C.s_index
      | None -> "")
  | C.Append_reply { p_term; p_applied; _ } ->
    Printf.sprintf "ack t%d applied %d" p_term p_applied

(* Take one action: the successor world, a line describing the action
   and the reason events it caused. *)
let act w a =
  let w = copy w in
  let deliver f =
    Printf.sprintf "m%d->m%d %s" f.src f.dst (msg_to_string f.msg)
  in
  match a with
  | Fire i ->
    let w = advance w (due w.core.C.members.(i)) in
    let w, notes = run w i C.Tick in
    (w, Printf.sprintf "tick m%d" i, notes)
  | Fire_backstop i ->
    let b = List.nth w.backstops i in
    let w = advance { w with backstops = without w.backstops i } b.at in
    let w, notes = run w b.member (C.Backstop { id = b.id; term = b.term }) in
    ( w,
      Printf.sprintf "backstop m%d proposal %d t%d" b.member b.id b.term,
      notes )
  | Deliver i | Deliver_late i | Duplicate i ->
    let f = List.nth w.net i in
    let w =
      match a with
      | Duplicate _ -> { w with dups = w.dups - 1 }
      | Deliver_late _ -> advance { w with net = without w.net i } f.deadline
      | _ -> { w with net = without w.net i }
    in
    let w, notes = run w f.dst (C.Deliver f.msg) in
    let how =
      match a with
      | Duplicate _ -> "duplicate"
      | Deliver_late _ -> "deliver late"
      | _ -> "deliver"
    in
    (w, Printf.sprintf "%s %s" how (deliver f), notes)
  | Crash i ->
    w.up.(i) <- false;
    ({ w with crashes = w.crashes - 1 }, Printf.sprintf "crash m%d" i, [])
  | Restart i ->
    w.up.(i) <- true;
    let w, notes = run w i C.Restart in
    (w, Printf.sprintf "restart m%d" i, notes)
  | Propose ->
    let e = List.hd w.script in
    let id = Option.get (C.leased_leader w.core ~live:(live w) ~now:w.now) in
    let w, notes = run { w with script = List.tl w.script } id (C.Propose e) in
    ( { w with proposed = (w.core.C.next_id, e) :: w.proposed },
      Printf.sprintf "propose %s at m%d" (C.entry_to_string e) id,
      notes )

(* --- the five properties --- *)

(* Applying [e] to a serving state changes nothing: it is already in. *)
let covers st e = C.join st e = st

let in_log_or_snapshot (m : C.member) e =
  List.exists (fun r -> r.C.l_entry = e) m.C.m_log
  || covers (m.C.m_snap.C.s_version, m.C.m_snap.C.s_pending) e

(* State-machine safety is a property of the history: remember, for
   every index any member holds as committed, which entry it was. *)
let observe w =
  let clash = ref None in
  let ghost =
    Array.fold_left
      (fun g (m : C.member) ->
        List.fold_left
          (fun g r ->
            if r.C.l_index > m.C.m_commit_index then g
            else
              match List.assoc_opt r.C.l_index g with
              | Some e when e <> r.C.l_entry ->
                clash := Some (m.C.m_id, r.C.l_index, e, r.C.l_entry);
                g
              | Some _ -> g
              | None -> (r.C.l_index, r.C.l_entry) :: g)
          g m.C.m_log)
      w.ghost w.core.C.members
  in
  { w with ghost = List.sort compare ghost; clash = !clash }

(* The first of the five properties the world breaks, if any. *)
let violation w =
  let c = w.core and live = live w and now = w.now in
  let members = Array.to_list c.C.members in
  let leaders = C.leased_leaders c ~live ~now in
  let committed =
    List.filter (fun (id, _) -> Hashtbl.mem c.C.commits_at id) w.proposed
  in
  let lacking holds = List.find_opt (fun (_, e) -> not (holds e)) committed in
  let str (id, e) =
    Printf.sprintf "proposal %d (%s)" id (C.entry_to_string e)
  in
  let some fmt = Printf.ksprintf Option.some fmt in
  List.find_map
    (fun check -> check ())
    [
      (fun () ->
        if List.length leaders < 2 then None
        else
          some "election safety: %s hold valid leadership leases"
            (String.concat ", " (List.map (Printf.sprintf "m%d") leaders)));
      (fun () ->
        List.find_map
          (fun l ->
            Option.bind (lacking (in_log_or_snapshot c.C.members.(l)))
              (fun p ->
                some
                  "leader completeness: committed %s is not in leased leader \
                   m%d's snapshot or log"
                  (str p) l))
          leaders);
      (fun () ->
        Option.bind w.clash (fun (m, idx, e, e') ->
            some
              "state-machine safety: index %d committed as %s, then as %s at \
               m%d"
              idx (C.entry_to_string e) (C.entry_to_string e') m));
      (fun () ->
        if not (C.converged c ~live ~now) then None
        else
          let want = C.replay_digest c ~live ~now in
          List.find_map
            (fun (m : C.member) ->
              let got = C.member_digest m in
              if String.equal got want then None
              else
                some
                  "snapshot catch-up: converged m%d holds %s, full-log replay \
                   gives %s"
                  m.C.m_id got want)
            members);
      (fun () ->
        List.find_map
          (fun (m : C.member) ->
            if live m.C.m_id && Int64.compare now m.C.m_lease_until < 0 then
              Option.bind (lacking (covers (m.C.m_version, m.C.m_invals)))
                (fun p ->
                  some "fence: m%d serves on a live lease without committed %s"
                    m.C.m_id (str p))
            else None)
          members);
    ]

(* --- the search --- *)

(* The fault-free order: deliver the oldest message whose receiver is
   up, else propose the next entry if a leader holds the lease, else
   fire the timer due first. A schedule's deviations are its actions
   that depart from it. *)
let default w =
  let rec oldest i = function
    | [] -> None
    | f :: rest ->
      if w.up.(f.dst) then Some (Deliver i) else oldest (i + 1) rest
  in
  let leased = C.leased_leader w.core ~live:(live w) ~now:w.now <> None in
  match oldest 0 w.net with
  | Some a -> Some a
  | None when w.script <> [] && leased -> Some Propose
  | None ->
    List.fold_left
      (fun acc (at, a) ->
        match acc with
        | Some (t, _) when Int64.compare t at <= 0 -> acc
        | _ -> Some (at, a))
      None
      (List.filter_map
         (fun (m : C.member) ->
           if w.up.(m.C.m_id) then Some (due m, Fire m.C.m_id) else None)
         (Array.to_list w.core.C.members)
      @ List.mapi (fun i b -> (b.at, Fire_backstop i)) w.backstops)
    |> Option.map snd

let perform w a =
  let w, label, notes = act w a in
  (observe w, label, notes)

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

(* --- the starts --- *)

(* Every member a follower at time 0, two entries to propose, one
   crash and one duplicate delivery in the budget. The lease is longer
   than member 1's first election instant (600 + 850 ms), so two
   elections fit inside one lease — at the default 1 s no lease
   granted without acks outlives the first election. A fold at every
   committed entry brings compaction and snapshot installs inside the
   bound. *)
let cold () =
  let core = C.create ~lease_us:1_500_000L ~snapshot_threshold:1 () in
  for _ = 1 to 3 do
    ignore (C.add_member core ~now:0L : int)
  done;
  {
    core;
    now = 0L;
    up = Array.make 3 true;
    net = [];
    backstops = [];
    proposed = [];
    script = [ C.Set_version 2; C.Invalidate "k" ];
    crashes = 1;
    dups = 1;
    ghost = [];
    clash = None;
  }

(* Deliver every message in flight, oldest first, until none is left. *)
let rec settle w =
  match w.net with
  | [] -> w
  | _ ->
    let w, _, _ = perform w (Deliver 0) in
    settle w

(* Member 0's fault-free bootstrap: leader at term 1, its lease held
   and acked by both followers, nothing proposed yet. From here the
   bound reaches commits by both arms, compaction, snapshot installs,
   re-drives and restart replays. *)
let bootstrapped () =
  let w, _, _ = perform (cold ()) (Fire 0) in
  settle w

let test_cold () =
  S.reaches
    (S.search ~name:"cold start" ~depth:7 ~deviations:7 (cold ()))
    [ "control.election_win"; "control.stepdown"; "control.lease_grant" ]

let test_bootstrapped () =
  let w0 = bootstrapped () in
  check (Alcotest.option Alcotest.int) "member 0 holds the lease" (Some 0)
    (C.leased_leader w0.core ~live:(live w0) ~now:w0.now);
  S.reaches
    (S.search ~name:"bootstrapped" ~depth:7 ~deviations:7 w0)
    [
      "control.snapshot_compact";
      "control.snapshot_install";
      "control.redrive";
      "control.resync";
    ]

(* Long schedules that stay close to the fault-free order: elections
   after a leader falls silent, lost and re-driven proposals, fence
   commits and catch-up from a snapshot, seconds into a run. *)
let test_long () =
  S.reaches
    (S.search ~name:"long runs" ~depth:60 ~deviations:2 (cold ()))
    [
      "control.snapshot_compact";
      "control.snapshot_install";
      "control.redrive";
      "control.resync";
    ]

(* --- regression schedules --- *)

(* A schedule step: [n] actions in the fault-free order, a member's
   tick, the delivery of the oldest message in flight from [src] to
   [dst], the backstop armed at [member] under [term], or any other
   action. *)
type step =
  | Usual of int
  | Tick of int
  | Msg of int * int
  | Fence of int * int
  | Act of action

let index_of p l =
  let rec go i = function
    | [] -> None
    | x :: rest -> if p x then Some i else go (i + 1) rest
  in
  go 0 l

(* Replay [steps] against the real core, checking the five properties
   after each action. *)
let replay_steps w0 steps =
  let one w a =
    let w, label, _ = perform w a in
    (match violation w with
    | Some reason -> Alcotest.failf "after %s: %s" label reason
    | None -> ());
    w
  in
  let need what = function
    | Some i -> i
    | None -> Alcotest.failf "no %s" what
  in
  List.fold_left
    (fun w s ->
      match s with
      | Usual n ->
        let w = ref w in
        for _ = 1 to n do
          w := one !w (need "fault-free action" (default !w))
        done;
        !w
      | Tick i -> one w (Fire i)
      | Msg (src, dst) ->
        one w
          (Deliver
             (need
                (Printf.sprintf "message m%d->m%d in flight" src dst)
                (index_of (fun f -> f.src = src && f.dst = dst) w.net)))
      | Fence (member, term) ->
        one w
          (Fire_backstop
             (need "such backstop"
                (index_of
                   (fun b -> b.member = member && b.term = term)
                   w.backstops)))
      | Act a -> one w a)
    w0 steps

let roles w =
  Array.to_list
    (Array.map
       (fun (m : C.member) ->
         Printf.sprintf "%s@%d"
           (match m.C.m_role with
           | C.Leader -> "leader"
           | C.Candidate -> "candidate"
           | C.Follower -> "follower")
           m.C.m_term)
       w.core.C.members)

(* The phantom lease (the cold-start explorer's counterexample with
   the never-acked sentinel removed): member 0 wins term 1 on member
   1's vote and never hears an ack; member 1 times out at 1.45 s and
   wins term 2 on member 2's vote. Had never-acked peers counted as
   acks at time 0, both would hold a lease until 1.5 s. *)
let test_phantom_lease () =
  let w =
    replay_steps (cold ())
      [ Tick 0; Msg (0, 1); Msg (1, 0); Tick 1; Msg (1, 2); Msg (2, 1) ]
  in
  check Alcotest.int64 "member 1's election instant" 1_450_000L w.now;
  check
    (Alcotest.list Alcotest.string)
    "two leaders, terms 1 and 2"
    [ "leader@1"; "leader@2"; "follower@2" ]
    (roles w)

(* A reused index (the long-run explorer's counterexample with
   commitments keyed by log index): member 0 proposes set-version 2 at
   index 1 and falls silent before shipping it; member 2 wins term 2,
   proposes invalidate k at the same index and commits it. The lost
   proposal must never read as committed. *)
let test_reused_index () =
  let w = replay_steps (cold ()) [ Usual 14; Tick 2; Usual 25 ] in
  check (Alcotest.list Alcotest.string) "member 2 leads term 2"
    [ "follower@2"; "follower@2"; "leader@2" ]
    (roles w);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "only the second proposal committed"
    [ (2, true); (1, false) ]
    (List.map
       (fun (id, _) -> (id, Hashtbl.mem w.core.C.commits_at id))
       w.proposed)

(* Raft's figure 8 with three members, which no explorer bound above
   reaches: member 0 proposes set-version 2 and falls silent; member 1
   wins term 2 on member 2's vote, proposes invalidate k at the same
   index and crashes; member 0 wins term 3 on member 2's vote,
   re-drives its entry and commits it by the fence backstop; member 1
   restarts and campaigns at term 4. A re-driven entry keeps only its
   content: were it not re-stamped with the new leader's term, member
   1's term-2 entry would out-rank it, member 2 would vote for member
   1, and the committed entry would be overwritten. *)
let test_figure_8 () =
  let w =
    replay_steps (cold ())
      [
        Tick 0; Msg (0, 1); Msg (1, 0); Msg (0, 1); Msg (1, 0); Act Propose;
        Tick 1; Msg (1, 2); Msg (2, 1); Msg (1, 0); Msg (1, 2); Msg (2, 1);
        Tick 1; Tick 1; Tick 1; Act Propose; Act (Crash 1);
        Tick 0; Msg (0, 2); Msg (2, 0); Msg (0, 2); Msg (2, 0);
        Tick 0; Msg (0, 2); Msg (2, 0); Fence (0, 3);
        Act (Restart 1); Tick 1; Tick 1; Msg (1, 2); Msg (2, 1); Usual 10;
      ]
  in
  check Alcotest.bool "set-version 2 committed" true
    (Hashtbl.mem w.core.C.commits_at 1);
  check Alcotest.string "member 1 not elected at term 4" "candidate@4"
    (List.nth (roles w) 1)

(* A deposed leader's divergent suffix, which no explorer bound above
   reaches (a fold at every commit leaves no committed entry unfolded
   to lose): member 0 commits set-version 2 on every member at the
   default fold threshold, proposes invalidate k and falls silent;
   member 1 wins term 2, and member 0 — still leased — ticks once
   more, renewing its own serving lease. Member 1 proposes
   set-version 3 at index 2 and ships it to member 0: the conflict
   must truncate from index 2 only. Wiping the log back to the
   snapshot would drop the committed entry from a member still
   serving. *)
let test_conflict_keeps_prefix () =
  let w = cold () in
  let w =
    {
      w with
      core = { w.core with C.snapshot_threshold = 8 };
      script = [ C.Set_version 2; C.Invalidate "k"; C.Set_version 3 ];
    }
  in
  let w =
    replay_steps w
      [
        Usual 14; Tick 0; Msg (0, 1); Msg (0, 2); Msg (1, 0); Msg (2, 0);
        Act Propose; Tick 1; Msg (1, 2); Msg (2, 1); Msg (1, 2); Msg (2, 1);
        Tick 0; Tick 1; Tick 1; Tick 1; Act Propose; Tick 1; Msg (1, 0);
      ]
  in
  let m0 = w.core.C.members.(0) in
  check Alcotest.bool "member 0 still serving" true
    (Int64.compare w.now m0.C.m_lease_until < 0);
  check Alcotest.string "member 0 holds set-version 2, then 3" "v3|"
    (C.member_digest m0)

let () =
  Alcotest.run "control"
    [
      ( "explorer",
        [
          Alcotest.test_case "cold start, every interleaving to depth 7"
            `Slow test_cold;
          Alcotest.test_case "bootstrapped, every interleaving to depth 7"
            `Slow test_bootstrapped;
          Alcotest.test_case "long runs" `Slow test_long;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "phantom startup lease" `Quick test_phantom_lease;
          Alcotest.test_case "reused log index" `Quick test_reused_index;
          Alcotest.test_case "figure 8" `Quick test_figure_8;
          Alcotest.test_case "conflict keeps the agreed prefix" `Quick
            test_conflict_keeps_prefix;
        ] );
    ]
