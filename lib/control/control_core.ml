(* The farm's control plane as a protocol core: a replicated log with
   term-numbered leader election, leadership + serving leases, and
   snapshot compaction, carrying security-policy versions and
   rewrite-cache invalidations to every shard.

   The core knows nothing of the network, the clock or the hosts. Its
   state is plain data — no closures, no simnet values — so a test can
   copy and hash it, and it moves only through [step]: the caller
   names a member, the current time and one input (a tick, a delivered
   message, a fence backstop firing, a proposal, a restart) and
   supplies every member's liveness; [step] returns that step's
   effects in order (send a message, apply an entry, arm a backstop,
   emit a reason event). [Proxy.Control] is the shell that performs
   them over simnet, and must perform them in the order returned: the
   engine breaks same-time ties by insertion order.

   Every member is a full replica. A message from [src] to [dst]
   crosses [src]'s uplink and then [dst]'s downlink (the shell's
   business), so a partitioned member is cut off from every peer.

   Election. A follower that has not heard a leader for its election
   timeout becomes a candidate: it bumps its term, votes for itself
   and solicits votes. A voter grants at most one vote per term and
   only to a candidate whose log is at least as complete as its own
   (last term, then last index) — so a majority winner provably holds
   every committed entry. Timeouts are staggered by member id (one
   heartbeat interval apart), which keeps elections deterministic and
   collision-free under the shell's discrete tick.

   Leases. Two kinds, both [lease_us] long:

   - The *leadership* lease: a leader holds it while a majority of
     members (itself included) acked a heartbeat it sent within the
     last [lease_us]. A vote grant carries the voter's *promise
     horizon* — the time until which its past acks may still be
     extending an old leader's lease — and a new leader's lease is
     not valid before the maximum promise its electing majority
     reported. Any two majorities intersect, so two leaders can never
     both hold valid leases: the election-safety invariant.

   - The *serving* lease per member: renewed only by heartbeats from
     a leader that believes its leadership lease is live, and only
     once the member has applied everything that leader holds. A
     member may serve clients only on a live serving lease; a
     partitioned or restarted member fences itself.

   Commit. An entry proposed at [p] by a leased leader commits at

     max( majority of members acked it,
          min( all members acked it,
               p + lease_us + commit_margin_us ) )

   The majority arm makes the entry durable across leader changes
   (the election restriction hands it to every future leader); the
   second arm is the fence bound: by [p + lease + margin] every
   member has either applied the entry or lost the serving lease —
   provided the proposing leader still holds its leadership lease at
   the deadline, which is exactly what rules out a rival leader
   having renewed somebody meanwhile. [commit_margin_us] covers
   renewals already in flight at the proposal: it is the transit
   bound the rule assumes.

   Hand-off. A new leader re-drives the uncommitted suffix of its log
   under its own term — re-stamped, with fresh fence backstops — and
   followers adopt the new stamps (same content) or, when a dead
   leader left them a divergent suffix, truncate from the first
   conflicting index up, keeping the agreed prefix (committed entries
   included, as Raft does).

   Compaction. Once the committed, locally-applied prefix grows past
   [snapshot_threshold] live entries, a replica folds it into a
   snapshot — the highest committed version plus the deduplicated
   pending-invalidation set — and truncates the log. A heartbeat to a
   member whose ack position lies under the leader's fold ships the
   snapshot and the live suffix instead of replaying history.

   Restart. The durable stub a real deployment would fsync — current
   term, vote, promise horizon, snapshot, log — survives [Restart];
   everything serving-related (version, caches, leases) is volatile
   and re-derived by replaying the stub. The member stays fenced until
   a leader confirms it is not missing a suffix. *)

type entry = Set_version of int | Invalidate of string

let entry_to_string = function
  | Set_version v -> Printf.sprintf "set-version %d" v
  | Invalidate key -> Printf.sprintf "invalidate %s" key

type role = Follower | Candidate | Leader

type logrec = {
  l_index : int; (* 1-based, contiguous above the snapshot *)
  l_id : int; (* proposal id: unique per proposal, kept across re-drives *)
  l_term : int;
  l_entry : entry;
}

type snapshot = {
  s_index : int; (* last entry folded in *)
  s_term : int; (* its term *)
  s_version : int; (* highest folded Set_version *)
  s_pending : string list; (* folded invalidation keys, oldest first *)
}

type member = {
  m_id : int;
  (* durable stub: survives a restart *)
  mutable m_term : int;
  mutable m_voted_for : int option;
  mutable m_log : logrec list; (* newest first; indices > m_snap.s_index *)
  mutable m_snap : snapshot;
  mutable m_promise_until : int64; (* horizon of leases my acks back *)
  (* volatile replica state *)
  mutable m_role : role;
  mutable m_applied : int;
  mutable m_commit_index : int;
  mutable m_version : int; (* highest Set_version applied *)
  mutable m_invals : string list; (* applied invalidations, oldest first *)
  mutable m_lease_until : int64; (* serving lease *)
  mutable m_serving : bool; (* edge detector for grant/expire events *)
  mutable m_needs_resync : bool; (* restarted; fenced until confirmed *)
  mutable m_heard_at : int64; (* last valid leader/vote contact *)
  (* candidate state *)
  mutable m_votes_got : int list;
  mutable m_lease_floor : int64; (* max promise reported by my voters *)
  (* leader state *)
  mutable m_last_hb_sent : int64;
  mutable m_ldr_lease_until : int64;
  mutable m_match : int array; (* per-peer applied position, from acks *)
  mutable m_acked_send : int64 array; (* per-peer newest echoed send time *)
  mutable m_fenced : int list; (* ids whose fence backstop passed *)
}

type append = {
  a_term : int;
  a_leader : int;
  a_sent : int64;
  a_leased : bool; (* sender believes its leadership lease is live *)
  a_commit : int;
  a_last : int; (* leader's last log index *)
  a_prev_index : int; (* entry just below the shipped batch *)
  a_prev_term : int;
  a_snap : snapshot option;
  a_entries : logrec list; (* oldest first *)
}

type msg =
  | Request_vote of {
      v_term : int;
      v_cand : int;
      v_last_index : int;
      v_last_term : int;
    }
  | Vote_reply of {
      r_term : int;
      r_from : int;
      r_granted : bool;
      r_promise : int64;
    }
  | Append of append
  | Append_reply of {
      p_term : int;
      p_from : int;
      p_applied : int;
      p_echo : int64; (* send time of the heartbeat this acks *)
    }

type t = {
  lease_us : int64;
  snapshot_threshold : int;
  base_version : int;
  mutable members : member array;
  mutable next_index : int; (* highest log index ever minted *)
  mutable next_id : int; (* last proposal id minted; never reused *)
  mutable version : int; (* latest *proposed* version *)
  mutable committed_version : int; (* highest committed Set_version *)
  (* Keyed by proposal id, NOT log index: a dead leader's uncommitted
     indices can be reused under a later term, and an index-keyed
     table would let a caller's stale handle flip committed for a
     different entry that later lands at the same index. *)
  commits_at : (int, int64) Hashtbl.t; (* proposal id -> commit time *)
}

type input =
  | Tick  (** the member's timer: heartbeat if leader, else election check *)
  | Deliver of msg
  | Backstop of { id : int; term : int }
      (** the fence backstop armed for proposal [id] under [term] *)
  | Propose of entry  (** append at this member, if it holds the lease *)
  | Restart  (** volatile state lost, durable stub kept *)

type output =
  | Send of { src : int; dst : int; msg : msg }
  | Apply of { member : int; entry : entry }
  | Arm of { member : int; at : int64; id : int; term : int }
      (** feed [Backstop { id; term }] to [member] at [at] *)
  | Note of { member : int; kind : string; detail : string }
      (** a reason event; each kind is also a same-named counter *)

(* The timing constants. *)
let hb_interval_us = 250_000L
let commit_margin_us = 100_000L
let election_timeout_us = 600_000L

let create ?(lease_us = 1_000_000L) ?(snapshot_threshold = 8)
    ?(initial_version = 1) () =
  {
    lease_us;
    snapshot_threshold;
    base_version = initial_version;
    members = [||];
    next_index = 0;
    next_id = 0;
    version = initial_version;
    committed_version = initial_version;
    commits_at = Hashtbl.create 64;
  }

(* A fresh member starts with a live serving lease: the log is empty,
   so there is nothing it could be missing. *)
let add_member t ~now =
  let id = Array.length t.members in
  let m =
    {
      m_id = id;
      m_term = 0;
      m_voted_for = None;
      m_log = [];
      m_snap =
        { s_index = 0; s_term = 0; s_version = t.base_version; s_pending = [] };
      m_promise_until = 0L;
      m_role = Follower;
      m_applied = 0;
      m_commit_index = 0;
      m_version = t.base_version;
      m_invals = [];
      m_lease_until = Int64.add now t.lease_us;
      m_serving = true;
      m_needs_resync = false;
      m_heard_at = now;
      m_votes_got = [];
      m_lease_floor = 0L;
      m_last_hb_sent = 0L;
      m_ldr_lease_until = 0L;
      m_match = [||];
      m_acked_send = [||];
      m_fenced = [];
    }
  in
  t.members <- Array.append t.members [| m |];
  id

(* --- the one fold --- *)

(* A replica's serving state is (version bound, invalidation keys in
   first-occurrence order). [join] applies one entry to it; folding
   the log over the snapshot's pair is compaction's fold, a member's
   derived state and the full-log replay alike. *)
let join (v, keys) = function
  | Set_version x -> (max v x, keys)
  | Invalidate k -> (v, if List.mem k keys then keys else keys @ [ k ])

let fold_log (s : snapshot) oldest_first =
  List.fold_left (fun acc r -> join acc r.l_entry) (s.s_version, s.s_pending)
    oldest_first

let digest (v, keys) =
  Printf.sprintf "v%d|%s" v (String.concat "," (List.sort String.compare keys))

(* --- one step's context: where its effects accumulate --- *)

type ctx = {
  st : t;
  live : int -> bool;
  now : int64;
  mutable out : output list; (* newest first *)
}

let emit c o = c.out <- o :: c.out

let note c m kind detail = emit c (Note { member = m.m_id; kind; detail })

let majority t = (Array.length t.members / 2) + 1

let last_index m =
  match m.m_log with r :: _ -> r.l_index | [] -> m.m_snap.s_index

let last_term m =
  match m.m_log with r :: _ -> r.l_term | [] -> m.m_snap.s_term

(* The election timeout, staggered by member id one heartbeat apart: a
   finer stagger would quantize away under the shell's tick. *)
let timeout_of m =
  Int64.add election_timeout_us (Int64.mul (Int64.of_int m.m_id) hb_interval_us)

let is_leased ~live ~now m =
  m.m_role = Leader && live m.m_id
  && Int64.compare now m.m_lease_floor >= 0
  && Int64.compare now m.m_ldr_lease_until < 0

let leased c m = is_leased ~live:c.live ~now:c.now m

let set_term c m term =
  if term > m.m_term then begin
    m.m_term <- term;
    m.m_voted_for <- None;
    note c m "control.term_bump" (Printf.sprintf "term %d" term)
  end

(* Role-only demotion (the term, if newer, is adopted separately). *)
let demote c m =
  if m.m_role <> Follower then begin
    m.m_role <- Follower;
    note c m "control.stepdown" (Printf.sprintf "deposed at term %d" m.m_term)
  end

let step_down c m ~term =
  set_term c m term;
  if m.m_role <> Follower then begin
    demote c m;
    (* give the new regime one timeout before campaigning again *)
    m.m_heard_at <- c.now
  end

let renew_serving c m =
  m.m_lease_until <- Int64.add c.now c.st.lease_us;
  if not m.m_serving then begin
    m.m_serving <- true;
    note c m "control.lease_grant"
      (Printf.sprintf "serving lease until %Ld" m.m_lease_until)
  end

let apply_entry c m e =
  emit c (Apply { member = m.m_id; entry = e });
  let v, keys = join (m.m_version, m.m_invals) e in
  m.m_version <- v;
  m.m_invals <- keys;
  Telemetry.incr "control.applies"

(* Replay a snapshot's folded effects: the version bound, then every
   pending invalidation. All effects are idempotent joins, so
   replaying over live state is harmless. *)
let replay_fold c m (s : snapshot) =
  if s.s_index > 0 then begin
    apply_entry c m (Set_version s.s_version);
    List.iter (fun k -> apply_entry c m (Invalidate k)) s.s_pending
  end

(* Fold the committed, locally-applied prefix into the snapshot once
   it holds [snapshot_threshold] live entries. Both leaders and
   followers compact; the fold only ever covers committed entries, so
   two folds of the same prefix are identical on every replica. *)
let maybe_compact c m =
  let bound = min m.m_commit_index m.m_applied in
  if bound > m.m_snap.s_index then begin
    let folded = List.rev (List.filter (fun r -> r.l_index <= bound) m.m_log) in
    let n = List.length folded in
    if n >= c.st.snapshot_threshold then begin
      let s_term =
        List.fold_left (fun _ r -> r.l_term) m.m_snap.s_term folded
      in
      let s_version, s_pending = fold_log m.m_snap folded in
      m.m_snap <- { s_index = bound; s_term; s_version; s_pending };
      m.m_log <- List.filter (fun r -> r.l_index > bound) m.m_log;
      note c m "control.snapshot_compact"
        (Printf.sprintf "folded %d entries through %d at v%d" n bound s_version)
    end
  end

(* Rebuild the member's serving state from its snapshot and retained
   log. The external effects delivered through [Apply] are
   conservative joins and are never undone — but this state must be
   strictly log-derived, or effects applied for a dead leader's lost
   entries would make snapshot catch-up observably diverge from
   full-log replay. *)
let refresh_state p =
  let v, keys = fold_log p.m_snap (List.rev p.m_log) in
  p.m_version <- v;
  p.m_invals <- keys

let install_snapshot c p (s : snapshot) =
  replay_fold c p s;
  p.m_snap <- s;
  (* Anything above the fold gets re-shipped in the same heartbeat;
     dropping the suffix wholesale sidesteps stale-conflict cases. *)
  p.m_log <- [];
  p.m_applied <- s.s_index;
  p.m_commit_index <- max p.m_commit_index s.s_index;
  refresh_state p;
  note c p "control.snapshot_install"
    (Printf.sprintf "through %d at v%d (%d pending)" s.s_index s.s_version
       (List.length s.s_pending))

let term_at m idx =
  if idx <= 0 then 0
  else if idx = m.m_snap.s_index then m.m_snap.s_term
  else
    match List.find_opt (fun r -> r.l_index = idx) m.m_log with
    | Some r -> r.l_term
    | None -> 0

(* Does the member's log agree with the leader's at the batch anchor?
   Anchors inside the committed fold are trusted — folds only cover
   committed entries, and those agree everywhere. *)
let prev_ok p ~prev_index ~prev_term =
  if prev_index < p.m_snap.s_index then true
  else if prev_index = p.m_snap.s_index then prev_term = p.m_snap.s_term
  else
    match List.find_opt (fun x -> x.l_index = prev_index) p.m_log with
    | Some x -> x.l_term = prev_term
    | None -> false

(* Drop the divergent suffix a dead leader left behind: only the
   entries from the first conflicting index up. The agreed prefix —
   committed-but-not-yet-folded entries the member already acked
   included — is kept; wiping it back to the snapshot would open a
   window in which too few members hold a committed entry for the
   election restriction to guarantee the next leader has it, and
   would leave a member still on its serving lease without a committed
   entry (test_control "conflict keeps the agreed prefix"). Applied
   effects stay (they are idempotent joins) and the next heartbeat
   re-ships the authoritative suffix. *)
let truncate_from p idx =
  p.m_log <- List.filter (fun x -> x.l_index < idx) p.m_log;
  p.m_applied <- min p.m_applied (last_index p);
  p.m_commit_index <- min p.m_commit_index p.m_applied;
  refresh_state p

let append_applied c p r =
  p.m_log <- r :: p.m_log;
  apply_entry c p r.l_entry;
  p.m_applied <- r.l_index

(* Accept one shipped entry; false aborts the rest of the batch (the
   ack then walks the leader's view of our position back). *)
let accept_entry c p r =
  if r.l_index <= p.m_snap.s_index then true
  else
    match List.find_opt (fun x -> x.l_index = r.l_index) p.m_log with
    | Some x when x.l_entry = r.l_entry ->
      (* A re-driven entry: same content, new term — adopt the stamp.
         Taking it as a conflict instead re-applies the entry (278 ->
         286 applies in the pinned control run); keeping the old stamp
         re-applies too (282), and the seeded chaos and trace control
         runs then miss their snapshot install. *)
      p.m_log <-
        List.map (fun y -> if y == x then { x with l_term = r.l_term } else y)
          p.m_log;
      true
    | Some _ ->
      (* conflict: truncate from here up (the prefix below agrees)
         and take the leader's record in its place *)
      truncate_from p r.l_index;
      append_applied c p r;
      true
    | None ->
      r.l_index = last_index p + 1
      && begin
           append_applied c p r;
           true
         end

(* Walk the contiguous committed prefix of [m]'s log: an index counts
   as committed iff the record holding it committed (by id — a reused
   index under a later term is a different record). A leader calls
   this both when a fresh entry commits and on taking office: its log
   can hold entries an earlier leader already committed, and walking
   the prefix at election time lets its fold catch up — and spares
   those entries a pointless re-drive — without waiting for new
   traffic. Without the election-time walk the pins and the explorer
   hold, but the seeded chaos and trace control runs no longer reach a
   snapshot install. *)
let advance_commit_prefix c m =
  let committed_at idx =
    idx <= m.m_snap.s_index
    ||
    match List.find_opt (fun x -> x.l_index = idx) m.m_log with
    | Some x -> Hashtbl.mem c.st.commits_at x.l_id
    | None -> false
  in
  while committed_at (m.m_commit_index + 1) do
    m.m_commit_index <- m.m_commit_index + 1
  done

let commit_rec c m r =
  let st = c.st in
  if not (Hashtbl.mem st.commits_at r.l_id) then begin
    Hashtbl.replace st.commits_at r.l_id c.now;
    (match r.l_entry with
    | Set_version v ->
      if v > st.committed_version then st.committed_version <- v
    | Invalidate _ -> ());
    advance_commit_prefix c m;
    Telemetry.incr "control.commits";
    maybe_compact c m
  end

(* Leader-side commit rule: majority acked (durability across leader
   changes) AND (all acked, or the fence backstop passed while this
   leader's lease was live). *)
let advance_commits c m =
  let maj = majority c.st in
  List.iter
    (fun r ->
      if not (Hashtbl.mem c.st.commits_at r.l_id) then begin
        let acked = ref 1 and all = ref true in
        Array.iter
          (fun p ->
            if p.m_id <> m.m_id then
              if m.m_match.(p.m_id) >= r.l_index then incr acked
              else all := false)
          c.st.members;
        if !acked >= maj && (!all || List.mem r.l_id m.m_fenced) then
          commit_rec c m r
      end)
    m.m_log

(* Sentinel in [m_acked_send] for a peer that has not acked this
   leadership at all. It must be distinguishable from a real ack (the
   clock starts at 0): a zero-initialized slot lets a fresh leader
   derive a "valid" lease from zero acks whenever now < lease_us. With
   a 1.5 s lease the explorer then finds two leased leaders in six
   steps: member 0 wins term 1 on one vote, member 1 wins term 2 at
   1.45 s, and neither has heard an ack. *)
let never_acked = -1L

let recompute_lease t m =
  let n = Array.length t.members in
  if Array.length m.m_acked_send = n then begin
    let vals =
      Array.init n (fun q ->
          if q = m.m_id then m.m_last_hb_sent else m.m_acked_send.(q))
    in
    Array.sort (fun a b -> Int64.compare b a) vals;
    let kth = vals.(majority t - 1) in
    (* the lease only ever derives from a real majority of acks *)
    if Int64.compare kth never_acked > 0 then begin
      let cand = Int64.add kth t.lease_us in
      if Int64.compare cand m.m_ldr_lease_until > 0 then
        m.m_ldr_lease_until <- cand
    end
  end

(* The fence backstop for a proposal or re-drive at [c.now]. *)
let arm c m id =
  emit c
    (Arm
       {
         member = m.m_id;
         at = Int64.add c.now (Int64.add c.st.lease_us commit_margin_us);
         id;
         term = m.m_term;
       })

(* --- the message loop --- *)

let send c src dst msg = emit c (Send { src = src.m_id; dst; msg })

let rec deliver c p msg =
  match msg with
  | Request_vote { v_term; v_cand; v_last_index; v_last_term } ->
    if v_term > p.m_term then step_down c p ~term:v_term;
    let up_to_date =
      v_last_term > last_term p
      || (v_last_term = last_term p && v_last_index >= last_index p)
    in
    let grant =
      v_term = p.m_term
      && (match p.m_voted_for with None -> true | Some v -> v = v_cand)
      && up_to_date
    in
    if grant then begin
      p.m_voted_for <- Some v_cand;
      p.m_heard_at <- c.now;
      note c p "control.vote"
        (Printf.sprintf "granted m%d at term %d" v_cand p.m_term)
    end;
    send c p v_cand
      (Vote_reply
         {
           r_term = p.m_term;
           r_from = p.m_id;
           r_granted = grant;
           r_promise = p.m_promise_until;
         })
  | Vote_reply { r_term; r_from; r_granted; r_promise } ->
    if r_term > p.m_term then step_down c p ~term:r_term
    else if
      p.m_role = Candidate && r_granted && r_term = p.m_term
      && not (List.mem r_from p.m_votes_got)
    then begin
      p.m_votes_got <- r_from :: p.m_votes_got;
      if Int64.compare r_promise p.m_lease_floor > 0 then
        p.m_lease_floor <- r_promise;
      maybe_win c p
    end
  | Append a -> on_append c p a
  | Append_reply { p_term; p_from; p_applied; p_echo } ->
    if p_term > p.m_term then step_down c p ~term:p_term
    else if p.m_role = Leader && p_term = p.m_term then begin
      Telemetry.incr "control.acks";
      if Int64.compare p_echo p.m_acked_send.(p_from) >= 0 then begin
        let was = leased c p in
        p.m_acked_send.(p_from) <- p_echo;
        p.m_match.(p_from) <- p_applied;
        recompute_lease c.st p;
        (* lease just activated: re-broadcast so serving leases resume
           without waiting out a heartbeat interval *)
        if (not was) && leased c p then broadcast c p;
        advance_commits c p
      end
    end

and on_append c p (a : append) =
  if a.a_term < p.m_term then
    (* stale leader woke up: the ack's term makes it step down *)
    reply_append c p a
  else begin
    set_term c p a.a_term;
    demote c p;
    p.m_heard_at <- c.now;
    (* my acks may extend this leader's lease until now + lease_us:
       the promise a future vote of mine must report *)
    p.m_promise_until <- Int64.add c.now c.st.lease_us;
    (match a.a_snap with
    | Some s when s.s_index > p.m_applied -> install_snapshot c p s
    | _ -> ());
    if prev_ok p ~prev_index:a.a_prev_index ~prev_term:a.a_prev_term then
      ignore (List.for_all (accept_entry c p) a.a_entries : bool)
    else
      (* the anchor disagrees: drop the suffix from the anchor up; the
         ack reports the clamped position and the leader re-ships from
         the agreed prefix *)
      truncate_from p a.a_prev_index;
    (* A suffix above the leader's last entry, stamped by an older
       term, came from a dead leader and is lost — this leader never
       had it. Drop it or it haunts the serving state forever. *)
    let live, junk =
      List.partition
        (fun r -> r.l_index <= a.a_last || r.l_term >= a.a_term)
        p.m_log
    in
    if junk <> [] then begin
      p.m_log <- live;
      p.m_applied <- min p.m_applied (last_index p);
      refresh_state p
    end;
    p.m_commit_index <- max p.m_commit_index (min a.a_commit p.m_applied);
    maybe_compact c p;
    if p.m_needs_resync && p.m_applied >= a.a_last then begin
      p.m_needs_resync <- false;
      Telemetry.incr "control.resyncs";
      note c p "control.resync"
        (Printf.sprintf "caught up through %d" p.m_applied)
    end;
    (* The serving lease renews only under a live leadership lease,
       and only once this member holds everything the leader does —
       the ordering the commit fence relies on. *)
    if a.a_leased && (not p.m_needs_resync) && p.m_applied >= a.a_last then
      renew_serving c p;
    reply_append c p a
  end

and reply_append c p (a : append) =
  send c p a.a_leader
    (Append_reply
       {
         p_term = p.m_term;
         p_from = p.m_id;
         p_applied = p.m_applied;
         p_echo = a.a_sent;
       })

and broadcast c m =
  m.m_last_hb_sent <- c.now;
  recompute_lease c.st m;
  let is_leased = leased c m in
  let last = last_index m in
  Array.iter
    (fun p ->
      if p.m_id <> m.m_id then begin
        let base = min m.m_match.(p.m_id) last in
        let snap, base =
          if base < m.m_snap.s_index then (Some m.m_snap, m.m_snap.s_index)
          else (None, base)
        in
        Telemetry.incr "control.heartbeats";
        send c m p.m_id
          (Append
             {
               a_term = m.m_term;
               a_leader = m.m_id;
               a_sent = c.now;
               a_leased = is_leased;
               a_commit = m.m_commit_index;
               a_last = last;
               a_prev_index = base;
               a_prev_term = term_at m base;
               a_snap = snap;
               a_entries =
                 List.rev (List.filter (fun r -> r.l_index > base) m.m_log);
             })
      end)
    c.st.members

and maybe_win c m =
  if m.m_role = Candidate && List.length m.m_votes_got >= majority c.st then
    become_leader c m

and become_leader c m =
  m.m_role <- Leader;
  let n = Array.length c.st.members in
  m.m_match <- Array.make n 0;
  m.m_acked_send <- Array.make n never_acked;
  m.m_ldr_lease_until <- 0L;
  m.m_fenced <- [];
  note c m "control.election_win"
    (Printf.sprintf "term %d with %d votes" m.m_term
       (List.length m.m_votes_got));
  (* Entries a fallen leader already committed need no re-drive; walk
     the committed prefix first so the fold can catch up and only the
     genuinely uncommitted suffix is re-stamped. *)
  advance_commit_prefix c m;
  maybe_compact c m;
  (* Re-drive the uncommitted suffix under the new term: fresh stamp,
     fresh fence backstop. The stamp is what lets the commit rule count
     acks for an entry an earlier term wrote: left at its old term, the
     entry can commit and still be out-ranked by a dead leader's later
     entry at its index (test_control "figure 8"). *)
  m.m_log <-
    List.map
      (fun r ->
        if r.l_index > m.m_commit_index && r.l_term <> m.m_term then begin
          note c m "control.redrive"
            (Printf.sprintf "entry %d under term %d" r.l_index m.m_term);
          arm c m r.l_id;
          { r with l_term = m.m_term }
        end
        else r)
      m.m_log;
  broadcast c m

let start_election c m =
  set_term c m (m.m_term + 1);
  m.m_voted_for <- Some m.m_id;
  m.m_role <- Candidate;
  m.m_votes_got <- [ m.m_id ];
  m.m_lease_floor <- m.m_promise_until;
  m.m_heard_at <- c.now;
  note c m "control.vote"
    (Printf.sprintf "granted m%d at term %d (self)" m.m_id m.m_term);
  Array.iter
    (fun p ->
      if p.m_id <> m.m_id then
        send c m p.m_id
          (Request_vote
             {
               v_term = m.m_term;
               v_cand = m.m_id;
               v_last_index = last_index m;
               v_last_term = last_term m;
             }))
    c.st.members;
  maybe_win c m

let tick c m =
  if c.live m.m_id then begin
    if m.m_serving && Int64.compare c.now m.m_lease_until >= 0 then begin
      m.m_serving <- false;
      note c m "control.lease_expire"
        (Printf.sprintf "serving lease lapsed at term %d" m.m_term)
    end;
    match m.m_role with
    | Leader ->
      broadcast c m;
      if leased c m && not m.m_needs_resync then renew_serving c m
    | Follower | Candidate ->
      if Int64.compare (Int64.sub c.now m.m_heard_at) (timeout_of m) >= 0 then
        start_election c m
  end

(* The fence backstop: at propose + lease + margin, every member has
   either applied the entry or lost its serving lease — sound only
   while the proposing leader still holds the leadership lease (a
   rival leased leader would imply this one's lease had lapsed
   first). A transiently unleased leader re-arms a heartbeat later. *)
let backstop c m ~id ~term =
  if
    m.m_role = Leader && m.m_term = term
    && (not (Hashtbl.mem c.st.commits_at id))
    && List.exists (fun r -> r.l_id = id && r.l_term = term) m.m_log
  then
    if leased c m then begin
      m.m_fenced <- id :: m.m_fenced;
      advance_commits c m
    end
    else
      emit c
        (Arm { member = m.m_id; at = Int64.add c.now hb_interval_us; id; term })

(* The leader applies its own entries immediately — it renews its
   serving lease only while leased, preserving apply-before-renew. *)
let propose c m e =
  if leased c m then begin
    let st = c.st in
    let idx = last_index m + 1 in
    st.next_id <- st.next_id + 1;
    append_applied c m
      { l_index = idx; l_id = st.next_id; l_term = m.m_term; l_entry = e };
    (match e with
    | Set_version v -> if v > st.version then st.version <- v
    | Invalidate _ -> ());
    if idx > st.next_index then st.next_index <- idx;
    Telemetry.incr "control.proposals";
    arm c m st.next_id;
    advance_commits c m
  end

(* Serving state is volatile: re-derive it by replaying the durable
   stub — snapshot fold, then the retained suffix. Term, vote and
   promise survive as-is (the stub a real deployment fsyncs), so a
   member can never vote twice in a term across a reboot. *)
let restart c m =
  m.m_role <- Follower;
  m.m_lease_until <- 0L;
  m.m_serving <- false;
  m.m_ldr_lease_until <- 0L;
  m.m_votes_got <- [];
  m.m_heard_at <- c.now;
  m.m_version <- c.st.base_version;
  m.m_invals <- [];
  replay_fold c m m.m_snap;
  List.iter (fun r -> apply_entry c m r.l_entry) (List.rev m.m_log);
  m.m_applied <- last_index m;
  m.m_commit_index <- min m.m_commit_index m.m_applied;
  m.m_needs_resync <- c.st.next_index > 0;
  Telemetry.incr "control.restarts"

let step t ~live ~now id input =
  let c = { st = t; live; now; out = [] } in
  let m = t.members.(id) in
  (match input with
  | Tick -> tick c m
  | Deliver msg -> if live id then deliver c m msg
  | Backstop { id; term } -> backstop c m ~id ~term
  | Propose e -> propose c m e
  | Restart -> restart c m);
  List.rev c.out

(* --- observables --- *)

(* The member holding a valid leadership lease (the last one, should
   the invariant ever break). *)
let leased_leader t ~live ~now =
  Array.fold_left
    (fun acc m -> if is_leased ~live ~now m then Some m.m_id else acc)
    None t.members

let leased_leaders t ~live ~now =
  List.filter
    (fun id -> is_leased ~live ~now t.members.(id))
    (List.init (Array.length t.members) Fun.id)

let member_digest m = digest (m.m_version, m.m_invals)

(* The authoritative log: the leased leader's if there is one, else
   the most election-worthy member's — the log any next leader must
   contain. A fresh replica replaying it from scratch reaches
   [replay_digest]. *)
let replay_digest t ~live ~now =
  let worthier m b =
    last_term m > last_term b
    || (last_term m = last_term b && last_index m > last_index b)
  in
  let auth =
    match leased_leader t ~live ~now with
    | Some id -> Some t.members.(id)
    | None ->
      Array.fold_left
        (fun best m ->
          match best with Some b when not (worthier m b) -> best | _ -> Some m)
        None t.members
  in
  match auth with
  | None -> digest (t.base_version, [])
  | Some m -> digest (fold_log m.m_snap (List.rev m.m_log))

(* A leased leader exists, every member holds exactly its log (same
   last index and term — a deposed leader's lost suffix is longer, not
   converged) and has applied it, and every serving lease is live. *)
let converged t ~live ~now =
  match leased_leader t ~live ~now with
  | None -> false
  | Some l ->
    let l = t.members.(l) in
    Array.for_all
      (fun m ->
        last_index m = last_index l
        && last_term m = last_term l
        && m.m_applied = last_index l
        && (not m.m_needs_resync)
        && Int64.compare now m.m_lease_until < 0)
      t.members
