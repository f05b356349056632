(* The control plane's simnet shell. The protocol — election, leases,
   the commit rule, re-drive, compaction, restart replay — is
   [Control_core]; this module owns what the core must not: the
   engine, the hosts and control links, the 250 ms tick loop, the
   apply callbacks and tracing.

   Every call into the core is one [step], and the shell performs the
   step's effects in the order the core returned them — a send becomes
   two link transfers (the sender's uplink, then the receiver's
   downlink), an apply calls the member's callback, an arm schedules
   the backstop input, a note lands on the trace. The engine breaks
   same-time ties by insertion order, so that order is observable:
   the pinned trace digests and commit times check it. *)

module C = Control_core

type entry = C.entry = Set_version of int | Invalidate of string

let entry_to_string = C.entry_to_string

type rig = {
  name : string;
  host : Simnet.Host.t;
  link_to : Simnet.Link.t; (* fabric -> member (downlink) *)
  link_from : Simnet.Link.t; (* member -> fabric (uplink) *)
  apply : entry -> unit;
}

type t = {
  engine : Simnet.Engine.t;
  core : C.t;
  mutable rigs : rig array;
  mutable until : int64;
  mutable trace_ctx : Telemetry.Trace.ctx;
  mutable heartbeats : int;
  (* Reason events seen, by (kind, member): every protocol counter the
     shell reports is a count of the core's own reason events. *)
  notes : (string * int, int) Hashtbl.t;
  mutable leader_changes : int;
  mutable last_leader : int option;
}

(* Wire sizes: an empty heartbeat / ack / vote, and each carried log
   entry (a shipped snapshot costs one entry plus one per pending
   invalidation). *)
let hb_bytes = 64
let entry_bytes = 96

let create engine ?lease_us ?snapshot_threshold ?initial_version () =
  {
    engine;
    core = C.create ?lease_us ?snapshot_threshold ?initial_version ();
    rigs = [||];
    until = 0L;
    trace_ctx = Telemetry.Trace.none;
    heartbeats = 0;
    notes = Hashtbl.create 32;
    leader_changes = 0;
    last_leader = None;
  }

let add_member t ~name ~host ~link_to ~link_from ~apply =
  t.rigs <- Array.append t.rigs [| { name; host; link_to; link_from; apply } |];
  C.add_member t.core ~now:(Simnet.Engine.now t.engine)

let now t = Simnet.Engine.now t.engine
let live t id = Simnet.Host.is_up t.rigs.(id).host

(* A reason event: a same-named telemetry counter, and a line on the
   trace (through it the flight recorder) when the control root span
   is live, directly on the flight recorder otherwise. *)
let note t member kind detail =
  Telemetry.incr kind;
  let key = (kind, member) in
  Hashtbl.replace t.notes key
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.notes key));
  if kind = "control.election_win" && t.last_leader <> Some member then begin
    t.leader_changes <- t.leader_changes + 1;
    t.last_leader <- Some member
  end;
  let node = t.rigs.(member).name in
  if Telemetry.Trace.live t.trace_ctx then
    Telemetry.Trace.event t.trace_ctx ~node ~kind detail
  else
    Telemetry.Flight.note ~at:(now t) ~node (Printf.sprintf "%s %s" kind detail)

let bytes_of = function
  | C.Append a ->
    hb_bytes
    + (entry_bytes * List.length a.C.a_entries)
    + (match a.C.a_snap with
      | None -> 0
      | Some s -> entry_bytes * (1 + List.length s.C.s_pending))
  | C.Request_vote _ | C.Vote_reply _ | C.Append_reply _ -> hb_bytes

let rec step t id input =
  List.iter (perform t)
    (C.step t.core ~live:(live t) ~now:(now t) id input)

and perform t = function
  | C.Send { src; dst; msg } ->
    (match msg with C.Append _ -> t.heartbeats <- t.heartbeats + 1 | _ -> ());
    let bytes = bytes_of msg in
    Simnet.Link.transfer t.rigs.(src).link_from ~bytes (fun () ->
        Simnet.Link.transfer t.rigs.(dst).link_to ~bytes (fun () ->
            step t dst (C.Deliver msg)))
  | C.Apply { member; entry } -> t.rigs.(member).apply entry
  | C.Arm { member; at; id; term } ->
    Simnet.Engine.schedule_at t.engine at (fun () ->
        step t member (C.Backstop { id; term }))
  | C.Note { member; kind; detail } -> note t member kind detail

let rec tick t () =
  if Int64.compare (now t) t.until <= 0 then begin
    Array.iteri (fun id _ -> step t id C.Tick) t.rigs;
    Simnet.Engine.schedule t.engine ~delay:C.hb_interval_us (tick t)
  end

let start t ~until =
  t.until <- until;
  if Telemetry.Trace.enabled () then
    t.trace_ctx <-
      Telemetry.Trace.ctx_of
        (Telemetry.Trace.root ~node:"control" "control.plane");
  tick t ()

let propose t e =
  match C.leased_leader t.core ~live:(live t) ~now:(now t) with
  | None -> None
  | Some id ->
    step t id (C.Propose e);
    Some t.core.C.next_id

let member t id = t.core.C.members.(id)
let member_ok t id = Int64.compare (now t) (member t id).C.m_lease_until < 0
let mark_restarted t id = step t id C.Restart
let committed t ~id = Hashtbl.mem t.core.C.commits_at id
let commit_us t ~id = Hashtbl.find_opt t.core.C.commits_at id
let committed_version t = t.core.C.committed_version
let current_version t = t.core.C.version
let log_length t = t.core.C.next_index
let member_version t id = (member t id).C.m_version
let member_applied t id = (member t id).C.m_applied
let member_term t id = (member t id).C.m_term

let member_role t id =
  match (member t id).C.m_role with
  | C.Follower -> "follower"
  | C.Candidate -> "candidate"
  | C.Leader -> "leader"

let member_snapshot_index t id = (member t id).C.m_snap.C.s_index
let member_state_digest t id = C.member_digest (member t id)
let leader t = C.leased_leader t.core ~live:(live t) ~now:(now t)
let leased_leaders t = C.leased_leaders t.core ~live:(live t) ~now:(now t)

let term t =
  Array.fold_left (fun acc m -> max acc m.C.m_term) 0 t.core.C.members

let replay_digest t = C.replay_digest t.core ~live:(live t) ~now:(now t)
let converged t = C.converged t.core ~live:(live t) ~now:(now t)

let count ?member t kind =
  Hashtbl.fold
    (fun (k, m) n acc ->
      if String.equal k kind && (member = None || member = Some m) then acc + n
      else acc)
    t.notes 0

let member_resyncs t id = count ~member:id t "control.resync"

let member_snapshot_installs t id =
  count ~member:id t "control.snapshot_install"

let heartbeats t = t.heartbeats
let commits t = Hashtbl.length t.core.C.commits_at
let resyncs t = count t "control.resync"
let elections t = count t "control.election_win"
let stepdowns t = count t "control.stepdown"
let redrives t = count t "control.redrive"
let compactions t = count t "control.snapshot_compact"
let snapshot_installs t = count t "control.snapshot_install"
let leader_changes t = t.leader_changes
