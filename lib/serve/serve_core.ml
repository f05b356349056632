(* A proxy node's serve decision as a core: the fence, the versioned
   L1/L2 lookups, the (class, policy version) single flight and
   admission with its once-only balance.

   The core knows nothing of the engine, the host CPU, the origin or
   the pipeline. Its state is plain data — no closures, no simnet
   values — so a test can copy and hash it, and it moves only through
   [step]: the caller passes one input (a request, a CPU job done or
   failed, the origin's answer, the pipeline's output, a crash) and
   what it reads off the host and the control plane (up, epoch, CPU
   backlog, fence, policy version, now); [step] returns that step's
   effects in order. [Proxy]'s node is the shell that performs them
   over simnet, and must perform them in the order returned: the
   engine breaks same-time ties by insertion order.

   A request is served four ways. An L1 hit streams the cached bytes
   on the CPU. A miss joins the flight already running for its
   (class, version) and settles with it. Otherwise an L2 hit pays the
   transfer on the CPU and rewarms the L1; failing that, the request
   leads a flight: the origin fetch, one pipeline run, and a store
   through both tiers. The leader's continuation stays with the
   caller; a joiner is held as its request id.

   Crashes. The host's epoch ticks on every crash. The first step
   under a new epoch is the crash as far as the core is concerned:
   every flight leaves the join table, so none outlives it. A flight
   whose bytes arrive after its host crashed (down now, or up under a
   later epoch) fails after one zero-delay hop without running the
   pipeline; one whose pipeline run was on the CPU fails when the host
   abandons that job. Either way its leader and joiners all reply
   [Unavailable]. *)

module Cache = Cache
module Admission = Admission

type reply = Bytes of string | Not_found | Unavailable | Overloaded

(* An admitted request, while a CPU job or a flight holds it. *)
type request = {
  cls : string;
  version : int; (* the policy version it was admitted under *)
  since : int; (* admission plus the CPU backlog it waits out, µs *)
  mutable replied : bool;
}

(* A single-flight run for the leader's (class, version). *)
type flight = {
  leader : request;
  epoch : int; (* the host epoch it started in *)
  mutable joiners : int list; (* request ids, newest first *)
  mutable out : (string * int) option; (* pipeline output, its version *)
}

(* Work on the host CPU. *)
type job =
  | Hit of request * string (* stream the L1's bytes *)
  | Rewarm of request * string (* transfer the L2's bytes, store them in L1 *)
  | Missing of request (* the origin has no such class *)
  | Rewrite of flight (* the flight's pipeline run *)

type input =
  | Request of { id : int; cls : string; deadline : int64 option }
  | Done of job
  | Failed of job (* the host was down, or crashed under the job *)
  | Fetched of flight * string option
      (* the origin's answer: its bytes after the fetch, or [None] at once *)
  | Ran of flight * string * int * int64
      (* the pipeline's output, the version it ran under, its CPU cost *)
  | Crash (* the host went down; any step under a new epoch implies it *)

type refusal = Down | Fenced | Shed of Admission.verdict * int64 * int64 option

type output =
  | Refuse of refusal (* reply after one zero-delay hop *)
  | Compute of int64 * job (* run the job on the host CPU *)
  | Join of int * int (* request id parks on a flight; joiners so far *)
  | Fetch of flight (* ask the origin for the leader's class *)
  | Run of flight * string (* run the pipeline on the fetched bytes *)
  | Hop of job (* fail the job after one zero-delay hop *)
  | Reply of reply (* to the request whose job or flight this is *)
  | Settle of reply * int list (* to the leader, then its joiners in order *)

type t = {
  l1 : Cache.t;
  l2 : Cache.t option; (* shared by every node of a farm *)
  admission : Admission.t;
  flights : (string * int, flight) Hashtbl.t; (* joinable, by (class, version) *)
  mutable epoch : int; (* the host epoch last seen *)
}

(* CPU costs of a cache hit, of a missing class, and of an L2 hit: a
   lookup plus the peer-to-peer transfer. *)
let hit_us = 2000L
let missing_us = 500L

let transfer_us ~bps bytes =
  Int64.of_float
    (Float.of_int (String.length bytes) *. 8.0 *. 1_000_000.0 /. Float.of_int bps)

let l2_us bytes = Int64.add 1500L (transfer_us ~bps:100_000_000 bytes)

let create ~l1 ?l2 admission =
  { l1; l2; admission; flights = Hashtbl.create 32; epoch = 0 }

(* Balance the admit exactly once however the request settles. Every
   admitted request but a hit (joiners hold no record) is a miss, whose
   service time feeds the cost EWMA. *)
let finish t ~now ?(miss = true) r =
  if not r.replied then begin
    r.replied <- true;
    Admission.complete t.admission
      ?sample:
        (if miss then Some (Int64.of_int (max 0 (Int64.to_int now - r.since)))
         else None)
  end

let reply t ~now ?miss r x =
  finish t ~now ?miss r;
  [ Reply x ]

let settle t ~now f reply =
  let key = (f.leader.cls, f.leader.version) in
  (match Hashtbl.find_opt t.flights key with
  | Some g when g == f -> Hashtbl.remove t.flights key
  | _ -> ());
  finish t ~now f.leader;
  let joined = List.rev f.joiners in
  List.iter (fun _ -> Admission.complete t.admission) joined;
  [ Settle (reply, joined) ]

let request t ~now ~up ~backlog ~fence ~version ~id ~cls ~deadline =
  if not up then [ Refuse Down ]
  else if not fence then [ Refuse Fenced ]
  else
    (* The estimate peeks at the L1 without touching it, and adds the
       CPU backlog the request would queue behind. *)
    let hit = Cache.mem ~version t.l1 cls in
    let est_us =
      Int64.add backlog (if hit then hit_us else Admission.estimate_us t.admission)
    in
    match Admission.admit t.admission ~now ~deadline ~est_us with
    | (Shed_queue | Shed_deadline) as v -> [ Refuse (Shed (v, est_us, deadline)) ]
    | Admit -> (
      let since = Int64.to_int now + Int64.to_int backlog in
      let r = { cls; version; since; replied = false } in
      match Cache.find ~version t.l1 cls with
      | Some bytes -> [ Compute (hit_us, Hit (r, bytes)) ]
      | None -> (
        match Hashtbl.find_opt t.flights (cls, version) with
        | Some f ->
          f.joiners <- id :: f.joiners;
          [ Join (id, List.length f.joiners) ]
        | None -> (
          match Option.bind t.l2 (fun l2 -> Cache.find ~version l2 cls) with
          | Some bytes -> [ Compute (l2_us bytes, Rewarm (r, bytes)) ]
          | None ->
            let f = { leader = r; epoch = t.epoch; joiners = []; out = None } in
            Hashtbl.replace t.flights (cls, version) f;
            [ Fetch f ])))

let step t ~now ~up ~epoch ~backlog ~fence ~version input =
  if epoch <> t.epoch then begin
    t.epoch <- epoch;
    Hashtbl.reset t.flights
  end;
  match input with
  | Request { id; cls; deadline } ->
    request t ~now ~up ~backlog ~fence ~version ~id ~cls ~deadline
  | Done (Hit (r, bytes)) -> reply t ~now ~miss:false r (Bytes bytes)
  | Done (Rewarm (r, bytes)) ->
    (* Tagged with the version the L2 entry matched, not the node's
       version now: a bump during the transfer must not relabel old
       bytes as new. *)
    Cache.store ~version:r.version t.l1 r.cls bytes;
    reply t ~now r (Bytes bytes)
  | Done (Missing r) -> reply t ~now r Not_found
  | Done (Rewrite f) ->
    let bytes, version = Option.get f.out in
    Cache.store ~version t.l1 f.leader.cls bytes;
    Option.iter (fun l2 -> Cache.store ~version l2 f.leader.cls bytes) t.l2;
    settle t ~now f (Bytes bytes)
  | Failed (Hit (r, _)) -> reply t ~now ~miss:false r Unavailable
  | Failed (Rewarm (r, _) | Missing r) -> reply t ~now r Unavailable
  | Failed (Rewrite f) -> settle t ~now f Unavailable
  | Fetched (f, None) ->
    Hashtbl.remove t.flights (f.leader.cls, f.leader.version);
    [ Compute (missing_us, Missing f.leader) ]
  | Fetched (f, Some raw) ->
    if f.epoch = t.epoch then [ Run (f, raw) ] else [ Hop (Rewrite f) ]
  | Ran (f, bytes, version, cost) ->
    f.out <- Some (bytes, version);
    [ Compute (cost, Rewrite f) ]
  | Crash -> []
