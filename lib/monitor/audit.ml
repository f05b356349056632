(* The audit trail (§3.3). Events live on a central administration
   host, off-limits to untrusted applications: a security breach may
   stop the creation of new events but cannot tamper with existing
   ones. We make that property checkable with a hash chain — each event
   seals the digest of its predecessor. *)

type event = {
  ev_seq : int;
  ev_time : int64; (* simulated time or client cost when emitted *)
  ev_session : int;
  ev_kind : string; (* e.g. "app.start", "method.enter", "security.deny" *)
  ev_detail : string;
  ev_chain : string; (* hex MD5 over (prev chain ^ this event) *)
}

type t = {
  mutable events : event list; (* newest first *)
  mutable last_chain : string;
  mutable count : int;
  clock : unit -> int64;
      (* supplies ev_time when the caller does not; inject the simulation
         clock here so audit events and telemetry spans agree on
         timestamps *)
}

let create ?(clock = fun () -> 0L) () =
  { events = []; last_chain = "genesis"; count = 0; clock }

(* One seal per audited method entry/exit makes this the hottest
   string-building site in the monitor; a reused buffer assembles the
   identical "prev|seq|time|session|kind|detail" image without the
   printf machinery. *)
let seal_buf = Buffer.create 256

let seal ~prev ~seq ~time ~session ~kind ~detail =
  let b = seal_buf in
  Buffer.clear b;
  Buffer.add_string b prev;
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int seq);
  Buffer.add_char b '|';
  Buffer.add_string b (Int64.to_string time);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int session);
  Buffer.add_char b '|';
  Buffer.add_string b kind;
  Buffer.add_char b '|';
  Buffer.add_string b detail;
  Dsig.Md5.hex_digest (Buffer.contents b)

let append ?time t ~session ~kind ~detail =
  let time = match time with Some t -> t | None -> t.clock () in
  let ev =
    {
      ev_seq = t.count;
      ev_time = time;
      ev_session = session;
      ev_kind = kind;
      ev_detail = detail;
      ev_chain =
        seal ~prev:t.last_chain ~seq:t.count ~time ~session ~kind ~detail;
    }
  in
  t.events <- ev :: t.events;
  t.last_chain <- ev.ev_chain;
  t.count <- t.count + 1

let events t = List.rev t.events

(* Recompute the chain from the beginning; any in-place tampering
   breaks every subsequent seal. *)
let verify_chain t =
  let rec go prev = function
    | [] -> true
    | ev :: rest ->
      String.equal ev.ev_chain
        (seal ~prev ~seq:ev.ev_seq ~time:ev.ev_time ~session:ev.ev_session
           ~kind:ev.ev_kind ~detail:ev.ev_detail)
      && go ev.ev_chain rest
  in
  go "genesis" (events t)

let count t = t.count

let filter_kind t kind =
  List.filter (fun ev -> String.equal ev.ev_kind kind) (events t)

let pp_event ppf ev =
  Format.fprintf ppf "#%d t=%Ldus s=%d %s %s" ev.ev_seq ev.ev_time
    ev.ev_session ev.ev_kind ev.ev_detail
