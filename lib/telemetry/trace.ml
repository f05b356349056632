(* Distributed request tracing.

   One trace per client request: the client session mints a root
   context, hands it to the farm edge with each attempt, and every hop
   (farm edge, shard node, pipeline leaf) opens a child span under the
   parent it was handed.  Decisions — sheds, breaker trips, hedges,
   failovers, coalesce joins, serve-stale — are attached as reason
   {e events} on the owning span, so a trace answers "why did this
   request end the way it did", not just "where did the time go".

   The collector is a process-wide flat store (spans + events tagged
   with a trace id); the tree structure lives in parent pointers.  All
   timestamps come from an injected clock — [Simnet.Engine.run] points
   it at virtual time — so exports are deterministic under a seeded
   simulation.  Disabled (the default), every operation is a flag
   check; a null context ([none]) likewise short-circuits, so call
   sites never branch. *)

type ctx = { tr : int64; sp : int }

let none = { tr = 0L; sp = 0 }

type srec = {
  s_trace : int64;
  s_id : int;
  s_parent : int;  (* 0 = root *)
  s_node : string;
  s_name : string;
  s_args : (string * string) list;
  s_start : int64;
  mutable s_end : int64;  (* -1 while open *)
}

type erec = {
  e_trace : int64;
  e_span : int;  (* owning span *)
  e_node : string;
  e_kind : string;
  e_detail : string;
  e_at : int64;
}

type span = srec option

(* Collector state. Sequential id minting keeps seeded runs
   reproducible; never use wall time or randomness here. *)
let enabled_flag = ref false
let null_clock () = 0L
let clock = ref null_clock
let max_records = 500_000
let spans_rev : srec list ref = ref []
let span_count_ = ref 0
let dropped_ = ref 0
let events_rev : erec list ref = ref []
let event_count_ = ref 0
let next_trace = ref 1L
let next_span = ref 1
let ambient : (ctx * string) option ref = ref None

let enabled () = !enabled_flag
let enable () = enabled_flag := true
let disable () = enabled_flag := false

let reset () =
  spans_rev := [];
  span_count_ := 0;
  dropped_ := 0;
  events_rev := [];
  event_count_ := 0;
  next_trace := 1L;
  next_span := 1;
  ambient := None;
  Flight.reset ()

let set_clock c = clock := c
let current_clock () = !clock
let live ctx = !enabled_flag && not (Int64.equal ctx.tr 0L)

let span_count () = !span_count_
let event_count () = !event_count_
let dropped () = !dropped_

let alloc ~trace ~parent ~node ~args ~start_us ~end_us name =
  if !span_count_ + !event_count_ >= max_records then begin
    incr dropped_;
    None
  end
  else begin
    let id = !next_span in
    incr next_span;
    let r =
      {
        s_trace = trace;
        s_id = id;
        s_parent = parent;
        s_node = node;
        s_name = name;
        s_args = args;
        s_start = start_us;
        s_end = end_us;
      }
    in
    spans_rev := r :: !spans_rev;
    incr span_count_;
    Some r
  end

let root ?(args = []) ~node name =
  if not !enabled_flag then None
  else begin
    let tr = !next_trace in
    next_trace := Int64.add tr 1L;
    alloc ~trace:tr ~parent:0 ~node ~args ~start_us:(!clock ()) ~end_us:(-1L)
      name
  end

let start ?(args = []) ctx ~node name =
  if live ctx then
    alloc ~trace:ctx.tr ~parent:ctx.sp ~node ~args ~start_us:(!clock ())
      ~end_us:(-1L) name
  else None

let null_span = None

let ctx_of = function
  | None -> none
  | Some r -> { tr = r.s_trace; sp = r.s_id }

let finish = function
  | None -> ()
  | Some r ->
    if Int64.equal r.s_end (-1L) then begin
      r.s_end <- !clock ();
      Flight.note ~at:r.s_end ~node:r.s_node
        (Printf.sprintf "span %s trace=%Lx dur=%Ldus" r.s_name r.s_trace
           (Int64.sub r.s_end r.s_start))
    end

let event ctx ~node ~kind detail =
  if live ctx then begin
    if !span_count_ + !event_count_ >= max_records then incr dropped_
    else begin
      let at = !clock () in
      events_rev :=
        {
          e_trace = ctx.tr;
          e_span = ctx.sp;
          e_node = node;
          e_kind = kind;
          e_detail = detail;
          e_at = at;
        }
        :: !events_rev;
      incr event_count_;
      Flight.note ~at ~node
        (Printf.sprintf "event %s (%s) trace=%Lx" kind detail ctx.tr)
    end
  end

(* Ambient scope: lets instrumentation that has no explicit context
   parameter (Telemetry.with_span leaves inside the pipeline) attach to
   the request being processed. *)
let scope ctx ~node f =
  if live ctx then begin
    let prev = !ambient in
    ambient := Some (ctx, node);
    Fun.protect ~finally:(fun () -> ambient := prev) f
  end
  else f ()

let current () = !ambient

let leaf ?(args = []) ~name ~start_us ~end_us () =
  match !ambient with
  | Some (ctx, node) when live ctx ->
    ignore
      (alloc ~trace:ctx.tr ~parent:ctx.sp ~node ~args ~start_us ~end_us name)
  | _ -> ()

(* Queries. *)
let spans () = List.rev !spans_rev
let events () = List.rev !events_rev
let spans_of tr = List.filter (fun s -> Int64.equal s.s_trace tr) (spans ())
let events_of tr = List.filter (fun e -> Int64.equal e.e_trace tr) (events ())

let trace_ids () =
  let tbl = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace tbl s.s_trace ()) !spans_rev;
  List.iter (fun e -> Hashtbl.replace tbl e.e_trace ()) !events_rev;
  List.sort Int64.compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let find_trace_with ~kind =
  let rec go = function
    | [] -> None
    | e :: rest -> if e.e_kind = kind then Some e.e_trace else go rest
  in
  go (events ())

let event_kind_counts () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let n = try Hashtbl.find tbl e.e_kind with Not_found -> 0 in
      Hashtbl.replace tbl e.e_kind (n + 1))
    !events_rev;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

(* Exporters. *)
let esc = Flight.esc

let args_json args =
  let b = Buffer.create 32 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" (esc k) (esc v)))
    args;
  Buffer.add_char b '}';
  Buffer.contents b

let export_json tr =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "{\"trace_id\":\"%016Lx\",\"spans\":[" tr);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n {\"id\":%d,\"parent\":%d,\"node\":\"%s\",\"name\":\"%s\",\"start_us\":%Ld,\"end_us\":%Ld,\"args\":%s}"
           s.s_id s.s_parent (esc s.s_node) (esc s.s_name) s.s_start s.s_end
           (args_json s.s_args)))
    (spans_of tr);
  Buffer.add_string b "],\"events\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n {\"span\":%d,\"node\":\"%s\",\"kind\":\"%s\",\"detail\":\"%s\",\"at_us\":%Ld}"
           e.e_span (esc e.e_node) (esc e.e_kind) (esc e.e_detail) e.e_at))
    (events_of tr);
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Chrome trace_event export for one trace: one pid per node (sorted),
   spans as complete "X" events, reason events as instants. Open spans
   (a crashed hop) render with duration 1. *)
let export_chrome tr =
  let sps = spans_of tr and evs = events_of tr in
  let node_tbl = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace node_tbl s.s_node ()) sps;
  List.iter (fun e -> Hashtbl.replace node_tbl e.e_node ()) evs;
  let nodes =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) node_tbl [])
  in
  let pid_of n =
    let rec idx i = function
      | [] -> 0
      | x :: rest -> if x = n then i else idx (i + 1) rest
    in
    1 + idx 0 nodes
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "[\n";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b line
  in
  List.iter
    (fun n ->
      emit
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"args\":{\"name\":\"%s\"}}"
           (pid_of n) (esc n)))
    nodes;
  List.iter
    (fun s ->
      let dur =
        if Int64.equal s.s_end (-1L) then 1L
        else Int64.max 1L (Int64.sub s.s_end s.s_start)
      in
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"trace\",\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"ts\":%Ld,\"dur\":%Ld,\"args\":%s}"
           (esc s.s_name) (pid_of s.s_node) s.s_start dur (args_json s.s_args)))
    sps;
  List.iter
    (fun e ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"reason\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":1,\"ts\":%Ld,\"args\":{\"detail\":\"%s\"}}"
           (esc e.e_kind) (pid_of e.e_node) e.e_at (esc e.e_detail)))
    evs;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

(* Human-readable tree for one trace: spans indented under their
   parents, reason events flagged with '!' under the owning span. *)
let render tr =
  let sps = spans_of tr and evs = events_of tr in
  let ids = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace ids s.s_id ()) sps;
  let children = Hashtbl.create 16 in
  let roots = ref [] in
  List.iter
    (fun s ->
      if s.s_parent <> 0 && Hashtbl.mem ids s.s_parent then
        Hashtbl.replace children s.s_parent
          (s :: (try Hashtbl.find children s.s_parent with Not_found -> []))
      else roots := s :: !roots)
    (List.rev sps);
  let evs_of id = List.filter (fun e -> e.e_span = id) evs in
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "trace %016Lx\n" tr);
  let rec walk indent s =
    let dur =
      if Int64.equal s.s_end (-1L) then "open"
      else Printf.sprintf "%Ldus" (Int64.sub s.s_end s.s_start)
    in
    let args =
      match s.s_args with
      | [] -> ""
      | l ->
        " ("
        ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) l)
        ^ ")"
    in
    Buffer.add_string b
      (Printf.sprintf "%s[%s] %s @%Ldus %s%s\n" indent s.s_node s.s_name
         s.s_start dur args);
    List.iter
      (fun e ->
        Buffer.add_string b
          (Printf.sprintf "%s  ! %s: %s @%Ldus\n" indent e.e_kind e.e_detail
             e.e_at))
      (evs_of s.s_id);
    List.iter (walk (indent ^ "  "))
      (try Hashtbl.find children s.s_id with Not_found -> [])
  in
  List.iter (walk "  ") !roots;
  (* Events whose owning span lives on another (never-received) hop. *)
  List.iter
    (fun e ->
      if not (Hashtbl.mem ids e.e_span) then
        Buffer.add_string b
          (Printf.sprintf "  ! %s: %s @%Ldus (span %d)\n" e.e_kind e.e_detail
             e.e_at e.e_span))
    evs;
  Buffer.contents b
