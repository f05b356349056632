(* Per-node flight recorder: a bounded ring of recent observability
   lines (span completions, reason events), kept per simulated host so
   a post-mortem dump shows what each node saw just before an invariant
   violation.  The ring is deliberately tiny and always writable — the
   cost of a note is an array store — so callers (the trace collector)
   gate on their own enabled flag, not ours. *)

type entry = { fl_at : int64; fl_node : string; fl_line : string }

type ring = {
  mutable buf : entry option array;
  mutable next : int;  (* slot for the next write *)
  mutable total : int;  (* lifetime notes, for the dropped count *)
}

let default_capacity = 256
let capacity = ref default_capacity
let rings : (string, ring) Hashtbl.t = Hashtbl.create 8

let reset () = Hashtbl.reset rings

let set_capacity n =
  capacity := max 1 n;
  reset ()

let ring_for node =
  match Hashtbl.find_opt rings node with
  | Some r -> r
  | None ->
    let r = { buf = Array.make !capacity None; next = 0; total = 0 } in
    Hashtbl.add rings node r;
    r

let note ~at ~node line =
  let r = ring_for node in
  r.buf.(r.next) <- Some { fl_at = at; fl_node = node; fl_line = line };
  r.next <- (r.next + 1) mod Array.length r.buf;
  r.total <- r.total + 1

let nodes () = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) rings [])

(* Oldest-to-newest unrolling of one ring. *)
let ring_entries r =
  let n = Array.length r.buf in
  let acc = ref [] in
  (* Slot [next] holds the oldest entry once the ring has wrapped;
     walking indices downward and consing leaves the list oldest-first. *)
  for i = n - 1 downto 0 do
    match r.buf.((r.next + i) mod n) with
    | Some e -> acc := e :: !acc
    | None -> ()
  done;
  !acc

let entries () =
  List.concat_map (fun n -> ring_entries (Hashtbl.find rings n)) (nodes ())
  |> List.stable_sort (fun a b -> Int64.compare a.fl_at b.fl_at)

let esc s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let dump_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"flight_recorder\":[";
  List.iteri
    (fun i node ->
      if i > 0 then Buffer.add_char b ',';
      let r = Hashtbl.find rings node in
      let kept = ring_entries r in
      Buffer.add_string b
        (Printf.sprintf "\n{\"node\":\"%s\",\"noted\":%d,\"dropped\":%d,\"entries\":["
           (esc node) r.total
           (max 0 (r.total - List.length kept)));
      List.iteri
        (fun j e ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\n {\"at_us\":%Ld,\"line\":\"%s\"}" e.fl_at
               (esc e.fl_line)))
        kept;
      Buffer.add_string b "]}")
    (nodes ());
  Buffer.add_string b "]}\n";
  Buffer.contents b
