(* Host-time spans that the benchmark records around its own calls into
   the system's public functions.

   Host time is the process's CPU clock, not the wall clock: the
   benchmark is one thread that never waits on I/O, so the two differ
   only by the time the machine gives to other work, which is noise
   here, not cost.

   Spans nest through a stack: a span's parent is the innermost span
   still open when it starts, and its self time is its duration minus
   its direct children's durations. Counts, totals and self times are
   aggregated per name as spans close; the first [keep_cap] spans are
   also kept for the spans file the traced run writes when it ends.
   With tracing off (the untraced runs) [with_span] is one flag test. *)

external cpu_ns : unit -> (int[@untagged])
  = "perfbench_cpu_ns_byte" "perfbench_cpu_ns"
[@@noalloc]

let now_ns () = Int64.of_int (cpu_ns ())

type agg = {
  mutable count : int;
  mutable total_ns : int64;
  mutable self_ns : int64;
}

type frame = { id : int; start : int64; f_op : int; mutable child_ns : int64 }

let on = ref false

(* The op that spans opened now belong to; -1 for work no single op
   started (control-plane ticks, a refill another op's miss caused). *)
let op = ref (-1)

(* Set while the traced run re-runs a class outside its timed window, so
   those spans aggregate apart from the window's. *)
let in_probe = ref false

let stack : frame list ref = ref []
let next_id = ref 0
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 64
let keep_cap = 200_000
let kept = ref []
let kept_n = ref 0

let reset () =
  stack := [];
  next_id := 0;
  Hashtbl.reset aggs;
  kept := [];
  kept_n := 0;
  op := -1;
  in_probe := false

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let record name ~id ~parent ~op ~start ~stop ~self_ns =
  let a =
    match Hashtbl.find_opt aggs name with
    | Some a -> a
    | None ->
      let a = { count = 0; total_ns = 0L; self_ns = 0L } in
      Hashtbl.add aggs name a;
      a
  in
  a.count <- a.count + 1;
  a.total_ns <- Int64.add a.total_ns (Int64.sub stop start);
  a.self_ns <- Int64.add a.self_ns self_ns;
  if !kept_n < keep_cap then begin
    incr kept_n;
    kept := (id, parent, op, name, start, stop) :: !kept
  end

let with_span name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let fr = { id = fresh_id (); start = now_ns (); f_op = !op; child_ns = 0L } in
    stack := fr :: !stack;
    let close () =
      let stop = now_ns () in
      stack := List.tl !stack;
      let dur = Int64.sub stop fr.start in
      (match !stack with
      | p :: _ -> p.child_ns <- Int64.add p.child_ns dur
      | [] -> ());
      record name ~id:fr.id ~parent ~op:fr.f_op ~start:fr.start ~stop
        ~self_ns:(Int64.sub dur fr.child_ns)
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* An op runs from its fetch to its settle callback. In a simulation
   that interval overlaps the synchronous spans of everything simulated
   in between, so an op span has no parent and no self time. *)
let op_span ~op ~start ~stop =
  if !on then
    record "op" ~id:(fresh_id ()) ~parent:(-1) ~op ~start ~stop ~self_ns:0L

let get name = Hashtbl.find_opt aggs name
let count name = match get name with Some a -> a.count | None -> 0

let total_ns name =
  match get name with Some a -> Int64.to_float a.total_ns | None -> 0.0

let self_ns name =
  match get name with Some a -> Int64.to_float a.self_ns | None -> 0.0

let mean_us name =
  let n = count name in
  if n = 0 then 0.0 else total_ns name /. Float.of_int n /. 1e3

(* Sum of the total time of every span name with this prefix. *)
let total_with_prefix prefix =
  Hashtbl.fold
    (fun name a acc ->
      if String.starts_with ~prefix name then acc +. Int64.to_float a.total_ns
      else acc)
    aggs 0.0

(* (name, self ns, calls) for every span name, largest self time first. *)
let self_times () =
  Hashtbl.fold
    (fun name a acc -> (name, Int64.to_float a.self_ns, a.count) :: acc)
    aggs []
  |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)

(* One line per kept span: id, parent id (-1: none), op id (-1: none),
   name, and start and end in ns from the earliest kept start. *)
let write path =
  let spans = List.rev !kept in
  let t0 =
    List.fold_left (fun m (_, _, _, _, s, _) -> Int64.min m s) Int64.max_int spans
  in
  let oc = open_out path in
  output_string oc "id\tparent\top\tname\tstart_ns\tend_ns\n";
  List.iter
    (fun (id, parent, op, name, start, stop) ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" id parent op name
        (Int64.sub start t0) (Int64.sub stop t0))
    spans;
  close_out oc
