(* The client garbage collector.

   The paper's own DVM client "includes an interpreter, runtime, and
   garbage collector"; this is that collector in the reproduction's
   accounting model: a stop-the-world mark-sweep that traces
   reachability from the VM's roots (class statics, plus any explicit
   roots the embedder holds) over object fields and reference arrays,
   and retires everything unreached. Memory reclamation is expressed in
   the heap's byte accounting — the substrate beneath is the host
   language's own collector — but the reachability computation, the
   statistics, and the sweep set are real and tested. *)

type stats = {
  live_objects : int;
  live_arrays : int;
  collected_objects : int;
  collected_arrays : int;
  collected_bytes : int;
}

(* Identity of a heap cell, as the collector tracks it. *)
type cell = Cell_obj of Value.obj | Cell_iarr of Value.int_array | Cell_rarr of Value.ref_array

let cell_id = function
  | Cell_obj o -> o.Value.oid
  | Cell_iarr a -> a.Value.aid
  | Cell_rarr a -> a.Value.rid

let cell_of_value = function
  | Value.Obj o -> Some (Cell_obj o)
  | Value.Arr_int a -> Some (Cell_iarr a)
  | Value.Arr_ref a -> Some (Cell_rarr a)
  | Value.Int _ | Value.Null | Value.Str _ | Value.Retaddr _ -> None

let word = 8

let cell_bytes = function
  | Cell_obj o -> (2 * word) + (word * Hashtbl.length o.Value.fields)
  | Cell_iarr a -> (2 * word) + (4 * Array.length a.Value.ints)
  | Cell_rarr a -> (2 * word) + (word * Array.length a.Value.refs)

(* Trace the full reachable set from the given roots. *)
let reachable roots =
  let marked : (int, cell) Hashtbl.t = Hashtbl.create 256 in
  let rec mark v =
    match cell_of_value v with
    | None -> ()
    | Some cell ->
      let id = cell_id cell in
      if not (Hashtbl.mem marked id) then begin
        Hashtbl.replace marked id cell;
        match cell with
        | Cell_obj o -> Hashtbl.iter (fun _ f -> mark f) o.Value.fields
        | Cell_rarr a -> Array.iter mark a.Value.refs
        | Cell_iarr _ -> ()
      end
  in
  List.iter mark roots;
  marked

(* All roots a quiescent VM holds: every loaded class's statics. *)
let vm_roots (vm : Vmstate.t) =
  Hashtbl.fold
    (fun _ (l : Classreg.loaded) acc ->
      Hashtbl.fold (fun _ v acc -> v :: acc) l.Classreg.statics acc)
    vm.Vmstate.reg.Classreg.classes []

(* Collect at a quiescent point (no frames live): everything not
   reachable from statics and [extra_roots] is garbage. The heap's
   byte accounting is rolled back by the collected volume. *)
let collect ?(extra_roots = []) (vm : Vmstate.t) : stats =
  let roots = extra_roots @ vm_roots vm in
  let marked = reachable roots in
  let live_objects = ref 0 and live_arrays = ref 0 in
  Hashtbl.iter
    (fun _ cell ->
      match cell with
      | Cell_obj _ -> incr live_objects
      | Cell_iarr _ | Cell_rarr _ -> incr live_arrays)
    marked;
  (* The heap's allocation counters tell us how much was ever
     allocated; the delta against the marked set is this cycle's
     garbage. *)
  let heap = vm.Vmstate.heap in
  let live_bytes =
    Hashtbl.fold (fun _ c acc -> acc + cell_bytes c) marked 0
  in
  let collected_objects = max 0 (heap.Heap.objects_allocated - !live_objects) in
  let collected_arrays = max 0 (heap.Heap.arrays_allocated - !live_arrays) in
  let collected_bytes = max 0 (heap.Heap.bytes_allocated - live_bytes) in
  (* Roll the accounting forward: the surviving set becomes the new
     baseline, as after a real sweep. *)
  heap.Heap.objects_allocated <- !live_objects;
  heap.Heap.arrays_allocated <- !live_arrays;
  heap.Heap.bytes_allocated <- live_bytes;
  {
    live_objects = !live_objects;
    live_arrays = !live_arrays;
    collected_objects;
    collected_arrays;
    collected_bytes;
  }
