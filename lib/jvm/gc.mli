(** The client garbage collector.

    A stop-the-world mark-sweep over the VM's reachability graph
    (class statics plus explicit embedder roots, through object fields
    and reference arrays), run at quiescent points. Reclamation is
    expressed in the heap's byte accounting — the substrate beneath is
    the host collector — but the reachability computation, statistics
    and sweep set are real. *)

type stats = {
  live_objects : int;
  live_arrays : int;
  collected_objects : int;
  collected_arrays : int;
  collected_bytes : int;
}

type cell =
  | Cell_obj of Value.obj
  | Cell_iarr of Value.int_array
  | Cell_rarr of Value.ref_array

val collect : ?extra_roots:Value.t list -> Vmstate.t -> stats
(** Mark from every loaded class's static fields, then sweep.
    [extra_roots] is there for [test_jvm]'s "gc traces structures
    and cycles", which roots heap graphs no static field holds. *)
