(* Dominator tree over a CFG, computed with the Cooper–Harvey–Kennedy
   iterative algorithm on the reverse-postorder numbering. All edge
   kinds participate: a handler target is dominated only by what
   dominates every throwing block, which is exactly what check-elision
   soundness needs. *)

type t = {
  cfg : Cfg.t;
  idom : int array; (* block id -> immediate dominator; entry maps to itself; -1 = unreachable *)
}

let compute (cfg : Cfg.t) : t =
  let n = Cfg.block_count cfg in
  let rpo_num = Array.make n max_int in
  Array.iteri (fun i b -> rpo_num.(b) <- i) cfg.Cfg.rpo;
  let idom = Array.make n (-1) in
  let entry = 0 in
  idom.(entry) <- entry;
  let rec intersect u v =
    if u = v then u
    else if rpo_num.(u) > rpo_num.(v) then intersect idom.(u) v
    else intersect u idom.(v)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> entry then begin
          let preds =
            List.filter_map
              (fun (p, _) -> if idom.(p) >= 0 then Some p else None)
              (Cfg.block cfg b).Cfg.preds
          in
          match preds with
          | [] -> ()
          | first :: rest ->
            let d = List.fold_left intersect first rest in
            if idom.(b) <> d then begin
              idom.(b) <- d;
              changed := true
            end
        end)
      cfg.Cfg.rpo
  done;
  { cfg; idom }

let idom t b = if b = 0 then None else if t.idom.(b) < 0 then None else Some t.idom.(b)

(* Does block [a] dominate block [b]? Walks up the dominator tree from
   [b]; depth is bounded by the tree height. *)
let dominates t a b =
  if t.idom.(b) < 0 then false
  else
    let rec up v = if v = a then true else if v = 0 then a = 0 else up t.idom.(v) in
    up b

(* Back edges u→v (v dominates u), over non-exception edges: the
   arcs that close natural loops. *)
let back_edges t =
  let edges = ref [] in
  Array.iter
    (fun b ->
      if t.cfg.Cfg.reachable.(b.Cfg.id) then
        List.iter
          (fun (v, kind) ->
            if kind <> Cfg.Exn && dominates t v b.Cfg.id then
              edges := (b.Cfg.id, v) :: !edges)
          b.Cfg.succs)
    t.cfg.Cfg.blocks;
  List.rev !edges

(* The natural loop of back edge (latch, header): header plus every
   block that reaches latch without passing through header. *)
let natural_loop t (latch, header) =
  let in_loop = Hashtbl.create 16 in
  Hashtbl.replace in_loop header ();
  let rec pull u =
    if not (Hashtbl.mem in_loop u) then begin
      Hashtbl.replace in_loop u ();
      List.iter (fun (p, _) -> pull p) (Cfg.block t.cfg u).Cfg.preds
    end
  in
  pull latch;
  in_loop

type loop = {
  header : int;
  latches : int list;
  body : (int, unit) Hashtbl.t; (* block ids, header included *)
}

(* Natural loops grouped by header (merging bodies of shared-header
   back edges). *)
let loops t =
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let body = natural_loop t (latch, header) in
      match Hashtbl.find_opt by_header header with
      | None -> Hashtbl.replace by_header header { header; latches = [ latch ]; body }
      | Some l ->
        Hashtbl.iter (fun b () -> Hashtbl.replace l.body b ()) body;
        Hashtbl.replace by_header header { l with latches = latch :: l.latches })
    (back_edges t);
  Hashtbl.fold (fun _ l acc -> l :: acc) by_header []
