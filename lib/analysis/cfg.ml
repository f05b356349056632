(* Basic-block control-flow graph over a method's instruction array.

   Blocks are maximal straight-line runs; edges carry a kind so
   clients can distinguish fall-through, explicit branches and
   exception dispatch. Exception edges are block-granular: every block
   that intersects a handler's protected range gets an edge to the
   handler's target block, which over-approximates the instruction-
   level dispatch and is therefore safe for both may- and
   must-analyses (must-analyses see *more* merge paths, never fewer).

   The same graph backs the dominator computation, the fixed-point
   solver, dead-code reachability (`Rewrite.Patch.recompute`), and the
   `dvmctl analyze` report. *)

module I = Bytecode.Instr
module CF = Bytecode.Classfile

exception Malformed of string

type edge = Fall | Branch | Exn

type block = {
  id : int;
  first : int;
  last : int; (* inclusive *)
  mutable succs : (int * edge) list;
  mutable preds : (int * edge) list;
}

type t = {
  code : CF.code;
  blocks : block array;
  block_of : int array;
  reachable : bool array;
  rpo : int array;
}

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

(* Mark each of [ts], the targets of instruction [idx], a leader,
   range-checking it first. *)
let rec mark_targets leader n idx = function
  | [] -> ()
  | t :: ts ->
    if t < 0 || t >= n then
      malformed "branch target @%d out of range at instruction %d" t idx;
    leader.(t) <- true;
    mark_targets leader n idx ts

let rec has_edge v kind = function
  | [] -> false
  | (v', k') :: rest -> (v' = v && k' = kind) || has_edge v kind rest

(* Edges are consed and reversed once all are in, which keeps
   insertion order: edge order decides the solver's join order. *)
let add_edge blocks u v kind =
  let bu = blocks.(u) in
  if not (has_edge v kind bu.succs) then begin
    bu.succs <- (v, kind) :: bu.succs;
    blocks.(v).preds <- (u, kind) :: blocks.(v).preds
  end

let rec add_branch_edges blocks block_of u = function
  | [] -> ()
  | t :: ts ->
    add_edge blocks u block_of.(t) Branch;
    add_branch_edges blocks block_of u ts

let of_code (code : CF.code) : t =
  let instrs = code.CF.instrs in
  let n = Array.length instrs in
  if n = 0 then malformed "empty code array";
  (* Leaders: entry, branch targets, fall-throughs of branching
     instructions, and handler boundaries (so exception edges start and
     stop on block boundaries). Targets are range-checked as they are
     marked, in instruction order, so the first bad target is the one
     reported, and falling off the end is found at the last
     instruction, after its own targets. *)
  let leader = Array.make n false in
  leader.(0) <- true;
  for idx = 0 to n - 1 do
    let ins = instrs.(idx) in
    let ts = I.targets ins in
    mark_targets leader n idx ts;
    let term = I.is_terminator ins in
    if (not term) && idx = n - 1 then
      malformed "control falls off the end of the code array";
    let branches = match ts with [] -> term | _ :: _ -> true in
    if branches && idx + 1 < n then leader.(idx + 1) <- true
  done;
  List.iter
    (fun h ->
      if
        h.CF.h_start < 0 || h.CF.h_end > n
        || h.CF.h_start >= h.CF.h_end
        || h.CF.h_target < 0 || h.CF.h_target >= n
      then malformed "handler range [%d,%d)->%d invalid" h.CF.h_start h.CF.h_end h.CF.h_target)
    code.CF.handlers;
  List.iter
    (fun h ->
      leader.(h.CF.h_start) <- true;
      if h.CF.h_end < n then leader.(h.CF.h_end) <- true;
      leader.(h.CF.h_target) <- true)
    code.CF.handlers;
  let block_of = Array.make n 0 in
  let nblocks = ref 0 in
  for idx = 0 to n - 1 do
    if leader.(idx) then incr nblocks;
    block_of.(idx) <- !nblocks - 1
  done;
  let blocks =
    Array.make !nblocks { id = 0; first = 0; last = 0; succs = []; preds = [] }
  in
  (* Backwards, so each block ends just before the next one starts. *)
  let last = ref (n - 1) in
  for first = n - 1 downto 0 do
    if leader.(first) then begin
      let id = block_of.(first) in
      blocks.(id) <- { id; first; last = !last; succs = []; preds = [] };
      last := first - 1
    end
  done;
  for id = 0 to Array.length blocks - 1 do
    let b = blocks.(id) in
    let ins = instrs.(b.last) in
    add_branch_edges blocks block_of id (I.targets ins);
    if (not (I.is_terminator ins)) && b.last + 1 < n then
      add_edge blocks id block_of.(b.last + 1) Fall
  done;
  (* A handler's range starts and ends on block boundaries, so the
     blocks it covers are a contiguous run of ids. *)
  List.iter
    (fun h ->
      let target = block_of.(h.CF.h_target) in
      for b = block_of.(h.CF.h_start) to block_of.(h.CF.h_end - 1) do
        add_edge blocks b target Exn
      done)
    code.CF.handlers;
  for id = 0 to Array.length blocks - 1 do
    let b = blocks.(id) in
    b.succs <- List.rev b.succs;
    b.preds <- List.rev b.preds
  done;
  (* Reachability and reverse postorder from the entry block, over all
     edge kinds. *)
  let reachable = Array.make (Array.length blocks) false in
  let post = ref [] in
  let rec dfs u =
    if not reachable.(u) then begin
      reachable.(u) <- true;
      List.iter (fun (v, _) -> dfs v) blocks.(u).succs;
      post := u :: !post
    end
  in
  dfs 0;
  { code; blocks; block_of; reachable; rpo = Array.of_list !post }

let block_count g = Array.length g.blocks
let block g i = g.blocks.(i)

let instr_reachable g =
  let r = Array.make (Array.length g.code.CF.instrs) false in
  Array.iter
    (fun b ->
      if g.reachable.(b.id) then
        for i = b.first to b.last do
          r.(i) <- true
        done)
    g.blocks;
  r

let edge_name = function Fall -> "fall" | Branch -> "branch" | Exn -> "exn"

let pp ppf g =
  Array.iter
    (fun b ->
      Format.fprintf ppf "@[<v2>block %d [%d..%d]%s:%a@]@\nsuccs: %s@\n"
        b.id b.first b.last
        (if g.reachable.(b.id) then "" else " (unreachable)")
        (fun ppf () ->
          for i = b.first to b.last do
            Format.fprintf ppf "@,%4d: %a" i I.pp g.code.CF.instrs.(i)
          done)
        ()
        (String.concat ", "
           (List.map
              (fun (v, k) -> Printf.sprintf "%d(%s)" v (edge_name k))
              b.succs)))
    g.blocks

let to_dot ?(name = "cfg") g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  node [shape=box fontname=monospace];\n" name);
  Array.iter
    (fun b ->
      let label = Buffer.create 64 in
      Buffer.add_string label (Printf.sprintf "B%d [%d..%d]\\l" b.id b.first b.last);
      for i = b.first to b.last do
        Buffer.add_string label
          (Printf.sprintf "%d: %s\\l" i (I.to_string g.code.CF.instrs.(i)))
      done;
      Buffer.add_string buf
        (Printf.sprintf "  b%d [label=\"%s\"%s];\n" b.id (Buffer.contents label)
           (if g.reachable.(b.id) then "" else " style=dotted"));
      List.iter
        (fun (v, k) ->
          Buffer.add_string buf
            (Printf.sprintf "  b%d -> b%d%s;\n" b.id v
               (match k with
               | Fall -> ""
               | Branch -> " [color=blue]"
               | Exn -> " [color=red style=dashed]")))
        b.succs)
    g.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
