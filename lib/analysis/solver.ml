(* Generic worklist fixed-point solver, functorized over a
   join-semilattice. Forward and block-granular: a FIFO worklist of
   basic blocks, seeded with the entry block, runs each visited
   block's transfers once and records every instruction's entry fact
   on the way. A block is visited again only when its entry fact
   changes, so the facts recorded at its last visit are the
   fixpoint's.

   It is generic in the lattice, supports optional widening at
   retreating-edge targets (the reverse-postorder numbering is used
   only to place them), and lets a domain refine the fact flowing
   along a specific branch edge — how nullness learns from `ifnull`
   and ranges learn from `if_icmp`. A domain may also name the
   successors of a block's last instruction from its fact: the
   verifier's type inference (`Verifier.Dataflow`) sends `jsr t` only
   to [t] and `ret` back past the jsr sites its return address names,
   which the CFG does not model. *)

module I = Bytecode.Instr
module CF = Bytecode.Classfile

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

exception Diverged of string

module Make (L : LATTICE) = struct
  type result = {
    before : L.t option array;
        (* entry fact per instruction; [None] = solver never reached it *)
    iterations : int; (* block processings until fixpoint *)
  }

  let solve ?widen
      ?(refine =
        fun ~at:_ ~instr:_ ~target:_ ~pre:_ post -> post)
      ?(exn_adjust = fun _ f -> f) ?(succs = fun ~at:_ ~instr:_ _ -> None)
      (cfg : Cfg.t) ~(init : L.t)
      ~(transfer : at:int -> instr:I.t -> L.t -> L.t) : result =
    let nblocks = Cfg.block_count cfg in
    let code = cfg.Cfg.code in
    (* Widening points: targets of retreating edges in the rpo
       numbering (a superset of natural-loop headers). *)
    let widen_point =
      match widen with
      | None -> [||]
      | Some _ ->
        let rpo_num = Array.make nblocks max_int in
        Array.iteri (fun i b -> rpo_num.(b) <- i) cfg.Cfg.rpo;
        let widen_point = Array.make nblocks false in
        Array.iter
          (fun b ->
            List.iter
              (fun (v, _) ->
                if rpo_num.(v) <= rpo_num.(b.Cfg.id) then
                  widen_point.(v) <- true)
              b.Cfg.succs)
          cfg.Cfg.blocks;
        widen_point
    in
    (* Handlers covering each block, with their target block ids; a
       handler covers a contiguous run of blocks. *)
    let handlers_of = Array.make nblocks [] in
    let block_of = cfg.Cfg.block_of in
    List.iter
      (fun h ->
        let target = block_of.(h.CF.h_target) in
        for b = block_of.(h.CF.h_start) to block_of.(h.CF.h_end - 1) do
          handlers_of.(b) <- (h, target) :: handlers_of.(b)
        done)
      code.CF.handlers;
    let block_in : L.t option array = Array.make nblocks None in
    let before = Array.make (Array.length code.CF.instrs) None in
    let in_queue = Array.make nblocks false in
    let queue = Queue.create () in
    let enqueue b =
      if not in_queue.(b) then begin
        in_queue.(b) <- true;
        Queue.add b queue
      end
    in
    let join_into b fact =
      match block_in.(b) with
      | None ->
        block_in.(b) <- Some fact;
        enqueue b
      | Some old ->
        let j = L.join old fact in
        let j =
          match widen with
          | Some w when widen_point.(b) -> w old j
          | _ -> j
        in
        if not (L.equal old j) then begin
          block_in.(b) <- Some j;
          enqueue b
        end
    in
    block_in.(0) <- Some init;
    enqueue 0;
    let iterations = ref 0 in
    let limit = (nblocks * 256) + 1024 in
    while not (Queue.is_empty queue) do
      let bid = Queue.take queue in
      in_queue.(bid) <- false;
      incr iterations;
      if !iterations > limit then
        raise
          (Diverged
             (Printf.sprintf "no fixpoint after %d block visits (%d blocks)"
                !iterations nblocks));
      let b = Cfg.block cfg bid in
      let cur = ref (Option.get block_in.(bid)) in
      for idx = b.Cfg.first to b.Cfg.last do
        before.(idx) <- Some !cur;
        (* Exception edge: the handler can observe the state at any
           covered instruction's entry. *)
        List.iter
          (fun (h, target) ->
            if idx >= h.CF.h_start && idx < h.CF.h_end then
              join_into target (exn_adjust h !cur))
          handlers_of.(bid);
        if idx < b.Cfg.last then
          cur := transfer ~at:idx ~instr:code.CF.instrs.(idx) !cur
      done;
      let last = b.Cfg.last in
      let instr = code.CF.instrs.(last) in
      let pre = !cur in
      let post = transfer ~at:last ~instr pre in
      let flow target =
        join_into block_of.(target) (refine ~at:last ~instr ~target ~pre post)
      in
      match succs ~at:last ~instr pre with
      | Some targets -> List.iter flow targets
      | None ->
        List.iter
          (fun (v, kind) ->
            match kind with
            | Cfg.Exn -> ()
            | Cfg.Fall -> flow (last + 1)
            | Cfg.Branch ->
              List.iter
                (fun t -> if block_of.(t) = v then flow t)
                (I.targets instr))
          b.Cfg.succs
    done;
    { before; iterations = !iterations }
end
