(* The abstract frame the value analyses share (`Nullness`,
   `Intrange`): one value per local and an operand stack of values,
   for any value domain. A value may record the local it was loaded
   from (its origin), so branch and dereference evidence can refine
   that local, not just the consumed stack slot.

   The stack shape is [None] ("unknown") whenever join partners
   disagree or the code underflows — analysis must stay total on dead
   or hostile code; an unknown stack simply proves nothing. *)

module I = Bytecode.Instr
module CP = Bytecode.Cp
module D = Bytecode.Descriptor

module type VALUE = sig
  type t

  val unknown : t
  val origin : t -> int option
  val with_origin : t -> int option -> t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (V : VALUE) = struct
  type state = { locals : V.t array; stack : V.t list option }
  type t = state

  (* Slot-wise [f] over two frames; stacks of different heights give
     an unknown stack. *)
  let combine f a b =
    {
      locals = Array.map2 f a.locals b.locals;
      stack =
        (match (a.stack, b.stack) with
        | Some s1, Some s2 when List.length s1 = List.length s2 ->
          Some (List.map2 f s1 s2)
        | _ -> None);
    }

  let join = combine V.join

  let equal a b =
    Array.length a.locals = Array.length b.locals
    && Array.for_all2 V.equal a.locals b.locals
    &&
    match (a.stack, b.stack) with
    | None, None -> true
    | Some s1, Some s2 ->
      List.length s1 = List.length s2 && List.for_all2 V.equal s1 s2
    | _ -> false

  let pop = function
    | Some (x :: rest) -> (x, Some rest)
    | Some [] | None -> (V.unknown, None)

  let popn n st =
    let rec go n st = if n = 0 then st else go (n - 1) (snd (pop st)) in
    go n st

  let push x = function Some s -> Some (x :: s) | None -> None

  (* The value [depth] slots below the top. *)
  let peek stack depth = fst (pop (popn depth stack))

  (* Replace the top of the stack (the value an instruction just
     pushed). *)
  let set_top x st =
    match st.stack with
    | Some (_ :: rest) -> { st with stack = Some (x :: rest) }
    | Some [] | None -> st

  (* A write to local [n] makes every remaining stack slot that
     recorded [n] as its origin stale: the slot still holds the *old*
     value, so refining local [n] through it would be unsound (e.g.
     `aload 1; aconst_null; astore 1; getfield` must not mark local 1
     non-null). Sever the link; the slot's own value stays. *)
  let clear_origin n = function
    | None -> None
    | Some s ->
      Some
        (List.map
           (fun a -> if V.origin a = Some n then V.with_origin a None else a)
           s)

  let set_local locals n x =
    if n < Array.length locals then begin
      let locals = Array.copy locals in
      locals.(n) <- x;
      locals
    end
    else locals

  let degrade st =
    { locals = Array.map (fun _ -> V.unknown) st.locals; stack = None }

  (* A handler receives the locals of the faulting region and exactly
     the thrown reference, [thrown], on the stack. *)
  let exn_adjust thrown _handler st = { st with stack = Some [ thrown ] }

  (* The stack depth of the reference an instruction dereferences: if
     the instruction completes, that reference was non-null. *)
  let deref_depth instr ~pops =
    match instr with
    | I.Getfield _ | I.Arraylength | I.Monitorenter | I.Monitorexit -> Some 0
    | I.Putfield _ | I.Iaload | I.Aaload -> Some 1
    | I.Iastore | I.Aastore -> Some 2
    | I.Invokevirtual _ | I.Invokespecial _ | I.Invokeinterface _ ->
      Some (pops - 1)
    | _ -> None

  (* The transfer for what a domain does not learn from: moves between
     locals and stack slots keep values, every other instruction pops
     its operands and pushes unknown results. [deref v st] lets a
     domain learn from the dereferenced reference [v]. Subroutines are
     outside these analyses' model, and a malformed invoke site is
     unanalysable: both degrade. *)
  let transfer ?(deref = fun _ st -> st) pool instr st =
    let { locals; stack } = st in
    match instr with
    | I.Nop | I.Goto _ | I.Ret _ | I.Return | I.Checkcast _ -> st
    | I.Iinc (n, _) -> { st with stack = clear_origin n stack }
    | I.Iload n | I.Aload n ->
      let v =
        if n < Array.length locals then V.with_origin locals.(n) (Some n)
        else V.unknown
      in
      { st with stack = push v stack }
    | I.Istore n | I.Astore n ->
      let x, stack = pop stack in
      {
        locals = set_local locals n (V.with_origin x (Some n));
        stack = clear_origin n stack;
      }
    | I.Dup -> (
      match stack with
      | Some (x :: _) -> { st with stack = push x stack }
      | _ -> { st with stack = None })
    | I.Dup_x1 -> (
      match stack with
      | Some (a :: b :: rest) -> { st with stack = Some (a :: b :: a :: rest) }
      | _ -> { st with stack = None })
    | I.Swap -> (
      match stack with
      | Some (a :: b :: rest) -> { st with stack = Some (b :: a :: rest) }
      | _ -> { st with stack = None })
    | I.Jsr _ -> degrade st
    | _ -> (
      match Stackeff.effect pool instr with
      | exception (CP.Invalid_index _ | CP.Wrong_kind _ | D.Bad_descriptor _)
        ->
        degrade st
      | pops, pushes -> (
        let popped = popn pops stack in
        let pushed = if pushes = 0 then popped else push V.unknown popped in
        let st' = { st with stack = pushed } in
        match deref_depth instr ~pops with
        | Some depth -> deref (peek stack depth) st'
        | None -> st'))

  let pp_state pp_local pp_slot ppf st =
    Format.fprintf ppf "locals=[%s] stack=%s"
      (String.concat " "
         (Array.to_list
            (Array.map (fun a -> Format.asprintf "%a" pp_local a) st.locals)))
      (match st.stack with
      | None -> "?"
      | Some s ->
        "["
        ^ String.concat " "
            (List.map (fun a -> Format.asprintf "%a" pp_slot a) s)
        ^ "]")
end
