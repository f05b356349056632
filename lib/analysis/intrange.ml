(* Integer constant/range analysis with array-length facts.

   Tracks an interval for every int value and, for array references,
   an interval for the array's length (seeded at `newarray` sites
   whose length operand is bounded). `jit/translate` uses the result
   to elide bounds guards: an `iaload` needs no guard when the index
   interval fits inside [0, min-possible-length).

   Intervals are over native ints but model the VM's 32-bit wrapping
   arithmetic: any operation whose exact result could leave the int32
   range degrades to top rather than asserting a wrong bound.
   Widening at retreating edges guarantees termination. *)

module I = Bytecode.Instr

type interval = { lo : int option; hi : int option }
(* [None] bounds are -inf / +inf. Invariant: lo <= hi when both set. *)

let top_iv = { lo = None; hi = None }
let const_iv n = { lo = Some n; hi = Some n }
let of_bounds lo hi = { lo = Some lo; hi = Some hi }

let i32_min = Int32.to_int Int32.min_int
let i32_max = Int32.to_int Int32.max_int

let fits n = n >= i32_min && n <= i32_max

(* Clamp a computed bound pair to top when it could have wrapped. *)
let make lo hi =
  match (lo, hi) with
  | Some l, Some h when fits l && fits h -> { lo; hi }
  | Some l, None when fits l -> { lo; hi = None }
  | None, Some h when fits h -> { lo = None; hi }
  | None, None -> top_iv
  | _ -> top_iv

let join_iv a b =
  let lo =
    match (a.lo, b.lo) with Some x, Some y -> Some (min x y) | _ -> None
  in
  let hi =
    match (a.hi, b.hi) with Some x, Some y -> Some (max x y) | _ -> None
  in
  { lo; hi }

let widen_iv old next =
  {
    lo =
      (match (old.lo, next.lo) with
      | Some o, Some n when n < o -> None
      | _, n -> if old.lo = None then None else n);
    hi =
      (match (old.hi, next.hi) with
      | Some o, Some n when n > o -> None
      | _, n -> if old.hi = None then None else n);
  }

let meet_iv a b =
  let lo =
    match (a.lo, b.lo) with
    | Some x, Some y -> Some (max x y)
    | Some x, None | None, Some x -> Some x
    | None, None -> None
  in
  let hi =
    match (a.hi, b.hi) with
    | Some x, Some y -> Some (min x y)
    | Some x, None | None, Some x -> Some x
    | None, None -> None
  in
  match (lo, hi) with
  | Some l, Some h when l > h -> a (* contradictory path: keep the old fact *)
  | _ -> { lo; hi }

let add_iv a b =
  make
    (match (a.lo, b.lo) with Some x, Some y -> Some (x + y) | _ -> None)
    (match (a.hi, b.hi) with Some x, Some y -> Some (x + y) | _ -> None)

let neg_iv a =
  make
    (match a.hi with Some h -> Some (-h) | None -> None)
    (match a.lo with Some l -> Some (-l) | None -> None)

let sub_iv a b = add_iv a (neg_iv b)

let mul_iv a b =
  match (a.lo, a.hi, b.lo, b.hi) with
  | Some al, Some ah, Some bl, Some bh ->
    let products = [ al * bl; al * bh; ah * bl; ah * bh ] in
    make
      (Some (List.fold_left min max_int products))
      (Some (List.fold_left max min_int products))
  | _ -> top_iv

(* x % c for a constant c > 0: result in (-c, c), and non-negative
   when the dividend is. *)
let rem_iv a b =
  match (b.lo, b.hi) with
  | Some c, Some c' when c = c' && c > 0 ->
    let nonneg = match a.lo with Some l when l >= 0 -> true | _ -> false in
    of_bounds (if nonneg then 0 else -(c - 1)) (c - 1)
  | _ -> top_iv

(* x & c for a constant c >= 0 bounds the result to [0, c]. *)
let and_iv a b =
  let nonneg_const v =
    match (v.lo, v.hi) with
    | Some c, Some c' when c = c' && c >= 0 -> Some c
    | _ -> None
  in
  match (nonneg_const a, nonneg_const b) with
  | Some c, _ | _, Some c -> of_bounds 0 c
  | None, None -> top_iv

type av = {
  iv : interval; (* value interval, when the value is an int *)
  alen : interval option; (* length interval, when the value is an array *)
  origin : int option;
}

let unknown = { iv = top_iv; alen = None; origin = None }
let int_av iv = { iv; alen = None; origin = None }

let widen_av old next =
  {
    iv = widen_iv old.iv next.iv;
    alen =
      (match (old.alen, next.alen) with
      | Some x, Some y -> Some (widen_iv x y)
      | _ -> None);
    origin = next.origin;
  }

let equal_iv a b = a.lo = b.lo && a.hi = b.hi

module F = Frame.Make (struct
  type t = av

  let unknown = unknown
  let origin a = a.origin
  let with_origin a origin = { a with origin }

  let equal a b =
    equal_iv a.iv b.iv && a.origin = b.origin
    &&
    match (a.alen, b.alen) with
    | None, None -> true
    | Some x, Some y -> equal_iv x y
    | _ -> false

  let join a b =
    {
      iv = join_iv a.iv b.iv;
      alen =
        (match (a.alen, b.alen) with
        | Some x, Some y -> Some (join_iv x y)
        | _ -> None);
      origin = (if a.origin = b.origin then a.origin else None);
    }
end)

type state = F.state = { locals : av array; stack : av list option }

let widen = F.combine widen_av

module S = Solver.Make (F)

type result = { before : state option array; iterations : int }

let binop f a b = int_av (f a.iv b.iv)

let transfer pool ~at:_ ~instr (st : state) : state =
  let { locals; stack } = st in
  match instr with
  | I.Iconst n ->
    { st with stack = F.push (int_av (const_iv (Int32.to_int n))) stack }
  | I.Iinc (n, d) ->
    if n < Array.length locals then
      let x = locals.(n) in
      {
        locals = F.set_local locals n { x with iv = add_iv x.iv (const_iv d) };
        stack = F.clear_origin n stack;
      }
    else st
  | I.Iadd | I.Isub | I.Imul | I.Irem | I.Iand | I.Ishr ->
    let b, stack = F.pop stack in
    let a, stack = F.pop stack in
    let res =
      match instr with
      | I.Iadd -> binop add_iv a b
      | I.Isub -> binop sub_iv a b
      | I.Imul -> binop mul_iv a b
      | I.Irem -> binop rem_iv a b
      | I.Iand -> binop and_iv a b
      | _ -> (
        (* x >> c for constant c >= 0 keeps the sign and shrinks
           magnitude: a non-negative x stays within [0, x.hi]. *)
        match (a.iv.lo, b.iv.lo, b.iv.hi) with
        | Some l, Some c, Some c' when l >= 0 && c = c' && c >= 0 ->
          int_av (make (Some 0) a.iv.hi)
        | _ -> int_av top_iv)
    in
    { st with stack = F.push res stack }
  | I.Ineg ->
    let a, stack = F.pop stack in
    { st with stack = F.push (int_av (neg_iv a.iv)) stack }
  | I.Newarray | I.Anewarray _ ->
    let len, stack = F.pop stack in
    let len_iv = meet_iv len.iv (make (Some 0) None) in
    {
      st with
      stack = F.push { iv = top_iv; alen = Some len_iv; origin = None } stack;
    }
  | I.Arraylength ->
    let arr, stack = F.pop stack in
    let iv =
      match arr.alen with Some l -> l | None -> make (Some 0) None
    in
    { st with stack = F.push (int_av iv) stack }
  | I.Instanceof _ ->
    { st with stack = F.push (int_av (of_bounds 0 1)) (F.popn 1 stack) }
  | _ -> F.transfer pool instr st

(* Edge refinement for integer comparisons: on the taken (or
   fall-through) edge of `if_icmp`/`ifXX`, narrow the origin locals of
   the compared values. *)
let constrain post av bound =
  match av.origin with
  | Some n when n < Array.length post.locals ->
    let x = post.locals.(n) in
    {
      post with
      locals = F.set_local post.locals n { x with iv = meet_iv x.iv bound };
    }
  | _ -> post

(* The constraint [v1 cmp v2] as interval bounds for each side. *)
let bounds_of_cmp cmp (iv1 : interval) (iv2 : interval) =
  let minus_one v = match v with Some x -> Some (x - 1) | None -> None in
  let plus_one v = match v with Some x -> Some (x + 1) | None -> None in
  match cmp with
  | I.Lt -> (make None (minus_one iv2.hi), make (plus_one iv1.lo) None)
  | I.Le -> (make None iv2.hi, make iv1.lo None)
  | I.Gt -> (make (plus_one iv2.lo) None, make None (minus_one iv1.hi))
  | I.Ge -> (make iv2.lo None, make None iv1.hi)
  | I.Eq -> (iv2, iv1)
  | I.Ne -> (top_iv, top_iv)

let negate_cmp = function
  | I.Eq -> I.Ne
  | I.Ne -> I.Eq
  | I.Lt -> I.Ge
  | I.Ge -> I.Lt
  | I.Gt -> I.Le
  | I.Le -> I.Gt

(* When the branch target *is* the fall-through (degenerate but
   decodable bytecode), both runtime outcomes reach the same successor,
   so neither the comparison nor its negation holds there — refine
   nothing. *)
let refine ~at ~instr ~target ~pre post =
  let apply cmp v1 v2 =
    let b1, b2 = bounds_of_cmp cmp v1.iv v2.iv in
    constrain (constrain post v1 b1) v2 b2
  in
  match instr with
  | I.If_icmp (cmp, t) when t <> at + 1 -> (
    let cmp = if target = t then cmp else negate_cmp cmp in
    match pre.stack with
    | Some (v2 :: v1 :: _) -> apply cmp v1 v2
    | _ -> post)
  | I.If_z (cmp, t) when t <> at + 1 -> (
    let cmp = if target = t then cmp else negate_cmp cmp in
    match pre.stack with
    | Some (v1 :: _) -> apply cmp v1 (int_av (const_iv 0))
    | _ -> post)
  | _ -> post

let analyze pool ~(max_locals : int) ~(param_slots : int) ~(is_static : bool)
    (cfg : Cfg.t) : result =
  ignore param_slots;
  ignore is_static;
  let locals = Array.init (max 1 max_locals) (fun _ -> unknown) in
  let init = { locals; stack = Some [] } in
  let r =
    S.solve cfg ~init ~transfer:(transfer pool) ~refine
      ~exn_adjust:(F.exn_adjust unknown) ~widen
  in
  { before = r.S.before; iterations = r.S.iterations }

let stack_at (st : state) ~depth =
  match st.stack with None -> None | Some s -> List.nth_opt s depth

(* Is [idx] (at stack depth [idx_depth]) provably within the bounds of
   the array at [arr_depth]? *)
let in_bounds (st : state) ~idx_depth ~arr_depth =
  match (stack_at st ~depth:idx_depth, stack_at st ~depth:arr_depth) with
  | Some idx, Some { alen = Some len; _ } -> (
    match (idx.iv.lo, idx.iv.hi, len.lo) with
    | Some lo, Some hi, Some min_len -> lo >= 0 && hi < min_len
    | _ -> false)
  | _ -> false

let pp_iv ppf iv =
  let b = function None -> "∞" | Some n -> string_of_int n in
  Format.fprintf ppf "[%s%s,%s]"
    (match iv.lo with None -> "-" | Some _ -> "")
    (b iv.lo) (b iv.hi)

let pp_state =
  F.pp_state
    (fun ppf a -> pp_iv ppf a.iv)
    (fun ppf a ->
      match a.alen with
      | Some l -> Format.fprintf ppf "arr(len%a)" pp_iv l
      | None -> pp_iv ppf a.iv)
