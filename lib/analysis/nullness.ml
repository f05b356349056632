(* Nullness analysis: which reference values are provably non-null at
   each instruction? Drives null-guard elision in `jit/translate`.

   Abstract values carry a nullness verdict plus an origin local, so a
   branch on `ifnull`/`ifnonnull` — or a successful dereference — can
   refine the *local* the value was loaded from, not just the consumed
   stack slot. Integers can never be null, so they are tracked as
   [Nonnull]; this loses nothing because guards only ever protect
   reference uses. The frame around the values is `Frame`'s. *)

module I = Bytecode.Instr

type v = Null | Nonnull | Maybe

type av = { v : v; origin : int option }

let unknown = { v = Maybe; origin = None }
let nonnull = { v = Nonnull; origin = None }
let null_v = { v = Null; origin = None }

let join_v a b =
  match (a, b) with
  | Null, Null -> Null
  | Nonnull, Nonnull -> Nonnull
  | _ -> Maybe

module F = Frame.Make (struct
  type t = av

  let unknown = unknown
  let origin a = a.origin
  let with_origin a origin = { a with origin }
  let equal a b = a.v = b.v && a.origin = b.origin

  let join a b =
    {
      v = join_v a.v b.v;
      origin = (if a.origin = b.origin then a.origin else None);
    }
end)

type state = F.state = { locals : av array; stack : av list option }

module S = Solver.Make (F)

type result = { before : state option array; iterations : int }

(* A successful dereference proves the receiver non-null afterwards. *)
let settle_nonnull av st =
  match av.origin with
  | Some n when n < Array.length st.locals ->
    let settled = { st.locals.(n) with v = Nonnull } in
    { st with locals = F.set_local st.locals n settled }
  | _ -> st

let transfer pool ~at:_ ~instr (st : state) : state =
  let st' = F.transfer ~deref:settle_nonnull pool instr st in
  match instr with
  | I.Aconst_null -> F.set_top null_v st'
  | I.Iconst _ | I.Ldc_str _ | I.New _ | I.Iadd | I.Isub | I.Imul | I.Idiv
  | I.Irem | I.Ishl | I.Ishr | I.Iand | I.Ior | I.Ixor | I.Ineg | I.Newarray
  | I.Anewarray _ | I.Arraylength | I.Iaload | I.Instanceof _ ->
    (* An int, a fresh object or array, or a string constant. *)
    F.set_top nonnull st'
  | _ -> st'

(* Branch refinement: `ifnull` / `ifnonnull` tell us the popped
   value's nullness on each outgoing edge; propagate to its origin
   local. When the branch target *is* the fall-through (degenerate but
   decodable bytecode), both runtime outcomes reach the same successor
   and neither verdict holds there — refine nothing. *)
let refine ~at ~instr ~target ~pre post =
  match instr with
  | I.If_null (when_null, t) when t <> at + 1 -> (
    let taken = target = t in
    let verdict =
      if taken = when_null then Null else Nonnull
    in
    match pre.stack with
    | Some ({ origin = Some n; _ } :: _) when n < Array.length post.locals ->
      {
        post with
        locals = F.set_local post.locals n { post.locals.(n) with v = verdict };
      }
    | _ -> post)
  | _ -> post

let analyze pool ~(max_locals : int) ~(param_slots : int) ~(is_static : bool)
    (cfg : Cfg.t) : result =
  let locals =
    Array.init (max 1 max_locals) (fun i ->
        (* `this` is never null; parameters are unknown refs. *)
        if (not is_static) && i = 0 then { v = Nonnull; origin = Some 0 }
        else if i < param_slots + if is_static then 0 else 1 then
          { unknown with origin = Some i }
        else unknown)
  in
  let init = { locals; stack = Some [] } in
  let r =
    S.solve cfg ~init ~transfer:(transfer pool) ~refine
      ~exn_adjust:(F.exn_adjust nonnull)
  in
  { before = r.S.before; iterations = r.S.iterations }

(* Is the stack value at depth [k] from the top provably non-null? *)
let stack_nonnull (st : state) ~depth =
  match st.stack with
  | None -> false
  | Some s -> (
    match List.nth_opt s depth with
    | Some { v = Nonnull; _ } -> true
    | _ -> false)

let pp_v ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Nonnull -> Format.pp_print_string ppf "nonnull"
  | Maybe -> Format.pp_print_string ppf "maybe"

let pp_state =
  let pp_av ppf a = pp_v ppf a.v in
  F.pp_state pp_av pp_av
