(* A register-based intermediate representation: the "native format"
   the compilation service targets. Virtual registers are unbounded;
   the allocator later maps them onto an architecture's register file,
   spilling the rest to frame slots. *)

type reg = int

type binop = Add | Sub | Mul | Div | Rem | Shl | Shr | And | Or | Xor

type cond = Eq | Ne | Lt | Ge | Gt | Le

type instr =
  | Const of reg * int32
  | Str of reg * string
  | Null of reg
  | Move of reg * reg (* dst, src *)
  | Bin of binop * reg * reg * reg (* op dst a b *)
  | Neg of reg * reg
  | Jump of int
  | Branch of cond * reg * reg option * int (* cmp a (b | zero) -> target *)
  | Switch of { src : reg; low : int32; targets : int array; default : int }
  | Ret of reg option
  | Call of {
      kind : [ `Virtual | `Static | `Special ];
      cls : string;
      name : string;
      desc : string;
      args : reg list;
      dst : reg option;
    }
  | Getfield of reg * reg * string * string * string (* dst obj cls name desc *)
  | Putfield of reg * reg * string * string * string (* obj src cls name desc *)
  | Getstatic of reg * string * string * string
  | Putstatic of reg * string * string * string
  | New of reg * string
  | Newarr of reg * reg (* dst len *)
  | Anewarr of reg * reg * string
  | Arrlen of reg * reg
  | Arrload of reg * reg * reg * [ `Int | `Ref ] (* dst arr idx *)
  | Arrstore of reg * reg * reg * [ `Int | `Ref ] (* arr idx src *)
  | Throw of reg
  | Cast of reg * reg * string
  | Instof of reg * reg * string
  | Monitor of reg * bool (* enter? *)
  | Guard of [ `Null of reg | `Bounds of reg * reg ]
    (* runtime safety check: trap unless reg non-null / idx within
       array bounds. Emitted before dereference sites; the translator
       elides one when proxy-side dataflow facts prove it redundant. *)
  | Nop

type meth = {
  ir_name : string;
  ir_desc : string;
  code : instr array;
  nregs : int; (* virtual register count *)
}

let defs = function
  | Const (d, _) | Str (d, _) | Null d | Move (d, _) | Bin (_, d, _, _)
  | Neg (d, _)
  | Getfield (d, _, _, _, _)
  | Getstatic (d, _, _, _)
  | New (d, _)
  | Newarr (d, _)
  | Anewarr (d, _, _)
  | Arrlen (d, _)
  | Arrload (d, _, _, _)
  | Cast (d, _, _)
  | Instof (d, _, _) ->
    [ d ]
  | Call { dst = Some d; _ } -> [ d ]
  | Call { dst = None; _ }
  | Jump _ | Branch _ | Switch _ | Ret _
  | Putfield _ | Putstatic _ | Arrstore _ | Throw _ | Monitor _ | Guard _
  | Nop ->
    []

let uses = function
  | Const _ | Str _ | Null _ | New _ | Getstatic _ | Jump _ | Nop -> []
  | Move (_, s) | Neg (_, s) -> [ s ]
  | Bin (_, _, a, b) -> [ a; b ]
  | Branch (_, a, Some b, _) -> [ a; b ]
  | Branch (_, a, None, _) -> [ a ]
  | Switch { src; _ } -> [ src ]
  | Ret (Some r) -> [ r ]
  | Ret None -> []
  | Call { args; _ } -> args
  | Getfield (_, o, _, _, _) -> [ o ]
  | Putfield (o, s, _, _, _) -> [ o; s ]
  | Putstatic (s, _, _, _) -> [ s ]
  | Newarr (_, l) -> [ l ]
  | Anewarr (_, l, _) -> [ l ]
  | Arrlen (_, a) -> [ a ]
  | Arrload (_, a, i, _) -> [ a; i ]
  | Arrstore (a, i, s, _) -> [ a; i; s ]
  | Throw r | Cast (_, r, _) | Instof (_, r, _) | Monitor (r, _) -> [ r ]
  | Guard (`Null r) -> [ r ]
  | Guard (`Bounds (a, i)) -> [ a; i ]

let targets = function
  | Jump t | Branch (_, _, _, t) -> [ t ]
  | Switch { targets; default; _ } -> default :: Array.to_list targets
  | _ -> []

let pp_instr ppf i =
  let r n = Format.sprintf "r%d" n in
  match i with
  | Const (d, v) -> Format.fprintf ppf "%s <- %ld" (r d) v
  | Str (d, s) -> Format.fprintf ppf "%s <- %S" (r d) s
  | Null d -> Format.fprintf ppf "%s <- null" (r d)
  | Move (d, s) -> Format.fprintf ppf "%s <- %s" (r d) (r s)
  | Bin (op, d, a, b) ->
    let ops =
      match op with
      | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
      | Shl -> "<<" | Shr -> ">>" | And -> "&" | Or -> "|" | Xor -> "^"
    in
    Format.fprintf ppf "%s <- %s %s %s" (r d) (r a) ops (r b)
  | Neg (d, s) -> Format.fprintf ppf "%s <- -%s" (r d) (r s)
  | Jump t -> Format.fprintf ppf "jump @%d" t
  | Branch (_, a, Some b, t) ->
    Format.fprintf ppf "br %s ? %s @%d" (r a) (r b) t
  | Branch (_, a, None, t) -> Format.fprintf ppf "br %s ? 0 @%d" (r a) t
  | Switch { src; _ } -> Format.fprintf ppf "switch %s" (r src)
  | Ret (Some x) -> Format.fprintf ppf "ret %s" (r x)
  | Ret None -> Format.fprintf ppf "ret"
  | Call { cls; name; _ } -> Format.fprintf ppf "call %s.%s" cls name
  | Getfield (d, o, _, n, _) -> Format.fprintf ppf "%s <- %s.%s" (r d) (r o) n
  | Putfield (o, s, _, n, _) -> Format.fprintf ppf "%s.%s <- %s" (r o) n (r s)
  | Getstatic (d, c, n, _) -> Format.fprintf ppf "%s <- %s.%s" (r d) c n
  | Putstatic (s, c, n, _) -> Format.fprintf ppf "%s.%s <- %s" c n (r s)
  | New (d, c) -> Format.fprintf ppf "%s <- new %s" (r d) c
  | Newarr (d, l) -> Format.fprintf ppf "%s <- new int[%s]" (r d) (r l)
  | Anewarr (d, l, c) -> Format.fprintf ppf "%s <- new %s[%s]" (r d) c (r l)
  | Arrlen (d, a) -> Format.fprintf ppf "%s <- len %s" (r d) (r a)
  | Arrload (d, a, i, _) -> Format.fprintf ppf "%s <- %s[%s]" (r d) (r a) (r i)
  | Arrstore (a, i, s, _) -> Format.fprintf ppf "%s[%s] <- %s" (r a) (r i) (r s)
  | Throw x -> Format.fprintf ppf "throw %s" (r x)
  | Cast (d, s, c) -> Format.fprintf ppf "%s <- (%s) %s" (r d) c (r s)
  | Instof (d, s, c) -> Format.fprintf ppf "%s <- %s instanceof %s" (r d) (r s) c
  | Monitor (x, e) ->
    Format.fprintf ppf "monitor%s %s" (if e then "enter" else "exit") (r x)
  | Guard (`Null x) -> Format.fprintf ppf "guard nonnull %s" (r x)
  | Guard (`Bounds (a, i)) ->
    Format.fprintf ppf "guard bounds %s[%s]" (r a) (r i)
  | Nop -> Format.pp_print_string ppf "nop"

(* Static cost of a method body on an architecture (cost units):
   interpretation of the same stream costs ~1/instruction, so this is
   the compiled-speedup estimate the compilation service reports. *)
let static_cost (arch : Arch.t) code =
  Array.fold_left
    (fun acc i ->
      acc
      +.
      match i with
      | Const _ | Str _ | Null _ | Move _ | Bin _ | Neg _ | Cast _ | Instof _
      | Nop ->
        arch.Arch.cost_alu
      | Jump _ | Branch _ | Switch _ | Ret _ | Guard _ -> arch.Arch.cost_branch
      | Call _ | New _ | Newarr _ | Anewarr _ | Throw _ | Monitor _ ->
        arch.Arch.cost_call
      | Getfield _ | Putfield _ | Getstatic _ | Putstatic _ | Arrlen _
      | Arrload _ | Arrstore _ ->
        arch.Arch.cost_mem)
    0.0 code
