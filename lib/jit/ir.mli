(** A register-based intermediate representation — the "native format"
    the compilation service targets. Virtual registers are unbounded;
    {!Regalloc} later maps them onto an architecture's register file. *)

type reg = int
type binop = Add | Sub | Mul | Div | Rem | Shl | Shr | And | Or | Xor
type cond = Eq | Ne | Lt | Ge | Gt | Le

type instr =
  | Const of reg * int32
  | Str of reg * string
  | Null of reg
  | Move of reg * reg
  | Bin of binop * reg * reg * reg
  | Neg of reg * reg
  | Jump of int
  | Branch of cond * reg * reg option * int
      (** compare against a register or against zero/null *)
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
  | Getfield of reg * reg * string * string * string
  | Putfield of reg * reg * string * string * string
  | Getstatic of reg * string * string * string
  | Putstatic of reg * string * string * string
  | New of reg * string
  | Newarr of reg * reg
  | Anewarr of reg * reg * string
  | Arrlen of reg * reg
  | Arrload of reg * reg * reg * [ `Int | `Ref ]
  | Arrstore of reg * reg * reg * [ `Int | `Ref ]
  | Throw of reg
  | Cast of reg * reg * string
  | Instof of reg * reg * string
  | Monitor of reg * bool
  | Guard of [ `Null of reg | `Bounds of reg * reg ]
      (** runtime safety check before a dereference; elided by the
          translator when proxy-side dataflow facts prove it redundant *)
  | Nop

type meth = { ir_name : string; ir_desc : string; code : instr array; nregs : int }

val defs : instr -> reg list
val uses : instr -> reg list
val targets : instr -> int list
val pp_instr : Format.formatter -> instr -> unit

val static_cost : Arch.t -> instr array -> float
(** Static per-pass cost estimate in cost units; interpretation of the
    same stream costs ~1/instruction. *)
