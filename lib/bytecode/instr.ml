(* The DVM instruction set: a JVM-like typed stack machine over ints,
   references and arrays. In this in-memory form, branch targets are
   *instruction indices* into the method's code array; the binary
   encoder/decoder translate to and from byte offsets. This makes
   rewriting (instruction insertion with target remapping) simple and
   total. *)

type icmp = Eq | Ne | Lt | Ge | Gt | Le

type t =
  | Nop
  | Iconst of int32
  | Ldc_str of int (* CP Str index *)
  | Aconst_null
  | Iload of int
  | Istore of int
  | Aload of int
  | Astore of int
  | Iinc of int * int
  | Iadd
  | Isub
  | Imul
  | Idiv
  | Irem
  | Ineg
  | Ishl
  | Ishr
  | Iand
  | Ior
  | Ixor
  | Dup
  | Dup_x1
  | Pop
  | Swap
  | Goto of int
  | If_icmp of icmp * int
  | If_z of icmp * int (* compare int against zero *)
  | If_acmp of bool * int (* [true] branches when refs are equal *)
  | If_null of bool * int (* [true] branches when ref is null *)
  | Jsr of int
  | Ret of int (* local variable holding the return address *)
  | Tableswitch of { low : int32; targets : int array; default : int }
  | Ireturn
  | Areturn
  | Return
  | Getstatic of int (* CP Fieldref index *)
  | Putstatic of int
  | Getfield of int
  | Putfield of int
  | Invokevirtual of int (* CP Methodref index *)
  | Invokestatic of int
  | Invokespecial of int
  | Invokeinterface of int
  | New of int (* CP Class index *)
  | Newarray (* int array; length on stack *)
  | Anewarray of int (* CP Class index of the element type *)
  | Arraylength
  | Iaload
  | Iastore
  | Aaload
  | Aastore
  | Athrow
  | Checkcast of int (* CP Class index *)
  | Instanceof of int
  | Monitorenter
  | Monitorexit

let targets = function
  | Goto t | If_icmp (_, t) | If_z (_, t) | If_acmp (_, t) | If_null (_, t)
  | Jsr t ->
    [ t ]
  | Tableswitch { targets; default; _ } -> default :: Array.to_list targets
  | Nop | Iconst _ | Ldc_str _ | Aconst_null | Iload _ | Istore _ | Aload _
  | Astore _ | Iinc _ | Iadd | Isub | Imul | Idiv | Irem | Ineg | Ishl | Ishr
  | Iand | Ior | Ixor | Dup | Dup_x1 | Pop | Swap | Ret _ | Ireturn | Areturn
  | Return | Getstatic _ | Putstatic _ | Getfield _ | Putfield _
  | Invokevirtual _ | Invokestatic _ | Invokespecial _ | Invokeinterface _
  | New _ | Newarray
  | Anewarray _ | Arraylength | Iaload | Iastore | Aaload | Aastore | Athrow
  | Checkcast _ | Instanceof _ | Monitorenter | Monitorexit ->
    []

let map_targets f = function
  | Goto t -> Goto (f t)
  | If_icmp (c, t) -> If_icmp (c, f t)
  | If_z (c, t) -> If_z (c, f t)
  | If_acmp (eq, t) -> If_acmp (eq, f t)
  | If_null (isnull, t) -> If_null (isnull, f t)
  | Jsr t -> Jsr (f t)
  | Tableswitch { low; targets; default } ->
    Tableswitch { low; targets = Array.map f targets; default = f default }
  | ( Nop | Iconst _ | Ldc_str _ | Aconst_null | Iload _ | Istore _ | Aload _
    | Astore _ | Iinc _ | Iadd | Isub | Imul | Idiv | Irem | Ineg | Ishl
    | Ishr | Iand | Ior | Ixor | Dup | Dup_x1 | Pop | Swap | Ret _ | Ireturn
    | Areturn | Return | Getstatic _ | Putstatic _ | Getfield _ | Putfield _
    | Invokevirtual _ | Invokestatic _ | Invokespecial _ | Invokeinterface _
    | New _ | Newarray
    | Anewarray _ | Arraylength | Iaload | Iastore | Aaload | Aastore | Athrow
    | Checkcast _ | Instanceof _ | Monitorenter | Monitorexit ) as i ->
    i

(* Does control never fall through to the next instruction? *)
let is_terminator = function
  | Goto _ | Ret _ | Tableswitch _ | Ireturn | Areturn | Return | Athrow ->
    true
  | Nop | Iconst _ | Ldc_str _ | Aconst_null | Iload _ | Istore _ | Aload _
  | Astore _ | Iinc _ | Iadd | Isub | Imul | Idiv | Irem | Ineg | Ishl | Ishr
  | Iand | Ior | Ixor | Dup | Dup_x1 | Pop | Swap | If_icmp _ | If_z _
  | If_acmp _ | If_null _ | Jsr _ | Getstatic _ | Putstatic _ | Getfield _
  | Putfield _ | Invokevirtual _ | Invokestatic _ | Invokespecial _
  | Invokeinterface _ | New _
  | Newarray | Anewarray _ | Arraylength | Iaload | Iastore | Aaload | Aastore
  | Checkcast _ | Instanceof _ | Monitorenter | Monitorexit ->
    false

(* Successor instruction indices of the instruction at [idx]
   (exception edges excluded). *)
let successors idx i =
  let fall = if is_terminator i then [] else [ idx + 1 ] in
  targets i @ fall

let pp_icmp ppf c =
  Format.pp_print_string ppf
    (match c with
    | Eq -> "eq"
    | Ne -> "ne"
    | Lt -> "lt"
    | Ge -> "ge"
    | Gt -> "gt"
    | Le -> "le")

let pp ppf = function
  | Nop -> Format.pp_print_string ppf "nop"
  | Iconst n -> Format.fprintf ppf "iconst %ld" n
  | Ldc_str i -> Format.fprintf ppf "ldc_str #%d" i
  | Aconst_null -> Format.pp_print_string ppf "aconst_null"
  | Iload n -> Format.fprintf ppf "iload %d" n
  | Istore n -> Format.fprintf ppf "istore %d" n
  | Aload n -> Format.fprintf ppf "aload %d" n
  | Astore n -> Format.fprintf ppf "astore %d" n
  | Iinc (n, d) -> Format.fprintf ppf "iinc %d %d" n d
  | Iadd -> Format.pp_print_string ppf "iadd"
  | Isub -> Format.pp_print_string ppf "isub"
  | Imul -> Format.pp_print_string ppf "imul"
  | Idiv -> Format.pp_print_string ppf "idiv"
  | Irem -> Format.pp_print_string ppf "irem"
  | Ineg -> Format.pp_print_string ppf "ineg"
  | Ishl -> Format.pp_print_string ppf "ishl"
  | Ishr -> Format.pp_print_string ppf "ishr"
  | Iand -> Format.pp_print_string ppf "iand"
  | Ior -> Format.pp_print_string ppf "ior"
  | Ixor -> Format.pp_print_string ppf "ixor"
  | Dup -> Format.pp_print_string ppf "dup"
  | Dup_x1 -> Format.pp_print_string ppf "dup_x1"
  | Pop -> Format.pp_print_string ppf "pop"
  | Swap -> Format.pp_print_string ppf "swap"
  | Goto t -> Format.fprintf ppf "goto @%d" t
  | If_icmp (c, t) -> Format.fprintf ppf "if_icmp%a @%d" pp_icmp c t
  | If_z (c, t) -> Format.fprintf ppf "if%a @%d" pp_icmp c t
  | If_acmp (true, t) -> Format.fprintf ppf "if_acmpeq @%d" t
  | If_acmp (false, t) -> Format.fprintf ppf "if_acmpne @%d" t
  | If_null (true, t) -> Format.fprintf ppf "ifnull @%d" t
  | If_null (false, t) -> Format.fprintf ppf "ifnonnull @%d" t
  | Jsr t -> Format.fprintf ppf "jsr @%d" t
  | Ret n -> Format.fprintf ppf "ret %d" n
  | Tableswitch { low; targets; default } ->
    Format.fprintf ppf "tableswitch %ld [%s] default @%d" low
      (String.concat "; "
         (Array.to_list (Array.map (Printf.sprintf "@%d") targets)))
      default
  | Ireturn -> Format.pp_print_string ppf "ireturn"
  | Areturn -> Format.pp_print_string ppf "areturn"
  | Return -> Format.pp_print_string ppf "return"
  | Getstatic i -> Format.fprintf ppf "getstatic #%d" i
  | Putstatic i -> Format.fprintf ppf "putstatic #%d" i
  | Getfield i -> Format.fprintf ppf "getfield #%d" i
  | Putfield i -> Format.fprintf ppf "putfield #%d" i
  | Invokevirtual i -> Format.fprintf ppf "invokevirtual #%d" i
  | Invokestatic i -> Format.fprintf ppf "invokestatic #%d" i
  | Invokespecial i -> Format.fprintf ppf "invokespecial #%d" i
  | Invokeinterface i -> Format.fprintf ppf "invokeinterface #%d" i
  | New i -> Format.fprintf ppf "new #%d" i
  | Newarray -> Format.pp_print_string ppf "newarray int"
  | Anewarray i -> Format.fprintf ppf "anewarray #%d" i
  | Arraylength -> Format.pp_print_string ppf "arraylength"
  | Iaload -> Format.pp_print_string ppf "iaload"
  | Iastore -> Format.pp_print_string ppf "iastore"
  | Aaload -> Format.pp_print_string ppf "aaload"
  | Aastore -> Format.pp_print_string ppf "aastore"
  | Athrow -> Format.pp_print_string ppf "athrow"
  | Checkcast i -> Format.fprintf ppf "checkcast #%d" i
  | Instanceof i -> Format.fprintf ppf "instanceof #%d" i
  | Monitorenter -> Format.pp_print_string ppf "monitorenter"
  | Monitorexit -> Format.pp_print_string ppf "monitorexit"

let to_string i = Format.asprintf "%a" pp i

(* Byte size of the encoded instruction: one opcode byte plus
   fixed-width operands (u2 for indices and locals, i4 for constants,
   u4 absolute byte offsets within the body for branches). Tableswitch
   is variable. *)
let encoded_size = function
  | Nop | Aconst_null | Iadd | Isub | Imul | Idiv | Irem | Ineg | Ishl | Ishr
  | Iand | Ior | Ixor | Dup | Dup_x1 | Pop | Swap | Ireturn | Areturn | Return
  | Newarray | Arraylength | Iaload | Iastore | Aaload | Aastore | Athrow
  | Monitorenter | Monitorexit ->
    1
  | Iload _ | Istore _ | Aload _ | Astore _ | Ret _ | Ldc_str _ | Getstatic _
  | Putstatic _ | Getfield _ | Putfield _ | Invokevirtual _ | Invokestatic _
  | Invokespecial _ | Invokeinterface _ | New _ | Anewarray _ | Checkcast _
  | Instanceof _ ->
    3
  | Iinc _ -> 5
  | Iconst _ -> 5
  | Goto _ | If_icmp _ | If_z _ | If_acmp _ | If_null _ | Jsr _ -> 5
  | Tableswitch { targets; _ } -> 1 + 4 + 4 + 4 + (4 * Array.length targets)
