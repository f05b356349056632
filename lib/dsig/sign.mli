(** Code signing for transformed classes (§2).

    Signatures attached by the static service components make injected
    checks inseparable from applications; clients redirect incorrectly
    signed or unsigned code back to the centralized services.

    Substitution (DESIGN.md): keyed-MD5 (HMAC construction) over a
    shared organization key stands in for the paper's RSA. *)

type key = { key_id : string; secret : string }

val signature_attribute : string
val make_key : key_id:string -> secret:string -> key

val sign : key -> Bytecode.Classfile.t -> Bytecode.Classfile.t
(** Attach a signature attribute covering the class bytes without the
    attribute itself. *)

type verdict = Valid | Unsigned | Bad_signature | Unknown_key of string

val verify : key list -> Bytecode.Classfile.t -> verdict

val sign_cost_us : bytes:int -> int
val verify_cost_us : bytes:int -> int
