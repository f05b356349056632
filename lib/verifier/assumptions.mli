(** Assumptions a class makes about its environment.

    Collected during the static verification phases and deferred to the
    client as injected runtime checks. Each assumption carries its
    scope: inheritance relationships affect the whole class, member
    references only the methods that use them (§3.1). *)

type assumption =
  | Class_exists of string
  | Subclass_of of { sub : string; super : string }
  | Field_exists of { cls : string; name : string; desc : string; static : bool }
  | Method_exists of { cls : string; name : string; desc : string; static : bool }

type scope =
  | Class_wide
  | In_method of string  (** method name ^ descriptor *)

type entry = { what : assumption; where : scope }
type t

val create : unit -> t

val add : t -> scope:scope -> assumption -> unit
(** Idempotent per (assumption, scope). *)

val class_wide : t -> assumption list
val for_method : t -> string -> assumption list
