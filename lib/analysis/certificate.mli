(** Elision certificates: machine-checkable evidence for every check a
    rewriting service elided or hoisted, in coordinates of the
    {e rewritten} code. {!Certify} re-derives each fact independently
    and rejects classes whose certificates fail to re-prove. *)

type fact =
  | Available_check of string
      (** the named permission has been checked on every path reaching
          the site, with no intervening invalidation point *)
  | Nonnull_stack of int
      (** the stack value [depth] slots below the top is provably
          non-null at the site *)
  | Int_range of { slot : int; lo : int; hi : int }
      (** local [slot] is an int within [lo, hi] at the site *)

type kind =
  | Elided of { support : int list }
      (** live check instructions whose facts make the elided check
          redundant *)
  | Hoisted of { check_site : int; header : int }
      (** the preheader check standing in for the elided in-loop
          check, and the first instruction of the loop header *)

type entry = { ce_site : int; ce_fact : fact; ce_kind : kind }

type method_cert = {
  mc_name : string;
  mc_desc : string;
  mc_entries : entry list;
}

type class_cert = { cc_name : string; cc_methods : method_cert list }

(** {1 Store} — how certificates travel from the rewriter to the
    post-rewrite gate. Keyed by class name. *)

type store

val create_store : unit -> store

val record : store -> class_cert -> unit
(** Replaces any previous certificate for the class; recording a
    certificate with no entries clears the slot. *)

val find : store -> string -> class_cert option
val entries_for : class_cert option -> meth:string -> desc:string -> entry list
val entry_count : class_cert -> int
