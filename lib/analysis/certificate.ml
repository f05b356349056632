(* Elision certificates: the machine-checkable evidence a rewriting
   service emits for every check it *didn't* insert. The optimizer
   that elides and hoists checks is an attack surface — a soundness
   hole there ships applets with missing guards — so instead of
   trusting it, each elided or hoisted site carries the dataflow fact
   that justifies the elision and the live check sites that establish
   it, in coordinates of the *rewritten* code. A separate
   translation-validation pass ({!Certify}) re-derives the facts from
   scratch and rejects the class when any certificate fails to
   re-prove.

   Facts mirror the analysis domains: available-check (the security
   rewriter's justification), nullness and int-range (the JIT's guard
   elisions, the substrate a tiered compiler can later consume). *)

type fact =
  | Available_check of string
      (* the named permission has been checked on every path reaching
         the site, with no intervening invalidation point *)
  | Nonnull_stack of int
      (* the stack value [depth] slots below the top is provably
         non-null at the site *)
  | Int_range of { slot : int; lo : int; hi : int }
      (* local [slot] is an int within [lo, hi] at the site *)

type kind =
  | Elided of { support : int list }
      (* the live check instructions (invoke sites) whose facts make
         the elided check redundant *)
  | Hoisted of { check_site : int; header : int }
      (* the preheader check instruction standing in for the elided
         in-loop check, and the first instruction of the loop header
         it guards *)

type entry = { ce_site : int; ce_fact : fact; ce_kind : kind }

type method_cert = {
  mc_name : string;
  mc_desc : string;
  mc_entries : entry list;
}

type class_cert = { cc_name : string; cc_methods : method_cert list }

(* --- Store: how certificates travel from the rewriter to the
   post-rewrite gate. Keyed by class name; a re-rewrite of the same
   class replaces its certificate, and rewrites that elide nothing
   clear any stale entry. --- *)

type store = (string, class_cert) Hashtbl.t

let create_store () : store = Hashtbl.create 64

let record (store : store) (cc : class_cert) =
  if List.for_all (fun mc -> mc.mc_entries = []) cc.cc_methods then
    Hashtbl.remove store cc.cc_name
  else Hashtbl.replace store cc.cc_name cc

let find (store : store) name = Hashtbl.find_opt store name

let entries_for (cc : class_cert option) ~meth ~desc =
  match cc with
  | None -> []
  | Some cc ->
    List.concat_map
      (fun mc ->
        if String.equal mc.mc_name meth && String.equal mc.mc_desc desc then
          mc.mc_entries
        else [])
      cc.cc_methods

let entry_count (cc : class_cert) =
  List.fold_left (fun acc mc -> acc + List.length mc.mc_entries) 0 cc.cc_methods

(* --- Rendering, for dvmctl and the audit trail. --- *)
