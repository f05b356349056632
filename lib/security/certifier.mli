(** Policy instantiation of the translation-validating certifier
    ({!Analysis.Certify}): recognizes protected sites and enforcement
    checks for a given policy; all global reasoning is re-derived in
    the analysis layer from the rewritten code alone. *)

val env : Policy.t -> Analysis.Certify.env

val certify :
  Policy.t ->
  ?cert:Analysis.Certificate.class_cert ->
  Bytecode.Classfile.t ->
  (Analysis.Certify.stats, Analysis.Certify.reason list) result
