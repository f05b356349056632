(* The static verification service (§3.1).

   Runs phases 1–3 against an environment oracle, collects the
   assumptions the class makes about classes the oracle does not know,
   and rewrites the class into *self-verifying* form: every method with
   deferred assumptions gets a guarded prologue (Figure 3) that invokes
   the dvm/RTVerifier dynamic component once, and class-wide
   assumptions are checked from an injected <clinit> prologue. *)

module CF = Bytecode.Classfile
module CP = Bytecode.Cp
module I = Bytecode.Instr
module D = Bytecode.Descriptor

type stats = {
  sv_static_checks : int; (* checks performed at the server *)
  sv_deferred : int; (* runtime check calls injected *)
}

type outcome =
  | Verified of Bytecode.Classfile.t * stats
  | Rejected of Verror.t list * stats

let zero_stats = { sv_static_checks = 0; sv_deferred = 0 }

(* Guard-field name for a method: unique per (name, descriptor) and
   legal as a field name. *)
let guard_field_name m_name m_desc =
  let sanitized =
    String.map
      (fun c ->
        match c with
        | '<' | '>' | '(' | ')' | '/' | ';' | '[' -> '_'
        | c -> c)
      m_name
  in
  Printf.sprintf "__dvm$%s$%04x" sanitized (Hashtbl.hash (m_name ^ m_desc) land 0xffff)

(* Instructions performing one deferred check (block-relative, straight
   line). Returns the instruction list. *)
let check_call pool (a : Assumptions.assumption) =
  let ldc s = I.Ldc_str (CP.Builder.string pool s) in
  let call name desc =
    I.Invokestatic
      (CP.Builder.methodref pool ~cls:Rt_verifier.class_name ~name ~desc)
  in
  match a with
  | Assumptions.Class_exists c ->
    [ ldc c; call "checkClass" Rt_verifier.desc_check_class ]
  | Assumptions.Subclass_of { sub; super } ->
    [ ldc sub; ldc super; call "checkSubclass" Rt_verifier.desc_check_subclass ]
  | Assumptions.Field_exists { cls; name; desc; static } ->
    [
      ldc cls;
      ldc name;
      ldc desc;
      I.Iconst (if static then 1l else 0l);
      call "checkField" Rt_verifier.desc_check_member;
    ]
  | Assumptions.Method_exists { cls; name; desc; static } ->
    [
      ldc cls;
      ldc name;
      ldc desc;
      I.Iconst (if static then 1l else 0l);
      call "checkMethod" Rt_verifier.desc_check_member;
    ]

(* The guarded prologue of Figure 3:

     if (__checked == 0) {
       RTVerifier.check...(...); ...
       __checked = 1;
     }
     <original code>

   Block-relative targets; the skip target equals the block length, so
   it lands on the original first instruction after patching. *)
let guarded_prologue pool ~cls_name ~field checks =
  let getf =
    I.Getstatic (CP.Builder.fieldref pool ~cls:cls_name ~name:field ~desc:"I")
  in
  let putf =
    I.Putstatic (CP.Builder.fieldref pool ~cls:cls_name ~name:field ~desc:"I")
  in
  let body = List.concat_map (check_call pool) checks in
  let len = 2 + List.length body + 2 in
  (* [getf; ifne->end] @ body @ [iconst1; putf] *)
  [ getf; I.If_z (I.Ne, len) ] @ body @ [ I.Iconst 1l; putf ]

let rewrite_with_assumptions (cf : CF.t) (asms : Assumptions.t) :
    CF.t * int =
  let pool = CP.Builder.of_pool cf.CF.pool in
  let new_fields = ref [] in
  let deferred = ref 0 in
  let class_wide = Assumptions.class_wide asms in
  (* The pool builder is append-only and interning, so guard prologues
     are patched in first and every refit runs against one final pool
     snapshot — identical bounds, without an [Array.sub] of the whole
     pool per guarded method. *)
  let patched =
    List.map
      (fun m ->
        match m.CF.m_code with
        | None -> Either.Left m
        | Some code ->
          let key = m.CF.m_name ^ m.CF.m_desc in
          let own = Assumptions.for_method asms key in
          let is_clinit = String.equal m.CF.m_name "<clinit>" in
          let checks = if is_clinit then own @ class_wide else own in
          if checks = [] then Either.Left m
          else begin
            deferred := !deferred + List.length checks;
            let block =
              if is_clinit then
                (* <clinit> runs exactly once; no guard needed. *)
                List.concat_map (check_call pool) checks
              else begin
                let field = guard_field_name m.CF.m_name m.CF.m_desc in
                new_fields :=
                  {
                    CF.f_name = field;
                    f_desc = "I";
                    f_flags = [ CF.Public; CF.Static ];
                  }
                  :: !new_fields;
                guarded_prologue pool ~cls_name:cf.CF.name ~field checks
              end
            in
            let code =
              Rewrite.Patch.apply_insertions code
                [ Rewrite.Patch.before 0 block ]
            in
            Either.Right (m, code)
          end)
      cf.CF.methods
  in
  (* Class-wide assumptions need a <clinit>; synthesize one if the
     class has none. *)
  let synthesized_clinit =
    if
      class_wide <> []
      && not
           (List.exists
              (fun (m : CF.meth) -> String.equal m.CF.m_name "<clinit>")
              cf.CF.methods)
    then begin
      deferred := !deferred + List.length class_wide;
      let block = List.concat_map (check_call pool) class_wide in
      Some (Array.of_list (block @ [ I.Return ]))
    end
    else None
  in
  let final_pool = CP.Builder.to_pool pool in
  let methods =
    List.map
      (function
        | Either.Left m -> m
        | Either.Right (m, code) ->
          let sg = D.method_sig_of_string m.CF.m_desc in
          let code =
            Rewrite.Patch.refit_bounds final_pool ~params:(D.param_slots sg)
              ~is_static:(CF.has_flag m.CF.m_flags CF.Static)
              code
          in
          { m with CF.m_code = Some code })
      patched
  in
  let methods =
    match synthesized_clinit with
    | None -> methods
    | Some instrs ->
      let clinit =
        {
          CF.m_name = "<clinit>";
          m_desc = "()V";
          m_flags = [ CF.Public; CF.Static ];
          m_code =
            Some
              {
                CF.max_stack =
                  Bytecode.Builder.estimate_max_stack final_pool instrs;
                max_locals = 1;
                instrs;
                handlers = [];
              };
        }
      in
      methods @ [ clinit ]
  in
  ( {
      cf with
      CF.methods;
      fields = cf.CF.fields @ List.rev !new_fields;
      pool = final_pool;
    },
    !deferred )

(* Class-wide environment assumptions: the superclass chain and
   interfaces must exist (and remain superclasses) on the client. *)
let collect_class_assumptions oracle (cf : CF.t) asms =
  let add = Assumptions.add asms ~scope:Assumptions.Class_wide in
  (match cf.CF.super with
  | None -> ()
  | Some s ->
    if oracle s = None then begin
      add (Assumptions.Class_exists s);
      add (Assumptions.Subclass_of { sub = cf.CF.name; super = s })
    end);
  List.iter
    (fun i -> if oracle i = None then add (Assumptions.Class_exists i))
    cf.CF.interfaces

(* Check what is statically checkable about the hierarchy. *)
let check_hierarchy oracle (cf : CF.t) =
  match cf.CF.super with
  | None -> []
  | Some s -> (
    match oracle s with
    | None -> []
    | Some ci ->
      if ci.Oracle.ci_final then
        [
          Verror.make ~cls:cf.CF.name
            (Printf.sprintf "superclass %s is final" s);
        ]
      else [])

let verify ~oracle (cf : CF.t) : outcome =
  let structural_errors, structural_checks = Structural.run cf in
  if structural_errors <> [] then
    Rejected
      (structural_errors, { zero_stats with sv_static_checks = structural_checks })
  else begin
    let oracle_with_self = Oracle.extend oracle [ cf ] in
    let hierarchy_errors = check_hierarchy oracle cf in
    let asms = Assumptions.create () in
    let flow_errors, flow_checks = Dataflow.verify_class oracle_with_self asms cf in
    let static_checks = structural_checks + flow_checks in
    match hierarchy_errors @ flow_errors with
    | _ :: _ as errors ->
      Rejected (errors, { zero_stats with sv_static_checks = static_checks })
    | [] ->
      collect_class_assumptions oracle cf asms;
      let rewritten, deferred = rewrite_with_assumptions cf asms in
      Verified
        (rewritten, { sv_static_checks = static_checks; sv_deferred = deferred })
  end

(* The service as a proxy filter: rejection becomes a Filter.Rejected,
   which the proxy converts into an error-propagation class. Statistics
   accumulate into the provided counters (the remote administration
   console reads them). *)
type counters = {
  mutable total_static_checks : int;
  mutable classes_verified : int;
  mutable classes_rejected : int;
}

let fresh_counters () =
  {
    total_static_checks = 0;
    classes_verified = 0;
    classes_rejected = 0;
  }

let filter ?(counters = fresh_counters ()) ~oracle () =
  Rewrite.Filter.make ~name:"verifier" (fun cf ->
      match verify ~oracle cf with
      | Verified (cf', stats) ->
        counters.total_static_checks <-
          counters.total_static_checks + stats.sv_static_checks;
        counters.classes_verified <- counters.classes_verified + 1;
        if Telemetry.enabled () then begin
          Telemetry.add "verifier.static_checks"
            (Int64.of_int stats.sv_static_checks);
          Telemetry.add "verifier.deferred_checks"
            (Int64.of_int stats.sv_deferred);
          Telemetry.incr "verifier.classes_verified"
        end;
        cf'
      | Rejected (errors, stats) ->
        counters.total_static_checks <-
          counters.total_static_checks + stats.sv_static_checks;
        counters.classes_rejected <- counters.classes_rejected + 1;
        Rewrite.Filter.reject ~filter:"verifier" ~cls:cf.CF.name
          (String.concat "; " (List.map Verror.to_string errors)))
