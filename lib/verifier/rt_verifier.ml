(* The dynamic component of the distributed verification service: a
   small runtime class (dvm/RTVerifier) whose natives perform the
   deferred link-phase checks — a descriptor lookup and a string
   comparison against the client's class registry, exactly the
   functionality §3.1 leaves on the client. Distributed to clients on
   demand and installed into their VM. *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile

let class_name = "dvm/RTVerifier"

let desc_check_class = "(Ljava/lang/String;)V"
let desc_check_subclass = "(Ljava/lang/String;Ljava/lang/String;)V"

let desc_check_member =
  "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;I)V"

let runtime_class () =
  let st = [ CF.Public; CF.Static; CF.Native ] in
  B.class_ class_name
    [
      B.native_meth ~flags:st "checkClass" desc_check_class;
      B.native_meth ~flags:st "checkSubclass" desc_check_subclass;
      B.native_meth ~flags:st "checkField" desc_check_member;
      B.native_meth ~flags:st "checkMethod" desc_check_member;
    ]

type stats = {
  mutable dynamic_checks : int;
  mutable failures : int;
}

let verify_error vm stats fmt =
  Format.kasprintf
    (fun msg ->
      stats.failures <- stats.failures + 1;
      Jvm.Vmstate.throw vm ~cls:Jvm.Vmstate.c_verify ~message:msg)
    fmt

let str _vm n args =
  match List.nth_opt args n with
  | Some (Jvm.Value.Str s) -> s
  | Some v ->
    Jvm.Vmstate.fault "RTVerifier: expected string, got %s"
      (Jvm.Value.to_string v)
  | None -> Jvm.Vmstate.fault "RTVerifier: missing argument %d" n

let int_arg n args =
  match List.nth_opt args n with
  | Some (Jvm.Value.Int v) -> Int32.to_int v
  | Some _ | None -> Jvm.Vmstate.fault "RTVerifier: expected int arg %d" n

(* Each check costs a registry lookup plus string compares: cheap, per
   the paper ("limited to a descriptor lookup and string
   comparison"). *)
let check_cost = 2L

let lookup_class vm stats name =
  match Jvm.Classreg.lookup vm.Jvm.Vmstate.reg name with
  | l -> l
  | exception Jvm.Classreg.Class_not_found c ->
    verify_error vm stats "link check: class %s not found" c
  | exception Jvm.Classreg.Load_rejected { cls; reason } ->
    verify_error vm stats "link check: class %s rejected (%s)" cls reason

let install vm =
  let stats = { dynamic_checks = 0; failures = 0 } in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg (runtime_class ());
  (match Jvm.Classreg.find_loaded vm.Jvm.Vmstate.reg class_name with
  | Some l -> l.Jvm.Classreg.init_state <- Jvm.Classreg.Initialized
  | None -> assert false);
  let reg = Jvm.Vmstate.register_native vm in
  reg ~cls:class_name ~name:"checkClass" ~desc:desc_check_class
    (fun vm args ->
      stats.dynamic_checks <- stats.dynamic_checks + 1;
      Telemetry.incr "jvm.verifier.dynamic_checks";
      Jvm.Vmstate.add_cost vm check_cost;
      ignore (lookup_class vm stats (str vm 0 args));
      None);
  reg ~cls:class_name ~name:"checkSubclass" ~desc:desc_check_subclass
    (fun vm args ->
      stats.dynamic_checks <- stats.dynamic_checks + 1;
      Telemetry.incr "jvm.verifier.dynamic_checks";
      Jvm.Vmstate.add_cost vm check_cost;
      let sub = str vm 0 args and super = str vm 1 args in
      ignore (lookup_class vm stats sub);
      if not (Jvm.Classreg.is_subclass vm.Jvm.Vmstate.reg ~sub ~super) then
        verify_error vm stats "link check: %s is not a subclass of %s" sub
          super;
      None);
  reg ~cls:class_name ~name:"checkField" ~desc:desc_check_member
    (fun vm args ->
      stats.dynamic_checks <- stats.dynamic_checks + 1;
      Telemetry.incr "jvm.verifier.dynamic_checks";
      Jvm.Vmstate.add_cost vm check_cost;
      let cls = str vm 0 args
      and name = str vm 1 args
      and desc = str vm 2 args
      and want_static = int_arg 3 args <> 0 in
      ignore (lookup_class vm stats cls);
      (match Jvm.Classreg.resolve_field vm.Jvm.Vmstate.reg cls name with
      | None -> verify_error vm stats "link check: no field %s.%s" cls name
      | Some (_, f) ->
        if not (String.equal f.CF.f_desc desc) then
          verify_error vm stats
            "link check: field %s.%s has type %s, expected %s" cls name
            f.CF.f_desc desc;
        if CF.has_flag f.CF.f_flags CF.Static <> want_static then
          verify_error vm stats "link check: field %s.%s static mismatch" cls
            name);
      None);
  reg ~cls:class_name ~name:"checkMethod" ~desc:desc_check_member
    (fun vm args ->
      stats.dynamic_checks <- stats.dynamic_checks + 1;
      Telemetry.incr "jvm.verifier.dynamic_checks";
      Jvm.Vmstate.add_cost vm check_cost;
      let cls = str vm 0 args
      and name = str vm 1 args
      and desc = str vm 2 args
      and want_static = int_arg 3 args <> 0 in
      ignore (lookup_class vm stats cls);
      (match Jvm.Classreg.resolve_method vm.Jvm.Vmstate.reg cls name desc with
      | None ->
        verify_error vm stats "link check: no method %s.%s:%s" cls name desc
      | Some (_, m) ->
        if CF.has_flag m.CF.m_flags CF.Static <> want_static then
          verify_error vm stats "link check: method %s.%s static mismatch" cls
            name);
      None);
  stats
