(* Code-transport modes (§5).

   Java ships code either as a whole archive or by fetching entire
   classes at first reference; the paper's observation is that even
   lazy class loading transfers 10–30 % of code that is never invoked,
   because classes are the wrong granularity. This module measures the
   three transport modes over a real profile so the bench can show the
   progression archive → lazy class → repartitioned. *)

type mode =
  | Whole_archive (* the entire application as one unit *)
  | Lazy_class (* entire classes, fetched at first reference *)
  | Repartitioned (* hot parts of classes; satellites stay behind *)

(* Classes the profile actually touched (by method label prefix). *)
let used_classes profile classes =
  List.filter
    (fun cf ->
      List.exists
        (fun m ->
          First_use.is_used profile
            (First_use.method_key cf.Bytecode.Classfile.name
               m.Bytecode.Classfile.m_name m.Bytecode.Classfile.m_desc))
        cf.Bytecode.Classfile.methods)
    classes

let bytes_transferred mode profile classes =
  match mode with
  | Whole_archive ->
    List.fold_left (fun a c -> a + Bytecode.Encode.class_size c) 0 classes
  | Lazy_class ->
    List.fold_left
      (fun a c -> a + Bytecode.Encode.class_size c)
      0
      (used_classes profile classes)
  | Repartitioned ->
    List.fold_left
      (fun a c -> a + (Repartition.split profile c).Repartition.hot_bytes)
      0
      (used_classes profile classes)

(* The paper's §5 headline measurement: the share of *transferred* code
   (under lazy class loading) that is never invoked. *)
let never_invoked_fraction profile classes =
  let used = used_classes profile classes in
  let total =
    List.fold_left (fun a c -> a + Bytecode.Encode.class_size c) 0 used
  in
  let dead =
    List.fold_left
      (fun a c ->
        a
        + int_of_float
            (First_use.cold_fraction profile c
            *. Float.of_int (Bytecode.Encode.class_size c)))
      0 used
  in
  if total = 0 then 0.0 else Float.of_int dead /. Float.of_int total
