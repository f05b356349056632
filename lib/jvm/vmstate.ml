(* Shared mutable state of one virtual machine instance: heap, class
   registry, native-method table, simulated devices (console,
   properties, file store, thread priority) and cost counters. The
   interpreter and the boot library both hang off this record. *)

type t = {
  heap : Heap.t;
  reg : Classreg.t;
  natives : (string * string * string, native) Hashtbl.t; (* key: (cls, name, desc) *)
  mutable native_gen : int; (* bumped by every [register_native] *)
  out : Buffer.t;
  props : (string, string) Hashtbl.t;
  files : (string, string) Hashtbl.t;
  mutable thread_priority : int;
  (* Cost counters are plain [int]s: they are bumped on every executed
     bytecode, and a boxed [int64] read-modify-write there costs an
     allocation per instruction. 63 bits cannot overflow at simulated
     instruction rates. The external API ([add_cost], [total_cost],
     [create ?budget]) keeps its [int64] face. *)
  mutable instr_count : int;
  mutable native_cost : int; (* simulated cost units added by natives *)
  mutable budget : int; (* instruction budget; exceeded -> Budget_exhausted *)
  mutable security_hook : (string -> unit) option;
      (* monolithic JDK-style stack-introspection hook; raises to deny *)
  mutable call_depth : int;
  mutable max_call_depth : int;
  mutable invocations : int; (* method invocations, incl. natives *)
}

and native = t -> Value.t list -> Value.t option

(* An in-flight VM exception (a throwable object unwinding frames). *)
exception Throw of Value.t

(* The interpreter hit a state that verified code can never reach
   (operand-kind confusion, missing method after verification, ...).
   On unverified code this is the "VM crash" the verifier prevents. *)
exception Runtime_fault of string

exception Budget_exhausted

let fault fmt = Format.kasprintf (fun s -> raise (Runtime_fault s)) fmt

let create ?budget ?provider () =
  let budget =
    match budget with
    | None -> max_int
    | Some b when Int64.compare b (Int64.of_int max_int) >= 0 -> max_int
    | Some b -> Int64.to_int b
  in
  {
    heap = Heap.create ();
    reg = Classreg.create ?provider ();
    natives = Hashtbl.create 64;
    native_gen = 0;
    out = Buffer.create 256;
    props = Hashtbl.create 16;
    files = Hashtbl.create 16;
    thread_priority = 5;
    instr_count = 0;
    native_cost = 0;
    budget;
    security_hook = None;
    call_depth = 0;
    max_call_depth = 0;
    invocations = 0;
  }

(* Tuple keys avoid the "cls.name:desc" string concatenation the old
   scheme paid on every native dispatch (two audit probes per
   instrumented method call). *)
let register_native t ~cls ~name ~desc impl =
  t.native_gen <- t.native_gen + 1;
  Hashtbl.replace t.natives (cls, name, desc) impl

let find_native t ~cls ~name ~desc = Hashtbl.find_opt t.natives (cls, name, desc)
let add_cost t units = t.native_cost <- t.native_cost + Int64.to_int units
let total_cost t = Int64.of_int (t.instr_count + t.native_cost)

let output t = Buffer.contents t.out

(* Allocate and initialize a throwable of class [cls] carrying
   [message], without running its constructor (boot throwables have a
   uniform shape: a "message" field). *)
let make_throwable t ~cls ~message =
  let fields =
    match Classreg.find_loaded t.reg cls with
    | Some _ -> Classreg.all_instance_fields t.reg cls
    | None -> [ ("message", "Ljava/lang/String;") ]
  in
  let fields =
    if List.mem_assoc "message" fields then fields
    else ("message", "Ljava/lang/String;") :: fields
  in
  let o = Heap.alloc_obj t.heap ~cls ~field_descs:fields in
  Hashtbl.replace o.Value.fields "message" (Value.Str message);
  Value.Obj o

let throw t ~cls ~message = raise (Throw (make_throwable t ~cls ~message))

(* Throwable class names used across the runtime. *)
let c_npe = "java/lang/NullPointerException"
let c_arith = "java/lang/ArithmeticException"
let c_aioobe = "java/lang/ArrayIndexOutOfBoundsException"
let c_cce = "java/lang/ClassCastException"
let c_nase = "java/lang/NegativeArraySizeException"
let c_verify = "java/lang/VerifyError"
let c_ncdfe = "java/lang/NoClassDefFoundError"
let c_security = "java/lang/SecurityException"
let c_stack_overflow = "java/lang/StackOverflowError"
let c_io = "java/io/IOException"
