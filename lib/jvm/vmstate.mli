(** Shared mutable state of one virtual machine instance: heap, class
    registry, native-method table, simulated devices and cost
    counters. *)

type t = {
  heap : Heap.t;
  reg : Classreg.t;
  natives : (string * string * string, native) Hashtbl.t;
      (** key: (cls, name, desc); change it only through {!register_native} *)
  mutable native_gen : int;  (** bumped by every {!register_native} *)
  out : Buffer.t;  (** console output *)
  props : (string, string) Hashtbl.t;  (** system properties *)
  files : (string, string) Hashtbl.t;  (** simulated file store *)
  mutable thread_priority : int;
  mutable instr_count : int;  (** bytecodes executed *)
  mutable native_cost : int;  (** simulated cost units added by natives *)
  mutable budget : int;
  mutable security_hook : (string -> unit) option;
      (** monolithic JDK-style check hook; raises {!Throw} to deny *)
  mutable call_depth : int;
  mutable max_call_depth : int;
  mutable invocations : int;  (** method invocations, incl. natives *)
}

and native = t -> Value.t list -> Value.t option
(** A native method body. For instance methods the receiver is the
    first argument. Returns [None] for void. *)

exception Throw of Value.t
(** An in-flight VM exception (a throwable unwinding frames). *)

exception Runtime_fault of string
(** The interpreter reached a state that verified code can never
    reach. On unverified code this is the crash the verifier
    prevents. *)

exception Budget_exhausted

val fault : ('a, Format.formatter, unit, 'b) format4 -> 'a
val create : ?budget:int64 -> ?provider:Classreg.provider -> unit -> t
val register_native : t -> cls:string -> name:string -> desc:string -> native -> unit
(** Add or replace a native; invalidates natives the interpreter cached. *)

val find_native : t -> cls:string -> name:string -> desc:string -> native option
val add_cost : t -> int64 -> unit

val total_cost : t -> int64
(** Executed bytecodes plus native cost: the client's simulated work. *)

val output : t -> string

val throw : t -> cls:string -> message:string -> 'a

(** Throwable class names used across the runtime. *)

val c_npe : string
val c_arith : string
val c_aioobe : string
val c_cce : string
val c_nase : string
val c_verify : string
val c_ncdfe : string
val c_security : string
val c_stack_overflow : string
val c_io : string
