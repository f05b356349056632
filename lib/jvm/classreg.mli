(** Class registry: loaded classes, lazy loading through a provider
    (the client's window onto the network), hierarchy queries and
    member resolution. *)

type init_state = Not_initialized | Initializing | Initialized

type loaded = {
  cf : Bytecode.Classfile.t;
  statics : (string, Value.t) Hashtbl.t;
  mutable init_state : init_state;
  wire_bytes : int;  (** encoded size when fetched; 0 for boot classes *)
  sites : site option array;
      (** The interpreter's cache of this class's member references,
          indexed by constant-pool index and filled on first execution.
          It belongs to this VM's [loaded] record, never to the shared
          [cf]. *)
}

(** A member reference the interpreter has executed, with its
    constant-pool kind. *)
and site = Field_site of Bytecode.Cp.member_ref | Method_site of call_site

and call_site = {
  member : Bytecode.Cp.member_ref;
  mutable params : int;  (** parameter count; -1 until first parsed *)
  mutable target : target option;  (** the last resolution *)
}

(** A resolved invocation target. It is valid only while [gen] (read
    before resolving) equals the registry's {!t.generation} and
    [native_gen] the VM's native-table generation, and only for calls
    resolved from [receiver]. *)
and target = {
  gen : int;
  native_gen : int;
  receiver : string;
      (** the class the call was resolved for: the receiver's dynamic
          class for virtual calls, the named class otherwise *)
  owner : loaded;  (** the class defining [meth] *)
  meth : Bytecode.Classfile.meth;
  native : (Value.t list -> Value.t option) option;
      (** the native implementation of a code-less [meth], bound to its VM *)
}

type provider = string -> string option
(** Maps a class name to its encoded bytes, or [None] if unknown. *)

exception Class_not_found of string
exception Load_rejected of { cls : string; reason : string }

type t = {
  classes : (string, loaded) Hashtbl.t;
  mutable provider : provider;
  mutable on_load : Bytecode.Classfile.t -> unit;
  mutable classes_fetched : int;
  mutable bytes_fetched : int;
  mutable load_order : string list;  (** most recently loaded first *)
  mutable generation : int;
      (** bumped whenever [classes] changes and the memos are flushed *)
  method_cache :
    (string * string * string, (loaded * Bytecode.Classfile.meth) option) Hashtbl.t;
      (** memoized [resolve_method]; flushed whenever [classes] changes *)
  field_cache : (string * string, (loaded * Bytecode.Classfile.field) option) Hashtbl.t;
  subtype_cache : (string * string, bool) Hashtbl.t;
  fields_cache : (string, (string * string) list) Hashtbl.t;
}

val create : ?provider:provider -> unit -> t

val set_on_load : t -> (Bytecode.Classfile.t -> unit) -> unit
(** Hook run on every provider-loaded class before registration — this
    is where a monolithic client plugs in local verification. The hook
    rejects a class by raising. *)

val register : t -> Bytecode.Classfile.t -> unit
(** Register a boot class directly, bypassing provider and hook. *)

val find_loaded : t -> string -> loaded option

val lookup : t -> string -> loaded
(** Find a class, fetching through the provider if necessary.
    @raise Class_not_found when the provider has no such class.
    @raise Load_rejected when the bytes are malformed, misnamed, or the
    [on_load] hook rejects them. *)

val is_loaded : t -> string -> bool

val is_subclass : t -> sub:string -> super:string -> bool
(** Reflexive subtype test over class names, covering arrays and
    (transitive) interfaces. *)

val resolve_method :
  t -> string -> string -> string -> (loaded * Bytecode.Classfile.meth) option
(** [resolve_method t cls name desc] walks the superclass chain. *)

val resolve_field :
  t -> string -> string -> (loaded * Bytecode.Classfile.field) option

val all_instance_fields : t -> string -> (string * string) list
