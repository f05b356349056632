(* The bytecode interpreter.

   Deliberately trusting: operand and local slots are checked at use
   with Runtime_fault, which is exactly the class of crash the verifier
   exists to rule out. Runs of verified code never fault; runs of
   unverified code may. Exception objects unwind via Vmstate.Throw and
   are dispatched against the exception tables of enclosing frames. *)

module I = Bytecode.Instr
module CF = Bytecode.Classfile
module CP = Bytecode.Cp
module D = Bytecode.Descriptor

let max_call_depth = 2048

(* --- Frames. ---

   A frame lays [locals | operand stack] over three parallel arrays: an
   unboxed int (ints and return addresses), a reference, and a kind byte
   saying which of the two the slot holds. An int slot holds its int32
   sign-extended, so int bytecodes allocate nothing; values are boxed
   only where they leave the frame (calls, returns, fields, arrays).
   The per-bytecode helpers carry [@inline]: without flambda, ocamlopt
   would call each one, about a third of the interpreter's time. *)

type frame = {
  ints : int array;
  refs : Value.t array;
  kinds : Bytes.t;
  nlocals : int; (* the operand stack starts at slot [nlocals] *)
  mutable sp : int; (* next free slot *)
}

let k_int = '\000'
let k_ref = '\001'
let k_ret = '\002'

(* Int32 wrap-around on a 63-bit int: sign-extend bit 31. *)
let[@inline] wrap n = (n lsl 31) asr 31

let box f i =
  let k = Bytes.get f.kinds i in
  if k = k_int then Value.Int (Int32.of_int f.ints.(i))
  else if k = k_ret then Value.Retaddr f.ints.(i)
  else f.refs.(i)

let set f i (v : Value.t) =
  match v with
  | Value.Int n ->
    f.ints.(i) <- Int32.to_int n;
    Bytes.set f.kinds i k_int
  | Value.Retaddr pc ->
    f.ints.(i) <- pc;
    Bytes.set f.kinds i k_ret
  | v ->
    f.refs.(i) <- v;
    Bytes.set f.kinds i k_ref

let[@inline] set_int f i n =
  f.ints.(i) <- n;
  Bytes.set f.kinds i k_int

(* Slots are copied by kind: an int move never touches [refs]. *)
let[@inline] copy f src dst =
  let k = Bytes.get f.kinds src in
  Bytes.set f.kinds dst k;
  if k = k_ref then f.refs.(dst) <- f.refs.(src) else f.ints.(dst) <- f.ints.(src)

let swap f i j =
  let k = Bytes.get f.kinds i and n = f.ints.(i) and r = f.refs.(i) in
  copy f j i;
  Bytes.set f.kinds j k;
  f.ints.(j) <- n;
  f.refs.(j) <- r

(* --- Slot accessors: the unsafe edges verification protects. --- *)

let expected what f i =
  Vmstate.fault "expected %s, got %s" what (Value.to_string (box f i))

let as_reference v =
  if Value.is_reference v then v
  else Vmstate.fault "expected reference, got %s" (Value.to_string v)

let bad_local n = Vmstate.fault "local index %d out of range" n
let[@inline] check_local f n = if n < 0 || n >= f.nlocals then bad_local n

let[@inline] int_local f n =
  check_local f n;
  if Bytes.get f.kinds n <> k_int then expected "int" f n;
  f.ints.(n)

let underflow () = Vmstate.fault "operand stack underflow"
let overflow () = Vmstate.fault "operand stack overflow"
let[@inline] need f n = if f.sp - n < f.nlocals then underflow ()

(* Pop the top slot and return its index; it stays readable until the
   next push. *)
let[@inline] pop f =
  need f 1;
  let i = f.sp - 1 in
  f.sp <- i;
  i

(* Claim the next free slot. *)
let[@inline] grow f =
  let i = f.sp in
  if i >= Array.length f.ints then overflow ();
  f.sp <- i + 1;
  i

let push f v = set f (grow f) v
let[@inline] push_int f n = set_int f (grow f) n

let[@inline] push_ref f v =
  let i = grow f in
  f.refs.(i) <- v;
  Bytes.set f.kinds i k_ref

let[@inline] pop_int f =
  let i = pop f in
  if Bytes.get f.kinds i <> k_int then expected "int" f i;
  f.ints.(i)

let[@inline] pop_ref f =
  let i = pop f in
  if Bytes.get f.kinds i <> k_ref then expected "reference" f i;
  f.refs.(i)

let pop_value f = box f (pop f)

(* Pop [n] call arguments, last argument on top of stack. *)
let rec pop_args f n acc =
  if n = 0 then acc else pop_args f (n - 1) (pop_value f :: acc)

let push_result f = function Some v -> push f v | None -> ()

let[@inline] holds c (a : int) b =
  match c with
  | I.Eq -> a = b
  | I.Ne -> a <> b
  | I.Lt -> a < b
  | I.Ge -> a >= b
  | I.Gt -> a > b
  | I.Le -> a <= b

let non_null vm = function
  | Value.Null -> Vmstate.throw vm ~cls:Vmstate.c_npe ~message:""
  | v -> v

(* --- Constant-pool sites. ---

   A class's member references are cached per VM on its [Classreg.loaded]
   record, indexed by constant-pool index. A site keeps the kind its
   index was first executed as, so using the index as the other kind
   faults just as the constant-pool lookup does. *)

let class_at pool idx =
  try CP.get_class_name pool idx
  with CP.Invalid_index _ | CP.Wrong_kind _ -> Vmstate.fault "bad class index %d" idx

let site l idx =
  let sites = l.Classreg.sites in
  if idx > 0 && idx < Array.length sites then sites.(idx) else None

let field_site l idx =
  match site l idx with
  | Some (Classreg.Field_site fr) -> fr
  | Some (Classreg.Method_site _) -> Vmstate.fault "bad fieldref index %d" idx
  | None ->
    let fr =
      try CP.get_fieldref l.Classreg.cf.CF.pool idx
      with CP.Invalid_index _ | CP.Wrong_kind _ ->
        Vmstate.fault "bad fieldref index %d" idx
    in
    l.Classreg.sites.(idx) <- Some (Classreg.Field_site fr);
    fr

let method_site l idx =
  match site l idx with
  | Some (Classreg.Method_site c) -> c
  | Some (Classreg.Field_site _) -> Vmstate.fault "bad methodref index %d" idx
  | None ->
    let member =
      try CP.get_methodref l.Classreg.cf.CF.pool idx
      with CP.Invalid_index _ | CP.Wrong_kind _ ->
        Vmstate.fault "bad methodref index %d" idx
    in
    let c = { Classreg.member; params = -1; target = None } in
    l.Classreg.sites.(idx) <- Some (Classreg.Method_site c);
    c

(* Parsed at the first call rather than when the site is filled, so a
   malformed descriptor raises after [invokestatic] initializes its
   class. *)
let arity (c : Classreg.call_site) =
  if c.Classreg.params < 0 then
    c.Classreg.params <-
      List.length (D.method_sig_of_string c.Classreg.member.CP.ref_desc).D.params;
  c.Classreg.params

let no_such_method vm cls name desc =
  Vmstate.throw vm ~cls:"java/lang/NoSuchMethodError"
    ~message:(Printf.sprintf "%s.%s:%s" cls name desc)

(* The target of [c] for a call on [receiver]: the cached one while
   neither the registry nor the native table has changed since it was
   resolved, else a fresh resolution. Dynamic dispatch starts at the
   receiver's class, falling back to the named class for strings/arrays
   resolved through their surrogate classes (a non-virtual call's
   receiver is the named class). A resolution that loaded a class moved
   the registry past the generation its target is stamped with, so that
   target never validates: lazy loads, provider consults and
   [Class_not_found] replay on the next call. *)
let target vm (c : Classreg.call_site) receiver =
  let reg = vm.Vmstate.reg in
  match c.Classreg.target with
  | Some t
    when t.Classreg.gen = reg.Classreg.generation
         && t.Classreg.native_gen = vm.Vmstate.native_gen
         && String.equal t.Classreg.receiver receiver ->
    t
  | Some _ | None -> (
    let gen = reg.Classreg.generation in
    let { CP.ref_class; ref_name; ref_desc } = c.Classreg.member in
    let start = if Classreg.is_loaded reg receiver then receiver else ref_class in
    match Classreg.resolve_method reg start ref_name ref_desc with
    | None -> no_such_method vm start ref_name ref_desc
    | Some (owner, meth) ->
      let native =
        match meth.CF.m_code with
        | Some _ -> None
        | None ->
          Option.map
            (fun impl -> impl vm)
            (Vmstate.find_native vm ~cls:owner.Classreg.cf.CF.name ~name:meth.CF.m_name
               ~desc:meth.CF.m_desc)
      in
      let native_gen = vm.Vmstate.native_gen in
      let t = { Classreg.gen; native_gen; receiver; owner; meth; native } in
      c.Classreg.target <- Some t;
      t)

(* --- Class initialization. --- *)

let rec ensure_initialized vm name =
  let l =
    try Classreg.lookup vm.Vmstate.reg name with
    | Classreg.Class_not_found c ->
      Vmstate.throw vm ~cls:Vmstate.c_ncdfe ~message:c
    | Classreg.Load_rejected { cls; reason } ->
      Vmstate.throw vm ~cls:Vmstate.c_verify
        ~message:(Printf.sprintf "%s: %s" cls reason)
  in
  match l.Classreg.init_state with
  | Classreg.Initialized | Classreg.Initializing -> ()
  | Classreg.Not_initialized ->
    l.Classreg.init_state <- Classreg.Initializing;
    (match l.Classreg.cf.CF.super with
    | None -> ()
    | Some s -> ensure_initialized vm s);
    (match CF.find_method l.Classreg.cf "<clinit>" "()V" with
    | None -> ()
    | Some m -> ignore (invoke_with vm l m None []));
    l.Classreg.init_state <- Classreg.Initialized

(* --- Method invocation. --- *)

and invoke vm ~cls ~name ~desc args =
  match Classreg.resolve_method vm.Vmstate.reg cls name desc with
  | None -> no_such_method vm cls name desc
  | Some (l, m) -> invoke_with vm l m None args

(* [native], when given, is [m]'s implementation already looked up. *)
and invoke_with vm l (m : CF.meth) native args =
  vm.Vmstate.invocations <- vm.Vmstate.invocations + 1;
  vm.Vmstate.call_depth <- vm.Vmstate.call_depth + 1;
  if vm.Vmstate.call_depth > vm.Vmstate.max_call_depth then
    vm.Vmstate.max_call_depth <- vm.Vmstate.call_depth;
  (* Manual unwind instead of [Fun.protect]: this runs once per method
     invocation, and the depth decrement cannot itself raise. *)
  match enter vm l m native args with
  | v ->
    vm.Vmstate.call_depth <- vm.Vmstate.call_depth - 1;
    v
  | exception e ->
    vm.Vmstate.call_depth <- vm.Vmstate.call_depth - 1;
    raise e

and enter vm l (m : CF.meth) native args =
  let cls = l.Classreg.cf.CF.name in
  if vm.Vmstate.call_depth > max_call_depth then
    Vmstate.throw vm ~cls:Vmstate.c_stack_overflow
      ~message:(cls ^ "." ^ m.CF.m_name);
  match (m.CF.m_code, native) with
  | Some code, _ -> exec_body vm l m code args
  | None, Some impl -> impl args
  | None, None -> (
    match Vmstate.find_native vm ~cls ~name:m.CF.m_name ~desc:m.CF.m_desc with
    | Some impl -> impl vm args
    | None ->
      Vmstate.fault "no native implementation for %s.%s:%s" cls m.CF.m_name
        m.CF.m_desc)

and statics_of vm cls_name field =
  match Classreg.resolve_field vm.Vmstate.reg cls_name field with
  | Some (dl, f) when CF.has_flag f.CF.f_flags CF.Static ->
    ensure_initialized vm dl.Classreg.cf.CF.name;
    dl.Classreg.statics
  | Some _ | None ->
    Vmstate.throw vm ~cls:"java/lang/NoSuchFieldError"
      ~message:(cls_name ^ "." ^ field)

and exec_body vm l (m : CF.meth) (code : CF.code) args =
  let nlocals = max code.CF.max_locals (List.length args) in
  let n = nlocals + code.CF.max_stack + 1 in
  let f =
    {
      ints = Array.make n 0;
      refs = Array.make n Value.Null;
      kinds = Bytes.make n k_ref;
      nlocals;
      sp = nlocals;
    }
  in
  List.iteri (set f) args;
  exec vm l m code f 0

(* Run the frame from [start]. The exception handler wraps the whole
   loop rather than each instruction, so the straight-line path
   allocates nothing for control flow. On a [Throw], [!pc] still names
   the faulting instruction (it only advances after a complete
   dispatch); a matching handler re-enters by tail call. *)
and exec vm l (m : CF.meth) (code : CF.code) f start =
  let pool = l.Classreg.cf.CF.pool in
  let instrs = code.CF.instrs in
  let result = ref None in
  let running = ref true in
  let pc = ref start in
  let next = ref 0 in
  try
    while !running do
      let p = !pc in
      if p < 0 || p >= Array.length instrs then
        Vmstate.fault "pc %d outside method %s.%s" p l.Classreg.cf.CF.name
          m.CF.m_name;
      vm.Vmstate.instr_count <- vm.Vmstate.instr_count + 1;
      if vm.Vmstate.instr_count > vm.Vmstate.budget then
        raise Vmstate.Budget_exhausted;
      next := p + 1;
      (match instrs.(p) with
      | I.Nop -> ()
      | I.Iconst n -> push_int f (Int32.to_int n)
      | I.Ldc_str idx -> (
        match CP.get_string pool idx with
        | s -> push_ref f (Value.Str s)
        | exception (CP.Invalid_index _ | CP.Wrong_kind _) ->
          Vmstate.fault "bad string index %d" idx)
      | I.Aconst_null -> push_ref f Value.Null
      | I.Iload n -> push_int f (int_local f n)
      | I.Istore n ->
        let v = pop_int f in
        check_local f n;
        set_int f n v
      | I.Aload n ->
        check_local f n;
        if Bytes.get f.kinds n <> k_ref then expected "reference" f n;
        push_ref f f.refs.(n)
      | I.Astore n ->
        (* astore also accepts return addresses (jsr/ret idiom) *)
        let i = pop f in
        if Bytes.get f.kinds i = k_int then expected "reference" f i;
        check_local f n;
        copy f i n
      | I.Iinc (n, d) -> set_int f n (wrap (int_local f n + d))
      | I.Iadd ->
        let b = pop_int f in
        let a = pop_int f in
        push_int f (wrap (a + b))
      | I.Isub ->
        let b = pop_int f in
        let a = pop_int f in
        push_int f (wrap (a - b))
      | I.Imul ->
        let b = pop_int f in
        let a = pop_int f in
        push_int f (wrap (a * b))
      | I.Idiv ->
        let b = pop_int f in
        let a = pop_int f in
        if b = 0 then Vmstate.throw vm ~cls:Vmstate.c_arith ~message:"/ by zero"
        else push_int f (wrap (a / b))
      | I.Irem ->
        let b = pop_int f in
        let a = pop_int f in
        if b = 0 then Vmstate.throw vm ~cls:Vmstate.c_arith ~message:"% by zero"
        else push_int f (a mod b)
      | I.Ineg -> push_int f (wrap (-pop_int f))
      | I.Ishl ->
        let b = pop_int f in
        let a = pop_int f in
        push_int f (wrap (a lsl (b land 31)))
      | I.Ishr ->
        let b = pop_int f in
        let a = pop_int f in
        push_int f (a asr (b land 31))
      | I.Iand ->
        let b = pop_int f in
        let a = pop_int f in
        push_int f (a land b)
      | I.Ior ->
        let b = pop_int f in
        let a = pop_int f in
        push_int f (a lor b)
      | I.Ixor ->
        let b = pop_int f in
        let a = pop_int f in
        push_int f (a lxor b)
      | I.Dup ->
        need f 1;
        let a = f.sp - 1 in
        copy f a (grow f)
      | I.Dup_x1 ->
        need f 2;
        let a = f.sp - 1 in
        copy f a (grow f);
        swap f (a - 1) a
      | I.Pop -> ignore (pop f)
      | I.Swap ->
        need f 2;
        swap f (f.sp - 2) (f.sp - 1)
      | I.Goto t -> next := t
      | I.If_icmp (c, t) ->
        let b = pop_int f in
        let a = pop_int f in
        if holds c a b then next := t
      | I.If_z (c, t) -> if holds c (pop_int f) 0 then next := t
      | I.If_acmp (want_eq, t) ->
        let b = pop_value f in
        let a = pop_value f in
        if Value.ref_equal a b = want_eq then next := t
      | I.If_null (want_null, t) ->
        let is_null = match pop_value f with Value.Null -> true | _ -> false in
        if is_null = want_null then next := t
      | I.Jsr t ->
        let i = grow f in
        f.ints.(i) <- p + 1;
        Bytes.set f.kinds i k_ret;
        next := t
      | I.Ret n ->
        check_local f n;
        if Bytes.get f.kinds n <> k_ret then expected "return address" f n;
        next := f.ints.(n)
      | I.Tableswitch { low; targets; default } ->
        let k = wrap (pop_int f - Int32.to_int low) in
        next := if k >= 0 && k < Array.length targets then targets.(k) else default
      | I.Ireturn ->
        result := Some (Value.Int (Int32.of_int (pop_int f)));
        running := false
      | I.Areturn ->
        result := Some (pop_ref f);
        running := false
      | I.Return ->
        result := None;
        running := false
      | I.Getstatic idx -> (
        let fr = field_site l idx in
        let statics = statics_of vm fr.CP.ref_class fr.CP.ref_name in
        match Hashtbl.find_opt statics fr.CP.ref_name with
        | Some v -> push f v
        | None -> Vmstate.fault "uninitialized static %s" fr.CP.ref_name)
      | I.Putstatic idx ->
        let fr = field_site l idx in
        let statics = statics_of vm fr.CP.ref_class fr.CP.ref_name in
        Hashtbl.replace statics fr.CP.ref_name (pop_value f)
      | I.Getfield idx -> (
        let fr = field_site l idx in
        match non_null vm (pop_value f) with
        | Value.Obj o -> (
          match Hashtbl.find_opt o.Value.fields fr.CP.ref_name with
          | Some v -> push f v
          | None ->
            Vmstate.throw vm ~cls:"java/lang/NoSuchFieldError"
              ~message:(fr.CP.ref_class ^ "." ^ fr.CP.ref_name))
        | v -> Vmstate.fault "getfield on %s" (Value.to_string v))
      | I.Putfield idx -> (
        let fr = field_site l idx in
        let v = pop_value f in
        match non_null vm (pop_value f) with
        | Value.Obj o -> Hashtbl.replace o.Value.fields fr.CP.ref_name v
        | recv -> Vmstate.fault "putfield on %s" (Value.to_string recv))
      | I.Invokevirtual idx | I.Invokeinterface idx ->
        let c = method_site l idx in
        let args = pop_args f (arity c) [] in
        let recv = non_null vm (pop_value f) in
        let t = target vm c (Value.class_of recv) in
        push_result f
          (invoke_with vm t.Classreg.owner t.Classreg.meth t.Classreg.native
             (recv :: args))
      | I.Invokestatic idx ->
        let c = method_site l idx in
        let cls = c.Classreg.member.CP.ref_class in
        ensure_initialized vm cls;
        let args = pop_args f (arity c) [] in
        let t = target vm c cls in
        push_result f
          (invoke_with vm t.Classreg.owner t.Classreg.meth t.Classreg.native args)
      | I.Invokespecial idx ->
        (* Non-virtual: constructors, private and super calls resolve
           against the named class. *)
        let c = method_site l idx in
        let args = pop_args f (arity c) [] in
        let recv = non_null vm (pop_value f) in
        let t = target vm c c.Classreg.member.CP.ref_class in
        push_result f
          (invoke_with vm t.Classreg.owner t.Classreg.meth t.Classreg.native
             (recv :: args))
      | I.New idx ->
        let cname = class_at pool idx in
        ensure_initialized vm cname;
        let field_descs = Classreg.all_instance_fields vm.Vmstate.reg cname in
        push_ref f (Value.Obj (Heap.alloc_obj vm.Vmstate.heap ~cls:cname ~field_descs))
      | I.Newarray ->
        let len = pop_int f in
        if len < 0 then
          Vmstate.throw vm ~cls:Vmstate.c_nase ~message:(string_of_int len)
        else push_ref f (Value.Arr_int (Heap.alloc_int_array vm.Vmstate.heap len))
      | I.Anewarray idx ->
        let elem = class_at pool idx in
        let len = pop_int f in
        if len < 0 then
          Vmstate.throw vm ~cls:Vmstate.c_nase ~message:(string_of_int len)
        else
          push_ref f (Value.Arr_ref (Heap.alloc_ref_array vm.Vmstate.heap ~elem len))
      | I.Arraylength -> (
        match non_null vm (pop_value f) with
        | Value.Arr_int a -> push_int f (Array.length a.Value.ints)
        | Value.Arr_ref a -> push_int f (Array.length a.Value.refs)
        | v -> Vmstate.fault "arraylength on %s" (Value.to_string v))
      | I.Iaload -> (
        let i = pop_int f in
        match non_null vm (pop_value f) with
        | Value.Arr_int a ->
          if i < 0 || i >= Array.length a.Value.ints then
            Vmstate.throw vm ~cls:Vmstate.c_aioobe ~message:(string_of_int i)
          else push_int f (Int32.to_int a.Value.ints.(i))
        | v -> Vmstate.fault "iaload on %s" (Value.to_string v))
      | I.Iastore -> (
        let v = pop_int f in
        let i = pop_int f in
        match non_null vm (pop_value f) with
        | Value.Arr_int a ->
          if i < 0 || i >= Array.length a.Value.ints then
            Vmstate.throw vm ~cls:Vmstate.c_aioobe ~message:(string_of_int i)
          else a.Value.ints.(i) <- Int32.of_int v
        | arr -> Vmstate.fault "iastore on %s" (Value.to_string arr))
      | I.Aaload -> (
        let i = pop_int f in
        match non_null vm (pop_value f) with
        | Value.Arr_ref a ->
          if i < 0 || i >= Array.length a.Value.refs then
            Vmstate.throw vm ~cls:Vmstate.c_aioobe ~message:(string_of_int i)
          else push f a.Value.refs.(i)
        | v -> Vmstate.fault "aaload on %s" (Value.to_string v))
      | I.Aastore -> (
        let v = pop_value f in
        let i = pop_int f in
        match non_null vm (pop_value f) with
        | Value.Arr_ref a ->
          if i < 0 || i >= Array.length a.Value.refs then
            Vmstate.throw vm ~cls:Vmstate.c_aioobe ~message:(string_of_int i)
          else a.Value.refs.(i) <- as_reference v
        | arr -> Vmstate.fault "aastore on %s" (Value.to_string arr))
      | I.Athrow -> (
        match non_null vm (pop_value f) with
        | Value.Obj _ as v -> raise (Vmstate.Throw v)
        | v -> Vmstate.fault "athrow of %s" (Value.to_string v))
      | I.Checkcast idx -> (
        let target = class_at pool idx in
        match pop_value f with
        | Value.Null -> push_ref f Value.Null
        | v ->
          if
            Classreg.is_subclass vm.Vmstate.reg ~sub:(Value.class_of v)
              ~super:target
          then push f v
          else
            Vmstate.throw vm ~cls:Vmstate.c_cce
              ~message:(Value.class_of v ^ " -> " ^ target))
      | I.Instanceof idx -> (
        let target = class_at pool idx in
        match pop_value f with
        | Value.Null -> push_int f 0
        | v ->
          let yes =
            Classreg.is_subclass vm.Vmstate.reg ~sub:(Value.class_of v)
              ~super:target
          in
          push_int f (if yes then 1 else 0))
      | I.Monitorenter | I.Monitorexit -> ignore (non_null vm (pop_value f)));
      pc := !next
    done;
    !result
  with Vmstate.Throw exn -> (
    (* Dispatch against this frame's exception table; first match wins,
       otherwise unwind to the caller. *)
    let cls_of_exn = Value.class_of exn in
    let at = !pc in
    let handler =
      List.find_opt
        (fun h ->
          at >= h.CF.h_start && at < h.CF.h_end
          &&
          match h.CF.h_catch with
          | None -> true
          | Some c -> Classreg.is_subclass vm.Vmstate.reg ~sub:cls_of_exn ~super:c)
        code.CF.handlers
    in
    match handler with
    | Some h ->
      f.sp <- f.nlocals;
      push f exn;
      exec vm l m code f h.CF.h_target
    | None -> raise (Vmstate.Throw exn))

(* --- Entry points. --- *)

let run_main vm cls_name =
  match
    ensure_initialized vm cls_name;
    invoke vm ~cls:cls_name ~name:"main" ~desc:"()V" []
  with
  | _ -> Ok ()
  | exception Vmstate.Throw v -> Error v

let describe_throwable v =
  match v with
  | Value.Obj o ->
    let msg =
      match Hashtbl.find_opt o.Value.fields "message" with
      | Some (Value.Str s) -> s
      | Some _ | None -> ""
    in
    Printf.sprintf "%s: %s" o.Value.cls msg
  | v -> Value.to_string v
