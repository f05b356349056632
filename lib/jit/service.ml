(* The network compilation service (§3.4): clients describe their
   native format during the administration handshake; the compiler
   translates ahead of time for each format present in the
   organization, amortizing its cost across all clients, and caches
   compiled units per (class, method, architecture). *)

type compiled = {
  arch : Arch.t;
  ir : Ir.meth;
  allocation : Regalloc.result;
  kernel : bool; (* directly executable by Exec *)
}

type entry = Compiled of compiled | Interpreter_resident of string

type t = {
  cache : (string, entry) Hashtbl.t; (* "cls.meth:desc@arch" *)
  mutable compiled_methods : int;
  mutable skipped_methods : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable compile_cost_us : int64; (* total server-side compile work *)
  mutable guards_emitted : int;
  mutable guards_elided : int; (* proven redundant by dataflow facts *)
}

let create () =
  {
    cache = Hashtbl.create 64;
    compiled_methods = 0;
    skipped_methods = 0;
    cache_hits = 0;
    cache_misses = 0;
    compile_cost_us = 0L;
    guards_emitted = 0;
    guards_elided = 0;
  }

let key ~cls ~name ~desc ~arch = Printf.sprintf "%s.%s:%s@%s" cls name desc arch

(* Server-side compile cost model: dominated by per-instruction
   translation and allocation work. *)
let compile_cost_us_of (m : Ir.meth) = Int64.of_int (5 * Array.length m.Ir.code)

let compile_method ?(elide = true) t arch (cf : Bytecode.Classfile.t)
    (m : Bytecode.Classfile.meth) =
  let k =
    key ~cls:cf.Bytecode.Classfile.name ~name:m.Bytecode.Classfile.m_name
      ~desc:m.Bytecode.Classfile.m_desc ~arch:arch.Arch.name
  in
  match Hashtbl.find_opt t.cache k with
  | Some e ->
    t.cache_hits <- t.cache_hits + 1;
    e
  | None ->
    t.cache_misses <- t.cache_misses + 1;
    let facts =
      if elide then
        Analysis.Pass.for_method cf.Bytecode.Classfile.pool
          ~cls:cf.Bytecode.Classfile.name m
      else None
    in
    let stats = Translate.fresh_guard_stats () in
    let e =
      match
        Translate.translate_method ?facts ~stats cf.Bytecode.Classfile.pool m
      with
      | ir ->
        let allocation = Regalloc.allocate arch ir in
        t.compiled_methods <- t.compiled_methods + 1;
        t.compile_cost_us <-
          Int64.add t.compile_cost_us (compile_cost_us_of ir);
        t.guards_emitted <- t.guards_emitted + stats.Translate.emitted;
        t.guards_elided <- t.guards_elided + stats.Translate.elided;
        if Telemetry.enabled () then begin
          Telemetry.add "jit.guards_emitted"
            (Int64.of_int stats.Translate.emitted);
          Telemetry.add "jit.guards_elided"
            (Int64.of_int stats.Translate.elided)
        end;
        Compiled
          {
            arch;
            ir;
            allocation;
            kernel = Exec.supported ir;
          }
      | exception Translate.Unsupported reason ->
        t.skipped_methods <- t.skipped_methods + 1;
        Interpreter_resident reason
    in
    Hashtbl.replace t.cache k e;
    e

let compile_class ?elide t arch cf =
  List.map
    (fun m ->
      ( m.Bytecode.Classfile.m_name ^ m.Bytecode.Classfile.m_desc,
        compile_method ?elide t arch cf m ))
    (List.filter
       (fun m -> m.Bytecode.Classfile.m_code <> None)
       cf.Bytecode.Classfile.methods)

(* Compile for every native format registered at the console — the
   "resource investments benefit all clients" property. *)
let compile_for_fleet t console cf =
  List.concat_map
    (fun fmt ->
      match Arch.by_name fmt with
      | Some arch -> compile_class t arch cf
      | None -> [])
    (Monitor.Console.native_formats console)
