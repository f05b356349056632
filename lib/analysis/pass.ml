(* The pass-manager facade: rewrite filters and the JIT ask here for
   analysis results instead of running solvers by hand. Results are
   memoized per (class, method, descriptor) and invalidated when the
   method body is physically replaced — rewriting passes produce new
   code records, so staleness is a pointer comparison.

   Forcing a domain records its cost in the global telemetry registry:
   `analysis.blocks`, `analysis.solver_iterations` and
   `analysis.methods` aggregate across every proxied class. *)

module CF = Bytecode.Classfile
module D = Bytecode.Descriptor

type facts = {
  cls : string;
  meth : string;
  desc : string;
  code : CF.code;
  cfg : Cfg.t;
  dom : Dom.t Lazy.t;
  nullness : Nullness.result Lazy.t;
  ranges : Intrange.result Lazy.t;
}

let record_solve iterations =
  Telemetry.add "analysis.solver_iterations" (Int64.of_int iterations)

let build pool ~cls (m : CF.meth) (code : CF.code) : facts =
  let cfg = Cfg.of_code code in
  Telemetry.incr "analysis.methods";
  Telemetry.add "analysis.blocks"
    (Int64.of_int (Cfg.block_count cfg));
  let is_static = CF.has_flag m.CF.m_flags CF.Static in
  let param_slots =
    match D.method_sig_of_string m.CF.m_desc with
    | sg -> D.param_slots sg
    | exception D.Bad_descriptor _ -> 0
  in
  {
    cls;
    meth = m.CF.m_name;
    desc = m.CF.m_desc;
    code;
    cfg;
    dom = lazy (Dom.compute cfg);
    nullness =
      lazy
        (let r =
           Nullness.analyze pool ~max_locals:code.CF.max_locals ~param_slots
             ~is_static cfg
         in
         record_solve r.Nullness.iterations;
         r);
    ranges =
      lazy
        (let r =
           Intrange.analyze pool ~max_locals:code.CF.max_locals ~param_slots
             ~is_static cfg
         in
         record_solve r.Intrange.iterations;
         r);
  }

let cache : (string * string * string, facts) Hashtbl.t = Hashtbl.create 64

let clear () = Hashtbl.reset cache

let for_method pool ~cls (m : CF.meth) : facts option =
  match m.CF.m_code with
  | None -> None
  | Some code -> (
    let key = (cls, m.CF.m_name, m.CF.m_desc) in
    match Hashtbl.find_opt cache key with
    | Some f when f.code == code -> Some f
    | _ -> (
      match build pool ~cls m code with
      | f ->
        Hashtbl.replace cache key f;
        Some f
      | exception Cfg.Malformed _ -> None))
