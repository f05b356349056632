(* The internal filtering API of Section 3: logically separate static
   services are code-transformation filters over a parsed class, and
   are stacked on the proxy according to site-specific requirements.
   Parsing and code generation happen once, outside the stack. *)

type t = {
  name : string;
  transform : Bytecode.Classfile.t -> Bytecode.Classfile.t;
}

exception Rejected of { filter : string; cls : string; reason : string }

let make ~name transform = { name; transform }

let reject ~filter ~cls reason = raise (Rejected { filter; cls; reason })

let apply t cls = t.transform cls

let run_stack filters cls = List.fold_left (fun c f -> apply f c) cls filters

let stack ~name filters =
  { name; transform = (fun cls -> run_stack filters cls) }

let identity = { name = "identity"; transform = Fun.id }
