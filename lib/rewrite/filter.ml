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

let identity = { name = "identity"; transform = Fun.id }
