(* Field and method descriptors, following the JVM descriptor grammar
   restricted to the types our VM supports: 32-bit integers (which also
   encode booleans, bytes, chars and shorts), object references and
   arrays thereof. *)

type ty =
  | Int
  | Obj of string
  | Arr of ty

type method_sig = {
  params : ty list;
  ret : ty option; (* [None] encodes void *)
}

exception Bad_descriptor of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad_descriptor s)) fmt

let rec pp_ty ppf = function
  | Int -> Format.pp_print_string ppf "I"
  | Obj c -> Format.fprintf ppf "L%s;" c
  | Arr t -> Format.fprintf ppf "[%a" pp_ty t

let ty_to_string t = Format.asprintf "%a" pp_ty t

let method_sig_to_string { params; ret } =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '(';
  List.iter (fun t -> Buffer.add_string buf (ty_to_string t)) params;
  Buffer.add_char buf ')';
  (match ret with
  | None -> Buffer.add_char buf 'V'
  | Some t -> Buffer.add_string buf (ty_to_string t));
  Buffer.contents buf

(* Parse one type starting at [i]; return the type and the index just
   past it. *)
let rec parse_ty s i =
  if i >= String.length s then bad "truncated descriptor %S" s;
  match s.[i] with
  | 'I' -> (Int, i + 1)
  | '[' ->
    let t, j = parse_ty s (i + 1) in
    (Arr t, j)
  | 'L' -> (
    match String.index_from_opt s i ';' with
    | None -> bad "unterminated class name in %S" s
    | Some j ->
      if j = i + 1 then bad "empty class name in %S" s;
      (Obj (String.sub s (i + 1) (j - i - 1)), j + 1))
  | c -> bad "unsupported type char %C in %S" c s

let ty_of_string_uncached s =
  let t, j = parse_ty s 0 in
  if j <> String.length s then bad "trailing junk in field descriptor %S" s;
  t

let method_sig_of_string_uncached s =
  if String.length s < 3 || s.[0] <> '(' then bad "not a method descriptor: %S" s;
  let rec params acc i =
    if i >= String.length s then bad "unterminated parameter list in %S" s
    else if s.[i] = ')' then (List.rev acc, i + 1)
    else
      let t, j = parse_ty s i in
      params (t :: acc) j
  in
  let ps, i = params [] 1 in
  if i >= String.length s then bad "missing return type in %S" s;
  if s.[i] = 'V' then
    if i + 1 = String.length s then { params = ps; ret = None }
    else bad "trailing junk in %S" s
  else
    let t, j = parse_ty s i in
    if j <> String.length s then bad "trailing junk in %S" s;
    { params = ps; ret = Some t }

(* Descriptor strings recur constantly — every invoke site, every
   verifier fixpoint iteration, every refit after a rewrite — and
   parsing is pure, so successful parses are memoized. Only successes
   are cached: a malformed descriptor re-raises on every parse, which
   keeps the error path byte-for-byte identical and the tables free of
   junk. The caches are reset when they grow past a bound so an
   adversarial stream of distinct descriptors cannot pin memory. *)
let memo_max = 65_536

let sig_cache : (string, method_sig) Hashtbl.t = Hashtbl.create 256
let ty_cache : (string, ty) Hashtbl.t = Hashtbl.create 256

let method_sig_of_string s =
  match Hashtbl.find_opt sig_cache s with
  | Some sg -> sg
  | None ->
    let sg = method_sig_of_string_uncached s in
    if Hashtbl.length sig_cache >= memo_max then Hashtbl.reset sig_cache;
    Hashtbl.add sig_cache s sg;
    sg

let ty_of_string s =
  match Hashtbl.find_opt ty_cache s with
  | Some t -> t
  | None ->
    let t = ty_of_string_uncached s in
    if Hashtbl.length ty_cache >= memo_max then Hashtbl.reset ty_cache;
    Hashtbl.add ty_cache s t;
    t

let valid_field_descriptor s =
  match ty_of_string s with _ -> true | exception Bad_descriptor _ -> false

let valid_method_descriptor s =
  match method_sig_of_string s with
  | _ -> true
  | exception Bad_descriptor _ -> false

(* Number of locals slots taken by the parameters (all our types are
   one slot wide). *)
let param_slots sig_ = List.length sig_.params
