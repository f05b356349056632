(* The high-level, XML-based policy specification language of §3.2.

   A small XML subset suffices: elements, attributes, self-closing
   tags, comments, and character data (ignored). Example:

     <policy default="deny">
       <domain name="applets">
         <grant permission="property.get"/>
         <deny permission="file.open"/>
       </domain>
       <resource prefix="/tmp/" domain="tmpfiles"/>
       <operation permission="file.open"
                  class="java/io/FileInputStream" method="open"/>
       <principal classprefix="applet/" domain="applets"/>
     </policy>
*)

exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* --- Minimal XML representation and parser. --- *)

type xml = { tag : string; attrs : (string * string) list; children : xml list }

type lexer = { src : string; mutable pos : int }

let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None
let advance lx = lx.pos <- lx.pos + 1

let skip_ws lx =
  while
    lx.pos < String.length lx.src
    && (match lx.src.[lx.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance lx
  done

let expect lx c =
  match peek lx with
  | Some c' when c = c' -> advance lx
  | Some c' -> fail "expected %C at %d, found %C" c lx.pos c'
  | None -> fail "expected %C at end of input" c

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let read_name lx =
  let start = lx.pos in
  while lx.pos < String.length lx.src && is_name_char lx.src.[lx.pos] do
    advance lx
  done;
  if lx.pos = start then fail "expected a name at %d" start;
  String.sub lx.src start (lx.pos - start)

let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Buffer.contents b
    else if s.[i] = '&' then begin
      match String.index_from_opt s i ';' with
      | None -> fail "unterminated entity"
      | Some j ->
        (match String.sub s (i + 1) (j - i - 1) with
        | "lt" -> Buffer.add_char b '<'
        | "gt" -> Buffer.add_char b '>'
        | "amp" -> Buffer.add_char b '&'
        | "quot" -> Buffer.add_char b '"'
        | "apos" -> Buffer.add_char b '\''
        | e -> fail "unknown entity &%s;" e);
        go (j + 1)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0

let read_attr_value lx =
  let quote =
    match peek lx with
    | Some (('"' | '\'') as q) ->
      advance lx;
      q
    | _ -> fail "expected quoted attribute value at %d" lx.pos
  in
  let start = lx.pos in
  (match String.index_from_opt lx.src start quote with
  | None -> fail "unterminated attribute value"
  | Some j -> lx.pos <- j + 1);
  unescape (String.sub lx.src start (lx.pos - 1 - start))

let read_attrs lx =
  let rec go acc =
    skip_ws lx;
    match peek lx with
    | Some ('>' | '/') | None -> List.rev acc
    | Some _ ->
      let name = read_name lx in
      skip_ws lx;
      expect lx '=';
      skip_ws lx;
      let value = read_attr_value lx in
      go ((name, value) :: acc)
  in
  go []

let skip_comment lx =
  (* positioned after "<!--" *)
  let rec go () =
    if lx.pos + 2 >= String.length lx.src then fail "unterminated comment"
    else if
      lx.src.[lx.pos] = '-' && lx.src.[lx.pos + 1] = '-' && lx.src.[lx.pos + 2] = '>'
    then lx.pos <- lx.pos + 3
    else begin
      advance lx;
      go ()
    end
  in
  go ()

let rec read_element lx =
  skip_ws lx;
  expect lx '<';
  let tag = read_name lx in
  let attrs = read_attrs lx in
  skip_ws lx;
  match peek lx with
  | Some '/' ->
    advance lx;
    expect lx '>';
    { tag; attrs; children = [] }
  | Some '>' ->
    advance lx;
    let children = read_children lx tag in
    { tag; attrs; children }
  | _ -> fail "malformed tag %s" tag

and read_children lx parent =
  let rec go acc =
    (* skip character data *)
    while
      lx.pos < String.length lx.src && lx.src.[lx.pos] <> '<'
    do
      advance lx
    done;
    if lx.pos + 1 >= String.length lx.src then fail "unterminated element %s" parent
    else if lx.src.[lx.pos + 1] = '/' then begin
      lx.pos <- lx.pos + 2;
      let name = read_name lx in
      if not (String.equal name parent) then
        fail "mismatched close tag %s inside %s" name parent;
      skip_ws lx;
      expect lx '>';
      List.rev acc
    end
    else if
      lx.pos + 3 < String.length lx.src
      && String.sub lx.src lx.pos 4 = "<!--"
    then begin
      lx.pos <- lx.pos + 4;
      skip_comment lx;
      go acc
    end
    else go (read_element lx :: acc)
  in
  go []

let parse_xml src =
  let lx = { src; pos = 0 } in
  skip_ws lx;
  (* tolerate a processing instruction like <?xml ...?> *)
  if
    lx.pos + 1 < String.length src
    && src.[lx.pos] = '<'
    && src.[lx.pos + 1] = '?'
  then begin
    match String.index_from_opt src lx.pos '>' with
    | Some j -> lx.pos <- j + 1
    | None -> fail "unterminated processing instruction"
  end;
  let el = read_element lx in
  skip_ws lx;
  if lx.pos <> String.length src then fail "trailing content after root element";
  el

(* --- Policy construction from the XML tree. --- *)

let attr ?default el name =
  match List.assoc_opt name el.attrs with
  | Some v -> v
  | None -> (
    match default with
    | Some d -> d
    | None -> fail "<%s> missing attribute %S" el.tag name)

let parse (src : string) : Policy.t =
  let root = parse_xml src in
  if not (String.equal root.tag "policy") then
    fail "root element must be <policy>, found <%s>" root.tag;
  let default_allow =
    match attr ~default:"deny" root "default" with
    | "allow" -> true
    | "deny" -> false
    | v -> fail "policy default must be allow|deny, found %S" v
  in
  let rules = ref [] in
  let resources = ref [] in
  let operations = ref [] in
  let principals = ref [] in
  List.iter
    (fun child ->
      match child.tag with
      | "domain" ->
        let sid = attr child "name" in
        List.iter
          (fun g ->
            match g.tag with
            | "grant" ->
              rules :=
                {
                  Policy.rule_sid = sid;
                  rule_permission = attr g "permission";
                  rule_allow = true;
                }
                :: !rules
            | "deny" ->
              rules :=
                {
                  Policy.rule_sid = sid;
                  rule_permission = attr g "permission";
                  rule_allow = false;
                }
                :: !rules
            | t -> fail "unexpected <%s> inside <domain>" t)
          child.children
      | "resource" ->
        resources := (attr child "prefix", attr child "domain") :: !resources
      | "operation" ->
        operations :=
          {
            Policy.op_permission = attr child "permission";
            op_class = attr child "class";
            op_method = attr ~default:"*" child "method";
            op_resource_arg =
              (match attr ~default:"none" child "resourcearg" with
              | "last" -> true
              | "none" -> false
              | v -> fail "operation resourcearg must be last|none, found %S" v);
          }
          :: !operations
      | "principal" ->
        principals :=
          (attr child "classprefix", attr child "domain") :: !principals
      | t -> fail "unexpected <%s> inside <policy>" t)
    root.children;
  Policy.make ~default_allow ~rules:(List.rev !rules)
    ~resources:(List.rev !resources) ~operations:(List.rev !operations)
    ~principals:(List.rev !principals)
