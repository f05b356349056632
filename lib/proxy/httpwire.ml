(* The proxy's wire protocol.

   The paper's proxy is an HTTP proxy (the evaluation runs it in front
   of Netscape Enterprise); this is the minimal HTTP/1.0-shaped framing
   the reproduction's clients send: a GET line naming the class
   resource, then the deadline and trace headers. The framing exists so
   that byte volumes on the wire include protocol overhead and so
   malformed requests have somewhere to be rejected. Replies travel as
   simulated transfers of the class bytes, with no framing of their
   own. *)

exception Bad_message of string

let fail fmt = Format.kasprintf (fun s -> raise (Bad_message s)) fmt

let crlf = "\r\n"

(* One buffer reused across encodes: the session frames every fetch,
   so the staging bytes are
   written once into [scratch] and copied out exactly once by
   [Buffer.contents] — no sprintf intermediates. Single-threaded (the
   simulator is), like every other service-side scratch structure
   here. *)
let scratch = Buffer.create 256

(* --- Requests. --- *)

(* [d] in decimal, as [%Ld] prints it. Digits are taken off the
   nonpositive side, which holds [Int64.min_int]. *)
let digits = Bytes.create 20

let add_int64 b d =
  let neg = Int64.compare d 0L < 0 in
  let n = ref (if neg then d else Int64.neg d) and i = ref 20 in
  while
    decr i;
    Bytes.set digits !i
      (Char.unsafe_chr (48 - Int64.to_int (Int64.rem !n 10L)));
    n := Int64.div !n 10L;
    not (Int64.equal !n 0L)
  do
    ()
  done;
  if neg then Buffer.add_char b '-';
  Buffer.add_subbytes b digits !i (20 - !i)

(* [d] as 16 lowercase hex digits, as [%016Lx] prints it. *)
let add_hex16 b d =
  for i = 15 downto 0 do
    Buffer.add_char b
      "0123456789abcdef".[Int64.to_int (Int64.shift_right_logical d (4 * i))
                          land 15]
  done

let encode_request ?deadline_us ?trace ~cls () =
  let b = scratch in
  Buffer.clear b;
  Buffer.add_string b "GET /";
  Buffer.add_string b cls;
  Buffer.add_string b " DVM/1.0\r\n";
  (match deadline_us with
  | Some d ->
    Buffer.add_string b "Deadline-Us: ";
    add_int64 b d;
    Buffer.add_string b crlf
  | None -> ());
  (match trace with
  | Some (tid, parent) ->
    Buffer.add_string b "Trace-Id: ";
    add_hex16 b tid;
    Buffer.add_string b "\r\nParent-Span-Id: ";
    add_int64 b (Int64.of_int parent);
    Buffer.add_string b crlf
  | None -> ());
  Buffer.add_string b crlf;
  Buffer.contents b

type request = {
  rq_cls : string;
  rq_deadline_us : int64 option;
  rq_trace_id : int64 option;
  rq_parent_span : int option;
}

(* In-place readers over [data]; none of them allocates. *)

(* [data.[off .. off + len)] is [lit]. *)
let rec equal_at data off len lit i =
  if i = 0 then len = String.length lit
  else
    let i = i - 1 in
    String.get data (off + i) = String.get lit i && equal_at data off len lit i

let is_at data off len lit =
  len = String.length lit && equal_at data off len lit len

(* What [String.trim] strips. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let max_int64_div10 = Int64.div Int64.max_int 10L
let max_int64_mod10 = Int64.to_int (Int64.rem Int64.max_int 10L)

(* [data.[i .. stop)] as a strict decimal int64: [None] unless it is
   one or more digits and below 2^63, the bound [Int64.of_string]
   enforces. The loop stops at the first non-digit or at the digit that
   would overflow. *)
let dec_int64 data i stop =
  let n = ref 0L and j = ref i in
  while
    !j < stop
    &&
    let d = Char.code (String.get data !j) - 48 in
    d >= 0 && d <= 9
    && (Int64.compare !n max_int64_div10 < 0
       || (Int64.equal !n max_int64_div10 && d <= max_int64_mod10))
    &&
    (n := Int64.add (Int64.mul !n 10L) (Int64.of_int d);
     incr j;
     true)
  do
    ()
  done;
  if !j = stop && stop > i then Some !n else None

(* Sixteen lowercase hex digits as an int64 (the high bit may be set);
   0 when a digit is not lowercase hex — which the decoder rejects the
   same way as an all-zero id. *)
let hex16 data i =
  let n = ref 0L and ok = ref true in
  for j = i to i + 15 do
    let v =
      match String.get data j with
      | '0' .. '9' as c -> Char.code c - 48
      | 'a' .. 'f' as c -> Char.code c - 87
      | _ -> ok := false; 0
    in
    n := Int64.logor (Int64.shift_left !n 4) (Int64.of_int v)
  done;
  if !ok then !n else 0L

(* A request is the GET line, zero or more known headers —
   [Deadline-Us] (the client's absolute deadline on the virtual clock,
   which admission control sheds against), [Trace-Id] (16 hex digits
   naming the distributed trace) and [Parent-Span-Id] (the span the
   next hop nests under) — and the blank-line terminator. Old peers
   that send none of them still decode. Framing stays strict: a lone
   "\r" is truncated, anything after the terminator is garbage, a
   repeated or unknown header is rejected rather than skipped, and
   [Parent-Span-Id] without [Trace-Id] is an orphan — there is exactly
   one wire dialect.

   The decoder reads the line and the headers in place; on the
   accepted path it copies out only the class name. A header value is
   the text after the first ':', with what [String.trim] strips
   removed from both ends. *)
let decode_request_full (data : string) : request =
  let len = String.length data in
  (* One pass to the first '\r', noting the first space past "GET ". *)
  let eol = ref 0 and sp = ref (-1) in
  while !eol < len && data.[!eol] <> '\r' do
    if !sp < 0 && !eol >= 4 && data.[!eol] = ' ' then sp := !eol;
    incr eol
  done;
  let eol = !eol and sp = !sp in
  if eol = len then fail "no request line terminator";
  if eol + 2 > len || data.[eol + 1] <> '\n' then
    fail "missing blank-line terminator after request line";
  (* "GET <path> DVM/1.0": exactly two spaces, the outer words fixed. *)
  if
    eol < 4
    || (not (is_at data 0 4 "GET "))
    || sp < 0
    || not (is_at data (sp + 1) (eol - sp - 1) "DVM/1.0")
  then fail "malformed request line %S" (String.sub data 0 eol);
  if sp - 4 < 2 || data.[4] <> '/' then
    fail "bad request path %S" (String.sub data 4 (sp - 4));
  let cls = String.sub data 5 (sp - 5) in
  let deadline = ref None and trace_id = ref None and parent = ref None in
  let from = ref (eol + 2) in
  while
    let f = !from in
    if f + 2 > len then fail "missing blank-line terminator after request line";
    if data.[f] = '\r' && data.[f + 1] = '\n' then begin
      if len <> f + 2 then
        fail "trailing garbage after request (%d extra bytes)" (len - f - 2);
      false
    end
    else begin
      (* One pass to the line's "\r\n", noting its first ':'. *)
      let heol = ref f and colon = ref (-1) in
      while
        !heol + 1 < len
        && not (data.[!heol] = '\r' && data.[!heol + 1] = '\n')
      do
        if !colon < 0 && data.[!heol] = ':' then colon := !heol;
        incr heol
      done;
      let heol = !heol and colon = !colon in
      if heol + 1 >= len then
        fail "missing blank-line terminator after request line";
      if colon < 0 then
        fail "malformed request header %S" (String.sub data f (heol - f));
      let vs = ref (colon + 1) and ve = ref heol in
      while !vs < !ve && is_space data.[!vs] do incr vs done;
      while !ve > !vs && is_space data.[!ve - 1] do decr ve done;
      let vs = !vs and ve = !ve in
      let name_len = colon - f in
      if is_at data f name_len "Deadline-Us" then begin
        match dec_int64 data vs ve with
        | Some _ as d ->
          if Option.is_some !deadline then fail "repeated header Deadline-Us";
          deadline := d
        | None -> fail "bad deadline %S" (String.sub data vs (ve - vs))
      end
      else if is_at data f name_len "Trace-Id" then begin
        let id = if ve - vs = 16 then hex16 data vs else 0L in
        if Int64.equal id 0L then
          fail "bad trace id %S" (String.sub data vs (ve - vs));
        if Option.is_some !trace_id then fail "repeated header Trace-Id";
        trace_id := Some id
      end
      else if is_at data f name_len "Parent-Span-Id" then begin
        (* an OCaml int: below 2^62 *)
        match dec_int64 data vs ve with
        | Some p when Int64.compare p (Int64.of_int max_int) <= 0 ->
          if Option.is_some !parent then fail "repeated header Parent-Span-Id";
          parent := Some (Int64.to_int p)
        | Some _ | None ->
          fail "bad parent span id %S" (String.sub data vs (ve - vs))
      end
      else fail "unknown request header %S" (String.sub data f (heol - f));
      from := heol + 2;
      true
    end
  do
    ()
  done;
  if Option.is_some !parent && Option.is_none !trace_id then
    fail "Parent-Span-Id without Trace-Id";
  {
    rq_cls = cls;
    rq_deadline_us = !deadline;
    rq_trace_id = !trace_id;
    rq_parent_span = !parent;
  }
