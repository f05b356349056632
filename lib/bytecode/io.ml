(* Big-endian byte-level readers and writers used by the class-file
   encoder/decoder and by services that attach binary attributes. *)

exception Truncated of string
exception Overflow of string

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let u1 b v = Buffer.add_char b (Char.chr (v land 0xff))

  (* Counts, indices and offsets are u2 on the wire: a value that does
     not fit is a structural error in the class being emitted, and
     silently masking it would produce a syntactically valid but
     corrupt class file. Raise instead. *)
  let overflow what v =
    raise (Overflow (Printf.sprintf "%s: value %d exceeds 16 bits" what v))

  (* One [Buffer] call per number: the encoder writes every count,
     index and offset through these. [u4] writes the low 32 bits. *)
  let u2 b v =
    if v < 0 || v > 0xffff then overflow "u2" v;
    Buffer.add_uint16_be b v

  let u4 b v = Buffer.add_int32_be b (Int32.of_int v)
  let i4 b (v : int32) = Buffer.add_int32_be b v

  let i2 b v =
    (* two's-complement 16-bit *)
    if v < -0x8000 || v > 0x7fff then overflow "i2" v;
    u2 b (v land 0xffff)

  let str b s =
    if String.length s > 0xffff then
      raise
        (Overflow
           (Printf.sprintf "str: string length %d exceeds 65535"
              (String.length s)));
    u2 b (String.length s);
    Buffer.add_string b s

  let raw b s = Buffer.add_string b s
  let contents = Buffer.contents
end

module Reader = struct
  (* A reader is a slice view [off, limit) of an underlying string;
     [sub] carves nested slices without copying the bytes. [pos] is an
     absolute index into [data], but every reported position (and
     [pos]/[remaining]) is relative to the slice, so errors read the
     same whether the bytes came from a whole string or a view. *)
  type t = { data : string; off : int; limit : int; mutable pos : int }

  let of_string data = { data; off = 0; limit = String.length data; pos = 0 }
  let pos r = r.pos - r.off
  let remaining r = r.limit - r.pos
  let at_end r = remaining r = 0

  let truncated r n what =
    raise
      (Truncated
         (Printf.sprintf "%s: need %d bytes at %d" what n (r.pos - r.off)))

  (* Small enough to inline: the failure path is a separate call. *)
  let need r n what = if remaining r < n then truncated r n what

  let u1 r =
    need r 1 "u1";
    let v = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u2 r =
    need r 2 "u2";
    let v = String.get_uint16_be r.data r.pos in
    r.pos <- r.pos + 2;
    v

  let u4 r =
    need r 4 "u4";
    let v = Int32.to_int (String.get_int32_be r.data r.pos) land 0xffff_ffff in
    r.pos <- r.pos + 4;
    v

  let i4 r = Int32.of_int (u4 r)

  let i2 r =
    let v = u2 r in
    if v land 0x8000 <> 0 then v - 0x10000 else v

  let str r =
    let n = u2 r in
    need r n "str";
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let raw r n =
    need r n "raw";
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let unread r = (r.data, r.pos, r.limit)

  let sub r n =
    need r n "sub";
    let s = { data = r.data; off = r.pos; limit = r.pos + n; pos = r.pos } in
    r.pos <- r.pos + n;
    s

  let skip r n =
    need r n "skip";
    r.pos <- r.pos + n
end
