(** Big-endian byte-level readers and writers for the class-file wire
    format and binary attributes. *)

exception Truncated of string

exception Overflow of string
(** A value too wide for its wire field (u2 count/index/offset or
    length-prefixed string over 65535 bytes). Raised by {!Writer.u2},
    {!Writer.i2} and {!Writer.str} instead of silently masking. *)

module Writer : sig
  type t

  val create : unit -> t
  val u1 : t -> int -> unit

  val u2 : t -> int -> unit
  (** @raise Overflow when the value is outside [0, 65535]. *)

  val u4 : t -> int -> unit
  val i4 : t -> int32 -> unit

  val i2 : t -> int -> unit
  (** @raise Overflow when the value is outside [-32768, 32767]. *)

  val str : t -> string -> unit
  (** Length-prefixed (u2) string.
      @raise Overflow when the string is longer than 65535 bytes. *)

  val raw : t -> string -> unit
  val contents : t -> string
end

module Reader : sig
  type t

  val of_string : string -> t
  val pos : t -> int
  val remaining : t -> int
  val at_end : t -> bool
  val u1 : t -> int
  val u2 : t -> int
  val u4 : t -> int
  val i4 : t -> int32
  val i2 : t -> int
  val str : t -> string
  val raw : t -> int -> string

  val unread : t -> string * int * int
  (** [(data, start, limit)]: the unread bytes are [data]'s absolute
      range [start, limit). For a scan that reads without consuming. *)

  val sub : t -> int -> t
  (** [sub r n] is a zero-copy reader over the next [n] bytes of [r],
      advancing [r] past them. Positions reported by the slice (and by
      [pos]) are relative to its start. *)

  val skip : t -> int -> unit
end
