(** The proxy's wire protocol: minimal HTTP/1.0-shaped request framing
    (the paper's proxy is an HTTP proxy). A request names a class
    resource and may carry a deadline and a trace context. *)

exception Bad_message of string

val encode_request :
  ?deadline_us:int64 -> ?trace:int64 * int -> cls:string -> unit -> string
(** [deadline_us] adds a [Deadline-Us] header: the client's absolute
    deadline on the virtual clock, which proxy admission control sheds
    against. [trace] adds [Trace-Id] (16 hex digits) and
    [Parent-Span-Id] headers carrying the distributed-trace context. *)

type request = {
  rq_cls : string;
  rq_deadline_us : int64 option;
  rq_trace_id : int64 option;
  rq_parent_span : int option;
}

val decode_request_full : string -> request
(** Strict multi-header decode: the three known headers each at most
    once, no unknown headers, no trailing garbage, [Parent-Span-Id]
    only alongside [Trace-Id]. Requests from old peers carrying no
    headers still decode.
    @raise Bad_message on malformed input. *)
