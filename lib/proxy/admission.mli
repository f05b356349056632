(** Deadline-aware admission control for a proxy node.

    At dispatch, {!admit} decides whether a request can finish inside
    its deadline given the shard's current commitments: the caller
    passes an estimated completion cost (CPU backlog + expected
    hit/miss service cost) and the absolute deadline, and the
    controller sheds immediately ([Shed_deadline]) rather than letting
    the request queue behind work it cannot outrun. The expected miss
    cost is an EWMA over completed misses' actual service times.

    A bounded concurrent-request queue adds a deadline-independent
    shed ([Shed_queue]); its default limit is [max_int], so admission
    is passive until a request actually carries a deadline. Counters:
    [admission.shed_queue], [admission.shed_deadline]. *)

type verdict = Admit | Shed_queue | Shed_deadline

type t

val create : ?queue_limit:int -> unit -> t
(** A 50 ms initial miss estimate and EWMA α = 0.2. The queue is
    unbounded by default; [queue_limit] is there for [test_proxy]'s
    "admission queue shed", which needs a bound to shed against. *)

val admit : t -> now:int64 -> deadline:int64 option -> est_us:int64 -> verdict
(** [Admit] increments the in-flight count; the caller must balance
    every [Admit] with one {!complete}. *)

val complete : ?sample:int64 -> t -> unit
(** One admitted request finished. Pass [sample] (its actual service
    time) only when it exercised the miss path — those are the
    observations the miss-cost EWMA learns from. *)

val estimate_us : t -> int64
(** Current EWMA miss-cost estimate. *)

val inflight : t -> int
val admitted : t -> int
val shed_queue : t -> int
val shed_deadline : t -> int
