(** The shared cost model, in simulated microseconds on the paper's
    reference client (200 MHz PentiumPro, 64 MB). All constants are
    calibrations anchored to numbers the paper reports; the
    reproduction claims shapes, not cycle counts (DESIGN.md). *)

val client_parse_us_per_byte : float

val monolithic_verify_us_per_check : float
(** Figure 7's bars are (Figure 8 checks) x this constant. *)

val monolithic_audit_us_per_invocation : float

(** Figure 9 "JDK (overhead)" column, µs. *)

val jdk_overhead_get_property : int64
val jdk_overhead_open_file : int64
val jdk_overhead_set_priority : int64

val lan_transfer_us : bytes:int -> int

val client_us_of_vm : Jvm.Vmstate.t -> int64
(** Instruction counts weighted by interpretation speed plus native
    costs at face value. *)
