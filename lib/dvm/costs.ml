(* The shared cost model, expressed in simulated microseconds on the
   paper's reference client (200 MHz PentiumPro, 64 MB). All absolute
   constants are calibrations — the reproduction claims shapes, not
   cycle counts — but each is anchored to a number the paper reports:

   - interpretation speed anchors Figure 6's run-time magnitudes;
   - the per-check verifier cost anchors Figure 7 against the check
     counts of Figure 8;
   - the JDK security overheads are Figure 9's measured columns;
   - proxy parse/instrument cost anchors the 265 ms average applet
     overhead of §4.1.2 (see Proxy.Pipeline). *)

(* Client interpretation: one bytecode on the reference machine. *)
let client_us_per_bytecode = 5.0

(* Client-side class-file parsing (both architectures parse what they
   load). *)
let client_parse_us_per_byte = 2.0

(* Monolithic verifier: per static check at class-load time. Figure 7's
   bars are (checks from Figure 8) x (this constant). *)
let monolithic_verify_us_per_check = 10.0

(* Monolithic auditing-equivalent cost per method invocation (the
   null-proxy configuration performs the service in the client). *)
let monolithic_audit_us_per_invocation = 15.0

(* JDK 1.2 stack-introspection security overheads, Figure 9 "JDK
   (overhead)" column, µs. *)
let jdk_overhead_get_property = 47L
let jdk_overhead_open_file = 7224L
let jdk_overhead_set_priority = 1L

(* Client LAN: 10 Mb/s Ethernet. *)
let lan_bandwidth_bps = 10_000_000
let lan_latency_us = 500

let lan_transfer_us ~bytes =
  lan_latency_us
  + int_of_float (Float.of_int bytes *. 8.0 *. 1_000_000.0
                  /. Float.of_int lan_bandwidth_bps)

(* Convert the VM's cost units into microseconds: instruction counts
   weighted by interpretation speed, native costs taken at face
   value. *)
let client_us_of_vm (vm : Jvm.Vmstate.t) =
  Int64.of_float
    (float_of_int vm.Jvm.Vmstate.instr_count *. client_us_per_bytecode)
  |> Int64.add (Int64.of_int vm.Jvm.Vmstate.native_cost)
