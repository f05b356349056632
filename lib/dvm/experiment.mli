(** The end-to-end experiment harness (§4.1, Figure 6).

    Runs a benchmark application under a service architecture,
    accounting every component of the wall time: client execution,
    client-resident service work, proxy work, and network transfer.
    Both architectures use identical clients and identical class bytes
    at the origin; only the service architecture differs. *)

type architecture = Monolithic | Dvm of { cached : bool }

type result = {
  r_app : string;
  r_arch : architecture;
  r_wall_us : int64;
  r_client_us : int64;  (** execution + client-resident service work *)
  r_proxy_us : int64;
  r_transfer_us : int64;
  r_bytes_fetched : int;
  r_static_checks : int;
  r_dynamic_checks : int;
  r_enforcement_checks : int;
  r_audit_events : int;
  r_output : string;
  r_decisions : (string * bool) list;
      (** enforcement (permission, verdict) sequence, in order; empty
          under the monolithic architecture *)
}

val standard_policy : Security.Policy.t
(** Per §4.1: a policy that forces the services to parse every class
    and examine every instruction. *)

type services = {
  verifier_counters : Verifier.Static_verifier.counters;
  security_counters : Security.Rewriter.counters;
  audit_counters : Monitor.Instrument.counters;
  filters : Rewrite.Filter.t list;
}

val standard_services :
  ?policy:Security.Policy.t ->
  ?elide:bool ->
  oracle:Verifier.Oracle.t ->
  unit ->
  services
(** [elide] (default true) lets the security rewriter drop checks the
    proxy-side dataflow analysis proves redundant. *)

val run :
  ?policy:Security.Policy.t ->
  ?elide:bool ->
  arch:architecture ->
  Workloads.Appgen.app ->
  result
