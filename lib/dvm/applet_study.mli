(** The applet-download study of §4.1.2: client-visible latency when
    loading Internet applets through the service infrastructure,
    uncached (full pipeline) vs cached. *)

type stats = {
  n : int;
  mean_internet_ms : float;
  stddev_internet_ms : float;
  mean_proxy_overhead_ms : float;
  overhead_percent : float;
  mean_cached_ms : float;
}

val run : unit -> stats
(** The study over 100 applets drawn from seed 42. *)
