(* The applet-download study of §4.1.2: the latency a client sees when
   loading Internet applets through the service infrastructure —
   uncached (full pipeline) versus cached (another client fetched the
   applet first) — against the raw Internet fetch latency. *)

type stats = {
  n : int;
  mean_internet_ms : float;
  stddev_internet_ms : float;
  mean_proxy_overhead_ms : float; (* parse+instrument time, uncached *)
  overhead_percent : float;
  mean_cached_ms : float; (* full fetch time when cached *)
}

(* Client-side HTTP request overhead (connection setup, headers,
   browser bookkeeping), paid on every fetch, cached or not. *)
let client_request_overhead_ms = 150.0

let run ?(seed = 42) ?(n = 100) () : stats =
  let pop = Workloads.Applets.population ~n ~seed () in
  let filters = Scaling.standard_filters () in
  let lat_ms ap = Float.of_int ap.Workloads.Applets.ap_wan_latency_us /. 1000.0 in
  let mean_internet =
    List.fold_left (fun a ap -> a +. lat_ms ap) 0.0 pop /. Float.of_int n
  in
  let stddev =
    sqrt
      (List.fold_left
         (fun a ap ->
           let d = lat_ms ap -. mean_internet in
           a +. (d *. d))
         0.0 pop
      /. Float.of_int n)
  in
  (* Uncached: run the real pipeline per applet and take its simulated
     CPU cost; cached: fixed cache service plus LAN transfer. *)
  let total_overhead_ms = ref 0.0 in
  let total_cached_ms = ref 0.0 in
  List.iter
    (fun ap ->
      let body =
        Bytecode.Encode.class_to_bytes (Workloads.Applets.realize ap)
      in
      let outcome = Proxy.Pipeline.run filters body in
      total_overhead_ms :=
        !total_overhead_ms
        +. (Int64.to_float (Proxy.Pipeline.total_cost outcome) /. 1000.0);
      let out_bytes = String.length outcome.Proxy.Pipeline.out_bytes in
      total_cached_ms :=
        !total_cached_ms +. 2.0 (* cache service *)
        +. client_request_overhead_ms
        +. (Float.of_int (Costs.lan_transfer_us ~bytes:out_bytes) /. 1000.0)
        +. (Costs.client_parse_us_per_byte *. Float.of_int out_bytes /. 1000.0))
    pop;
  let mean_overhead = !total_overhead_ms /. Float.of_int n in
  {
    n;
    mean_internet_ms = mean_internet;
    stddev_internet_ms = stddev;
    mean_proxy_overhead_ms = mean_overhead;
    overhead_percent = 100.0 *. mean_overhead /. mean_internet;
    mean_cached_ms = !total_cached_ms /. Float.of_int n;
  }
