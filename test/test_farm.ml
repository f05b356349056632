(* Tests for the sharded proxy farm: consistent-hash routing,
   ring-order failover, the shard-count-invariance and determinism
   guarantees, and the farm scaling experiment. *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile

let check = Alcotest.check
let fail = Alcotest.fail
let static = [ CF.Public; CF.Static ]

let hello =
  B.class_ "Hello"
    [
      B.meth ~flags:static "main" "()V"
        [
          B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
          B.Push_str "hi";
          B.Invokevirtual
            ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
          B.Return;
        ];
    ]

let hello_bytes = Bytecode.Encode.class_to_bytes hello

(* A farm whose origin serves the same class body under any name —
   routing tests care about who serves, not what. *)
let make_farm ?(shards = 4) ?(origin_latency_ms = 0) engine =
  let pool =
    Array.init shards (fun i ->
        Proxy.create engine
          ~host_name:(Printf.sprintf "shard%d" i)
          ~origin:(fun _ -> Some hello_bytes)
          ~origin_latency:(fun _ -> Simnet.Engine.ms origin_latency_ms)
          ~filters:[] ())
  in
  (Proxy.Farm.create engine pool, pool)

(* --- Routing. --- *)

let test_ring_routing () =
  let engine = Simnet.Engine.create () in
  let farm, _ = make_farm ~shards:4 engine in
  for i = 0 to 99 do
    let key = Printf.sprintf "a%d/c%d" i (i * 31) in
    let o = Proxy.Farm.owner farm key in
    check Alcotest.bool "owner in range" true (o >= 0 && o < 4);
    check Alcotest.int "owner stable" o (Proxy.Farm.owner farm key);
    match Proxy.Farm.preference_order farm key with
    | first :: _ as order ->
      check Alcotest.int "owner heads the preference order" o first;
      check
        (Alcotest.list Alcotest.int)
        "order is a permutation of the shards" [ 0; 1; 2; 3 ]
        (List.sort compare order)
    | [] -> fail "empty preference order"
  done;
  (* no shard starves over 400 keys (the shares are skewed, see
     [Farm.create]) *)
  let counts = Array.make 4 0 in
  for i = 0 to 399 do
    let o = Proxy.Farm.owner farm (Printf.sprintf "b%d/x" i) in
    counts.(o) <- counts.(o) + 1
  done;
  Array.iteri
    (fun i c ->
      check Alcotest.bool
        (Printf.sprintf "shard %d owns a fair share (%d/400)" i c)
        true (c > 40))
    counts

(* [hash_key] is FNV-1a 64 with the top two bits dropped: pinned on
   the published vectors, since a changed hash moves every key's
   owner. *)
let test_hash_key_vectors () =
  List.iter
    (fun (s, fnv) ->
      check Alcotest.int
        (Printf.sprintf "FNV-1a(%S) >> 2" s)
        (Int64.to_int (Int64.shift_right_logical fnv 2))
        (Proxy.Farm.hash_key s))
    [
      ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L);
    ]

(* The ring walk [preference_order] made per request before the
   failover orders were built once per ring slot, kept verbatim as the
   reference. *)
let ref_ring_position (t : Proxy.Farm.t) key =
  let h = Proxy.Farm.hash_key key in
  let n = Array.length t.ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.ring.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let ref_preference_order (t : Proxy.Farm.t) key =
  let n = Array.length t.ring in
  let start = ref_ring_position t key in
  let seen = Array.make (Array.length t.shards) false in
  let order = ref [] in
  for i = 0 to n - 1 do
    let s = snd t.ring.((start + i) mod n) in
    if not seen.(s) then begin
      seen.(s) <- true;
      order := s :: !order
    end
  done;
  List.rev !order

let test_routing_matches_ring_walk () =
  let st = Random.State.make [| 20260817 |] in
  let keys =
    Array.init 10_000 (fun i ->
        if i mod 2 = 0 then Printf.sprintf "a%d/C%d" (i mod 97) i
        else
          String.init (Random.State.int st 25) (fun _ ->
              Char.chr (Random.State.int st 256)))
  in
  for shards = 1 to 8 do
    List.iter
      (fun vnodes ->
        let engine = Simnet.Engine.create () in
        let _, pool = make_farm ~shards engine in
        let farm = Proxy.Farm.create ~vnodes engine pool in
        Array.iter
          (fun key ->
            let want = ref_preference_order farm key in
            if Proxy.Farm.preference_order farm key <> want then
              Alcotest.failf "%d shards x %d vnodes: order of %S differs"
                shards vnodes key;
            if Proxy.Farm.owner farm key <> List.hd want then
              Alcotest.failf "%d shards x %d vnodes: owner of %S differs"
                shards vnodes key)
          keys)
      [ 1; 3; 64 ]
  done

let test_request_routes_to_owner () =
  let engine = Simnet.Engine.create () in
  let farm, pool = make_farm ~shards:4 engine in
  let cls = "some/Applet" in
  let o = Proxy.Farm.owner farm cls in
  let got = ref None in
  Proxy.Farm.request farm ~cls (fun r -> got := Some r);
  Simnet.Engine.run engine;
  (match !got with
  | Some (Proxy.Bytes _) -> ()
  | _ -> fail "owner did not serve");
  Array.iteri
    (fun i p ->
      check Alcotest.int
        (Printf.sprintf "shard %d request count" i)
        (if i = o then 1 else 0)
        p.Proxy.requests)
    pool;
  check Alcotest.int "no failover on the happy path" 0
    farm.Proxy.Farm.failovers

(* --- Failover. --- *)

let test_failover_walks_ring_and_returns () =
  let engine = Simnet.Engine.create () in
  let farm, pool = make_farm ~shards:4 engine in
  let cls = "some/Applet" in
  let order = Proxy.Farm.preference_order farm cls in
  let owner = List.nth order 0 and second = List.nth order 1 in
  Simnet.Host.crash pool.(owner).Proxy.host;
  let got = ref None in
  Proxy.Farm.request farm ~cls (fun r -> got := Some r);
  Simnet.Engine.run engine;
  (match !got with
  | Some (Proxy.Bytes _) -> ()
  | _ -> fail "secondary did not serve");
  check Alcotest.int "served by the next shard on the ring" 1
    pool.(second).Proxy.requests;
  check Alcotest.int "down owner untouched" 0 pool.(owner).Proxy.requests;
  check Alcotest.int "failover counted" 1 farm.Proxy.Farm.failovers;
  (* a restarted owner takes its keys back immediately *)
  Simnet.Host.restart pool.(owner).Proxy.host;
  Proxy.Farm.request farm ~cls (fun _ -> ());
  Simnet.Engine.run engine;
  check Alcotest.int "owner serves again after restart" 1
    pool.(owner).Proxy.requests;
  check Alcotest.int "no new failover" 1 farm.Proxy.Farm.failovers

let test_mid_flight_crash_fails_over () =
  let engine = Simnet.Engine.create () in
  let farm, pool = make_farm ~shards:3 ~origin_latency_ms:100 engine in
  let cls = "some/Applet" in
  let order = Proxy.Farm.preference_order farm cls in
  let owner = List.nth order 0 and second = List.nth order 1 in
  let got = ref None in
  Proxy.Farm.request farm ~cls (fun r -> got := Some r);
  (* crash the owner while its pipeline run occupies the CPU *)
  Simnet.Engine.schedule engine ~delay:100_200L (fun () ->
      Simnet.Host.crash pool.(owner).Proxy.host);
  Simnet.Engine.run engine;
  (match !got with
  | Some (Proxy.Bytes _) -> ()
  | _ -> fail "request lost in mid-flight crash");
  check Alcotest.int "handed to the next shard" 1 pool.(second).Proxy.requests;
  check Alcotest.int "failover counted" 1 farm.Proxy.Farm.failovers

let test_all_down_unavailable () =
  let engine = Simnet.Engine.create () in
  let farm, pool = make_farm ~shards:3 engine in
  Array.iter (fun p -> Simnet.Host.crash p.Proxy.host) pool;
  let got = ref None in
  Proxy.Farm.request farm ~cls:"some/Applet" (fun r -> got := Some r);
  Simnet.Engine.run engine;
  (match !got with
  | Some Proxy.Unavailable -> ()
  | _ -> fail "expected Unavailable with every shard down");
  check Alcotest.int "unavailable counted" 1 farm.Proxy.Farm.unavailable

(* --- Determinism and shard-count invariance. --- *)

let test_same_seed_same_trace () =
  let go () =
    Dvm.Scaling.run_farm ~duration_s:8 ~seed:11 ~clients:10 ~applet_count:5
      ~cache_capacity:(8 * 1024 * 1024) ~shards:3 ()
  in
  let p1 = go () and p2 = go () in
  check Alcotest.bool "trace digest nonempty" true
    (String.length p1.Dvm.Scaling.f_trace_digest > 0);
  check Alcotest.string "identical event traces under a fixed seed"
    p1.Dvm.Scaling.f_trace_digest p2.Dvm.Scaling.f_trace_digest;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "identical served digests" p1.Dvm.Scaling.f_served
    p2.Dvm.Scaling.f_served;
  check Alcotest.int "identical completion counts"
    p1.Dvm.Scaling.f_requests_completed p2.Dvm.Scaling.f_requests_completed

let test_shard_count_invariant_bytes () =
  (* The farm changes who does the work, never the work: the rewritten
     bytes served for each applet are identical whatever the shard
     count. (Shared popular workload so both configurations serve the
     same name set.) *)
  let go shards =
    Dvm.Scaling.run_farm ~duration_s:10 ~seed:5 ~clients:12 ~applet_count:6
      ~cache_capacity:(16 * 1024 * 1024) ~shards ()
  in
  let one = go 1 and three = go 3 in
  check Alcotest.bool "all applets served" true
    (List.length one.Dvm.Scaling.f_served = 6
    && List.length three.Dvm.Scaling.f_served = 6);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "served bytes identical across shard counts" one.Dvm.Scaling.f_served
    three.Dvm.Scaling.f_served

(* --- The scaling experiment. --- *)

let test_farm_scaling_past_the_knee () =
  (* Past a single proxy's memory knee, sharding divides the
     per-client state: aggregate throughput from 1 -> 4 shards must
     grow at least 3x (a small memory budget keeps the test quick;
     the regime is the same as 400 clients against 64 MB). *)
  let go shards =
    Dvm.Scaling.run_farm ~duration_s:8 ~seed:7 ~clients:48 ~applet_count:8
      ~mem_capacity:(4 * 1024 * 1024) ~shards ()
  in
  let one = go 1 and four = go 4 in
  check Alcotest.bool "one shard is thrashing" true
    (one.Dvm.Scaling.f_throughput_bytes_per_s > 0.0);
  let ratio =
    four.Dvm.Scaling.f_throughput_bytes_per_s
    /. one.Dvm.Scaling.f_throughput_bytes_per_s
  in
  check Alcotest.bool
    (Printf.sprintf "1 -> 4 shards scales >= 3x (got %.1fx)" ratio)
    true (ratio >= 3.0)

let test_coalescing_under_shared_load () =
  (* Shared popular workload: concurrent misses for the same class
     must coalesce (counter > 0) and the pipeline must run far fewer
     times than there are completions. Byte-identity of coalesced
     replies is enforced inside run_farm (divergence is fatal). *)
  let p =
    Dvm.Scaling.run_farm ~duration_s:8 ~seed:7 ~clients:40 ~applet_count:4
      ~cache_capacity:(16 * 1024 * 1024) ~shards:2 ()
  in
  check Alcotest.bool "requests coalesced" true (p.Dvm.Scaling.f_coalesced > 0);
  check Alcotest.bool "pipeline ran once per class" true
    (p.Dvm.Scaling.f_pipeline_runs <= 4);
  check Alcotest.bool "completions exceed pipeline runs" true
    (p.Dvm.Scaling.f_requests_completed > p.Dvm.Scaling.f_pipeline_runs)

let raises_invalid_arg f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_zero_applets_rejected () =
  check Alcotest.bool "run_farm" true
    (raises_invalid_arg (fun () ->
         Dvm.Scaling.run_farm ~applet_count:0 ~shards:1 ~clients:1 ()));
  check Alcotest.bool "run_control" true
    (raises_invalid_arg (fun () ->
         Dvm.Chaos.run_control
           { Dvm.Chaos.default_control_config with Dvm.Chaos.cc_applets = 0 }))

let test_names_outside_the_applet_scheme () =
  (* The applet origin serves "a<k>/..." names only. Any other name —
     another letter, a negative index, no '/' at all — has no body and
     the 2 s no-slash latency: each fetch of one settles Failed once,
     and the run drains instead of raising out of [Engine.run]. *)
  let origin, origin_latency =
    Dvm.Scaling.applet_workload ~applet_count:4 ~seed:7
  in
  let engine = Simnet.Engine.create () in
  let pool =
    Array.init 2 (fun i ->
        Proxy.create engine ~host_name:(Dvm.Scaling.shard_name i) ~origin
          ~origin_latency ~filters:[] ())
  in
  let session =
    Dvm.Client.Session.create engine (Proxy.Farm.create engine pool)
  in
  let names = [ "b/x"; "a-1/x"; "nope" ] in
  let got = ref [] in
  List.iter
    (fun cls ->
      check Alcotest.bool (cls ^ ": no body") true (origin cls = None);
      check Alcotest.int64 (cls ^ ": no-slash latency") (Simnet.Engine.ms 2000)
        (origin_latency cls);
      Dvm.Client.Session.fetch session ~cls (fun r -> got := (cls, r) :: !got))
    names;
  Simnet.Engine.run engine;
  List.iter
    (fun cls ->
      match List.filter (fun (n, _) -> String.equal n cls) !got with
      | [ (_, Dvm.Client.Session.Failed) ] -> ()
      | l ->
        Alcotest.failf "%s: %d outcomes, want one Failed" cls (List.length l))
    names;
  check Alcotest.int "three failures counted" 3
    session.Dvm.Client.Session.failed;
  check Alcotest.bool "a5/x is body 1" true (origin "a5/x" = origin "a1/y")

(* --- The client population loop, on a bare engine. --- *)

(* Runs [population] and logs every fetch as (time, id, iter, applet);
   [continue] decides whether a client thinks and fetches again. *)
let population_log ?start ?first_id ?gate ~clients ~applets ~think continue =
  let engine = Simnet.Engine.create () in
  let log = ref [] in
  Dvm.Scaling.population ?start ?first_id ?gate engine ~clients ~applets
    ~think (fun ~id ~iter ~applet next ->
      log := (Simnet.Engine.now engine, id, iter, applet) :: !log;
      if continue ~id ~iter then next ());
  Simnet.Engine.run engine;
  List.rev !log

let times_of log id =
  List.filter_map (fun (at, i, _, _) -> if i = id then Some at else None) log

let test_population_arrivals_and_rotation () =
  (* client 3 stops after its first fetch; the others fetch 3 times *)
  let log =
    population_log ~clients:4 ~applets:5 ~think:1_000L (fun ~id ~iter ->
        id <> 3 && iter < 2)
  in
  let firsts = List.filter (fun (_, _, iter, _) -> iter = 0) log in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int64 Alcotest.int))
    "first fetches staggered over one second, in id order"
    [ (0L, 0); (250_000L, 1); (500_000L, 2); (750_000L, 3) ]
    (List.map (fun (at, id, _, _) -> (at, id)) firsts);
  List.iter
    (fun (_, id, iter, applet) ->
      check Alcotest.int "applet is (id + 37 i) mod applets"
        ((id + (37 * iter)) mod 5) applet)
    log;
  List.iter
    (fun id ->
      let t0 = List.hd (times_of log id) in
      check (Alcotest.list Alcotest.int64) "fetches exactly think apart"
        [ t0; Int64.add t0 1_000L; Int64.add t0 2_000L ]
        (times_of log id))
    [ 0; 1; 2 ];
  check Alcotest.int "a client that does not continue stops" 1
    (List.length (times_of log 3))

let test_population_gate_start_first_id () =
  (* clients 10 and 11 arrive at 5.0 s and 5.5 s and fetch every
     0.4 s while the gate holds (before 6 s) *)
  let log =
    population_log ~start:5_000_000L ~first_id:10
      ~gate:(fun now -> Int64.compare now 6_000_000L < 0)
      ~clients:2 ~applets:7 ~think:400_000L (fun ~id:_ ~iter:_ -> true)
  in
  check (Alcotest.list Alcotest.int64) "client 10 until the gate closes"
    [ 5_000_000L; 5_400_000L; 5_800_000L ] (times_of log 10);
  check (Alcotest.list Alcotest.int64) "client 11 until the gate closes"
    [ 5_500_000L; 5_900_000L ] (times_of log 11);
  check Alcotest.int "ids shifted by first_id" 5 (List.length log);
  check Alcotest.int "first applet follows the shifted id" (10 mod 7)
    (match log with (_, _, _, applet) :: _ -> applet | [] -> -1);
  check Alcotest.int "a false gate stops every fetch" 0
    (List.length
       (population_log ~gate:(fun _ -> false) ~clients:3 ~applets:2
          ~think:1_000L (fun ~id:_ ~iter:_ -> true)));
  check Alcotest.bool "zero applets rejected" true
    (raises_invalid_arg (fun () ->
         population_log ~clients:1 ~applets:0 ~think:1_000L
           (fun ~id:_ ~iter:_ -> false)))

(* --- Flapping: the breaker hysteresis regression, through routing. ---

   A shard that alternates up/down used to flap routing on every
   dispatch: each crash sent its keys to the successor, each restart
   took them back. The breaker's windowed failure count (successes
   reset the consecutive counter but not the window) opens after enough
   flaps, and routing then keeps the shard out of rotation until a
   cooldown's worth of probe successes closes the breaker again. *)

let test_flapping_replica_stabilizes () =
  let engine = Simnet.Engine.create () in
  let farm, pool = make_farm ~shards:4 engine in
  let cls = "some/Applet" in
  let order = Proxy.Farm.preference_order farm cls in
  let owner = List.nth order 0 and second = List.nth order 1 in
  (* one request through the farm: did the owner serve it? *)
  let route () =
    let before = pool.(owner).Proxy.requests in
    let got = ref None in
    Proxy.Farm.request farm ~cls (fun r -> got := Some r);
    Simnet.Engine.run engine;
    (match !got with
    | Some (Proxy.Bytes _) -> ()
    | _ -> fail "flapping request not served");
    pool.(owner).Proxy.requests > before
  in
  let flap_route () =
    Simnet.Host.crash pool.(owner).Proxy.host;
    let down = route () in
    Simnet.Host.restart pool.(owner).Proxy.host;
    let up = route () in
    (down, up)
  in
  (* first flaps: routing follows the host, i.e. it flaps too *)
  let d1, u1 = flap_route () in
  check Alcotest.bool "first crash routes past the owner" false d1;
  check Alcotest.bool "first restart routes to the owner" true u1;
  (* keep flapping: the windowed failures open the breaker, and routing
     stops following the flaps even while the host is up *)
  let _ = flap_route () in
  let _ = flap_route () in
  let _, u4 = flap_route () in
  check Alcotest.bool "after repeated flaps routing keeps off the owner" false
    u4;
  check Alcotest.bool "breaker tripped" true
    (Proxy.Breaker.trips farm.Proxy.Farm.breakers.(owner) > 0);
  (* routing honours the open breaker: the owner is skipped without
     being touched, even though its host is up right now *)
  let before = pool.(owner).Proxy.requests in
  let got = ref None in
  Proxy.Farm.request farm ~cls (fun r -> got := Some r);
  Simnet.Engine.run engine;
  (match !got with
  | Some (Proxy.Bytes _) -> ()
  | _ -> fail "successor did not serve");
  check Alcotest.int "open breaker keeps traffic off the flapper" before
    pool.(owner).Proxy.requests;
  check Alcotest.bool "served by the successor" true
    (pool.(second).Proxy.requests > 0);
  check Alcotest.bool "breaker skip counted" true
    (farm.Proxy.Farm.breaker_skips > 0);
  (* after the cooldown, probe requests to the stable host close the
     breaker and the owner takes its keys back *)
  Simnet.Engine.schedule engine ~delay:(Simnet.Engine.sec 10) (fun () -> ());
  Simnet.Engine.run engine;
  check Alcotest.bool "stable probes rehabilitate the shard" true (route ());
  let before = pool.(owner).Proxy.requests in
  Proxy.Farm.request farm ~cls (fun _ -> ());
  Simnet.Engine.run engine;
  check Alcotest.int "owner serves again after rehabilitation" (before + 1)
    pool.(owner).Proxy.requests;
  check Alcotest.bool "breaker closed again" true
    (Proxy.Breaker.state farm.Proxy.Farm.breakers.(owner)
       ~now:(Simnet.Engine.now engine)
    = Proxy.Breaker.Closed)

(* --- Cache versioning and invalidation. --- *)

let test_cache_versioned_entries () =
  let c = Proxy.Cache.create ~capacity:(1024 * 1024) in
  Proxy.Cache.store ~version:1 c "k" "body-v1";
  check
    (Alcotest.option Alcotest.string)
    "same version hits" (Some "body-v1")
    (Proxy.Cache.find ~version:1 c "k");
  check Alcotest.bool "same version mem" true
    (Proxy.Cache.mem ~version:1 c "k");
  check Alcotest.bool "other version mem is a miss" false
    (Proxy.Cache.mem ~version:2 c "k");
  (* a mismatched lookup is a miss AND drops the stale entry *)
  check
    (Alcotest.option Alcotest.string)
    "version mismatch misses" None
    (Proxy.Cache.find ~version:2 c "k");
  check Alcotest.int "stale entry dropped on sight" 1 c.Proxy.Cache.stale_drops;
  check
    (Alcotest.option Alcotest.string)
    "entry gone for its own version too" None
    (Proxy.Cache.find ~version:1 c "k");
  (* version 0 is unversioned: matches anything, both directions *)
  Proxy.Cache.store ~version:0 c "u" "body-u";
  check
    (Alcotest.option Alcotest.string)
    "unversioned entry serves any version" (Some "body-u")
    (Proxy.Cache.find ~version:7 c "u");
  Proxy.Cache.store ~version:3 c "w" "body-w";
  check
    (Alcotest.option Alcotest.string)
    "unversioned lookup accepts any entry" (Some "body-w")
    (Proxy.Cache.find c "w")

let test_cache_remove () =
  let c = Proxy.Cache.create ~capacity:(1024 * 1024) in
  Proxy.Cache.store c "a" "body-a";
  Proxy.Cache.store c "b" "body-b";
  check Alcotest.bool "remove hits" true (Proxy.Cache.remove c "a");
  check Alcotest.bool "removed key misses" false (Proxy.Cache.mem c "a");
  check Alcotest.bool "other keys untouched" true (Proxy.Cache.mem c "b");
  check Alcotest.bool "second remove is a miss" false (Proxy.Cache.remove c "a");
  check Alcotest.int "invalidations counted once" 1
    c.Proxy.Cache.invalidations;
  check Alcotest.int "used bytes released" (String.length "body-b")
    c.Proxy.Cache.used

(* Regression: a shard restarting cache-cold used to rewarm from the
   shared L2 and resurrect entries rewritten under a policy version
   the farm has since revoked. Entries are now stamped with the policy
   version; a mismatched rewarm is a miss that drops the stale entry
   and the pipeline re-runs under the current stack. *)
let test_l2_rewarm_respects_policy_version () =
  let engine = Simnet.Engine.create () in
  let l2 = Proxy.Cache.create ~capacity:(4 * 1024 * 1024) in
  let mark name =
    Rewrite.Filter.make ~name (fun cf ->
        {
          cf with
          Bytecode.Classfile.fields =
            B.field name "I" :: cf.Bytecode.Classfile.fields;
        })
  in
  let node version filters =
    let p =
      Proxy.create engine ~cache_capacity:(4 * 1024 * 1024) ~l2
        ~host_name:(Printf.sprintf "shard-v%d" version)
        ~origin:(fun _ -> Some hello_bytes)
        ~origin_latency:(fun _ -> 0L)
        ~filters ()
    in
    p.Proxy.policy_version <- version;
    p
  in
  let a = node 1 [ mark "m1" ] in
  let b = node 2 [ mark "m2" ] in
  let serve p =
    match Proxy.request_sync p ~cls:"some/Applet" with
    | Proxy.Bytes s -> s
    | _ -> fail "expected bytes"
  in
  (* shard A fills its L1 and the shared L2 under policy v1 *)
  let v1_bytes = serve a in
  check Alcotest.bool "L2 warmed by shard A" true
    (Proxy.Cache.mem ~version:1 l2 "some/Applet");
  (* shard B (already at v2, cache-cold — the restarted shard) must
     NOT serve A's v1 bytes out of the shared tier *)
  let v2_bytes = serve b in
  check Alcotest.bool "stacks genuinely differ" false
    (String.equal v1_bytes v2_bytes);
  check Alcotest.int "no L2 rewarm across versions" 0 b.Proxy.l2_hits;
  check Alcotest.bool "stale L2 entry dropped on sight" true
    (l2.Proxy.Cache.stale_drops > 0);
  check Alcotest.int "pipeline re-ran under the current stack" 1
    b.Proxy.pipeline_runs;
  (* same-version rewarm still works: a third v2 shard hits B's entry *)
  let c = node 2 [ mark "m2" ] in
  let v2_again = serve c in
  check Alcotest.string "same-version rewarm serves identical bytes" v2_bytes
    v2_again;
  check Alcotest.int "served from the shared tier" 1 c.Proxy.l2_hits;
  check Alcotest.int "no pipeline run on the rewarm" 0 c.Proxy.pipeline_runs

(* --- The control plane. --- *)

let make_control ?(members = 3) ?(snapshot_threshold = 8) engine =
  let ctl = Proxy.Control.create engine ~snapshot_threshold () in
  let applied = Array.make members [] in
  let rigs =
    Array.init members (fun i ->
        let host =
          Simnet.Host.create engine ~name:(Printf.sprintf "m%d" i)
        in
        let link name =
          Simnet.Link.create engine
            ~name:(Printf.sprintf "%s-m%d" name i)
            ~bandwidth_bps:10_000_000 ~latency:(Simnet.Engine.us 500)
        in
        let lto = link "to" and lfrom = link "from" in
        let mid =
          Proxy.Control.add_member ctl ~name:(Printf.sprintf "m%d" i) ~host
            ~link_to:lto ~link_from:lfrom
            ~apply:(fun e -> applied.(i) <- e :: applied.(i))
        in
        (host, lto, lfrom, mid))
  in
  (ctl, rigs, applied)

let test_control_replicates_and_commits () =
  let engine = Simnet.Engine.create () in
  let ctl, rigs, applied = make_control ~members:3 engine in
  Proxy.Control.start ctl ~until:(Simnet.Engine.sec 10);
  Simnet.Engine.schedule_at engine (Simnet.Engine.sec 2) (fun () ->
      ignore (Proxy.Control.propose ctl (Proxy.Control.Set_version 2));
      ignore (Proxy.Control.propose ctl (Proxy.Control.Invalidate "a0/s")));
  Simnet.Engine.run ~until:(Simnet.Engine.sec 10) engine;
  check Alcotest.bool "converged" true (Proxy.Control.converged ctl);
  Array.iteri
    (fun i (_, _, _, mid) ->
      check Alcotest.int
        (Printf.sprintf "member %d applied the whole log" i)
        2
        (Proxy.Control.member_applied ctl mid);
      check Alcotest.int
        (Printf.sprintf "member %d at the new version" i)
        2
        (Proxy.Control.member_version ctl mid);
      check
        (Alcotest.list Alcotest.string)
        (Printf.sprintf "member %d applied in log order" i)
        [ "set-version 2"; "invalidate a0/s" ]
        (List.rev_map Proxy.Control.entry_to_string applied.(i)))
    rigs;
  check Alcotest.bool "all-acks commit beats the lease backstop" true
    (match Proxy.Control.commit_us ctl ~id:1 with
    | Some at -> at < Simnet.Engine.sec 3
    | None -> false);
  check Alcotest.int "committed version follows" 2
    (Proxy.Control.committed_version ctl)

let test_control_partition_fences_then_recovers () =
  let engine = Simnet.Engine.create () in
  let ctl, rigs, _ = make_control ~members:3 engine in
  let _, lto, lfrom, mid = rigs.(1) in
  Proxy.Control.start ctl ~until:(Simnet.Engine.sec 20);
  (* partition member 1's control links for 2..6 s; bump at 3 s *)
  Simnet.Engine.schedule_at engine (Simnet.Engine.sec 2) (fun () ->
      Simnet.Link.set_partitioned lto true;
      Simnet.Link.set_partitioned lfrom true);
  Simnet.Engine.schedule_at engine (Simnet.Engine.sec 3) (fun () ->
      ignore (Proxy.Control.propose ctl (Proxy.Control.Set_version 2)));
  (* by 3.5 s its lease (1 s, last renewed just before 2 s) is gone *)
  Simnet.Engine.schedule_at engine (Simnet.Engine.ms 3500) (fun () ->
      check Alcotest.bool "partitioned member is fenced" false
        (Proxy.Control.member_ok ctl mid);
      check Alcotest.bool "stale member has not applied the bump" true
        (Proxy.Control.member_version ctl mid < 2);
      check Alcotest.bool "bump not committed while a lease could be live"
        false
        (Proxy.Control.committed ctl ~id:1));
  (* the lease backstop: proposed at 3 s + 1 s lease + 100 ms margin.
     The entry commits then even though the partitioned member never
     acked — it is fenced, not waited on. *)
  Simnet.Engine.schedule_at engine (Simnet.Engine.ms 4200) (fun () ->
      check Alcotest.bool "bump committed at the lease backstop" true
        (Proxy.Control.committed ctl ~id:1));
  Simnet.Engine.schedule_at engine (Simnet.Engine.sec 6) (fun () ->
      Simnet.Link.set_partitioned lto false;
      Simnet.Link.set_partitioned lfrom false);
  Simnet.Engine.run ~until:(Simnet.Engine.sec 20) engine;
  check Alcotest.bool "healed member converges" true
    (Proxy.Control.converged ctl);
  check Alcotest.int "healed member reaches the new version" 2
    (Proxy.Control.member_version ctl mid);
  check Alcotest.bool "lease live again" true (Proxy.Control.member_ok ctl mid)

let test_control_restart_replays_log () =
  let engine = Simnet.Engine.create () in
  let ctl, rigs, applied = make_control ~members:2 engine in
  let host, _, _, mid = rigs.(1) in
  Proxy.Control.start ctl ~until:(Simnet.Engine.sec 12);
  Simnet.Engine.schedule_at engine (Simnet.Engine.sec 1) (fun () ->
      ignore (Proxy.Control.propose ctl (Proxy.Control.Set_version 2));
      ignore (Proxy.Control.propose ctl (Proxy.Control.Invalidate "a1/s")));
  (* crash at 3 s, restart at 5 s having lost all volatile state *)
  Simnet.Engine.schedule_at engine (Simnet.Engine.sec 3) (fun () ->
      Simnet.Host.crash host);
  Simnet.Engine.schedule_at engine (Simnet.Engine.sec 5) (fun () ->
      Simnet.Host.restart host;
      applied.(1) <- [];
      Proxy.Control.mark_restarted ctl mid;
      check Alcotest.bool "restarted member fenced until resync" false
        (Proxy.Control.member_ok ctl mid));
  Simnet.Engine.run ~until:(Simnet.Engine.sec 12) engine;
  check Alcotest.bool "recovered member converges" true
    (Proxy.Control.converged ctl);
  check
    (Alcotest.list Alcotest.string)
    "full log replayed in order after the restart"
    [ "set-version 2"; "invalidate a1/s" ]
    (List.rev_map Proxy.Control.entry_to_string applied.(1));
  check Alcotest.bool "resync counted" true
    (Proxy.Control.member_resyncs ctl mid >= 1);
  check Alcotest.bool "lease granted only after full replay" true
    (Proxy.Control.member_ok ctl mid)

(* With elections in play [propose] returns [None] while no leader
   holds a valid lease, and an entry accepted by a leader that dies
   before replicating it is legitimately lost — so callers that need
   an outcome re-propose. Both helpers re-propose the same content,
   which is safe because entries are idempotent joins. *)
let rec propose_retrying engine ctl entry =
  match Proxy.Control.propose ctl entry with
  | Some _ -> ()
  | None ->
    Simnet.Engine.schedule engine ~delay:200_000L (fun () ->
        propose_retrying engine ctl entry)

(* Re-propose [Set_version v] until it actually commits — immune to
   leader deaths that lose an accepted-but-uncommitted bump. *)
let rec ensure_version engine ctl v () =
  if Proxy.Control.committed_version ctl < v then begin
    ignore (Proxy.Control.propose ctl (Proxy.Control.Set_version v));
    Simnet.Engine.schedule engine ~delay:300_000L (ensure_version engine ctl v)
  end

let test_control_leader_crash_hands_off () =
  let engine = Simnet.Engine.create () in
  let ctl, rigs, _ = make_control ~members:3 engine in
  let host0, _, _, mid0 = rigs.(0) in
  let _, l2to, l2from, _ = rigs.(2) in
  (* member 2 is partitioned across the proposal so the all-acks arm
     cannot fire — only the fence backstop could commit, and the
     leader dies first *)
  Proxy.Control.start ctl ~until:(Simnet.Engine.sec 12);
  Simnet.Engine.schedule_at engine (Simnet.Engine.ms 1900) (fun () ->
      Simnet.Link.set_partitioned l2to true;
      Simnet.Link.set_partitioned l2from true);
  (* the bump lands at the bootstrap leader (member 0) and replicates
     to member 1 on the same tick... *)
  Simnet.Engine.schedule_at engine (Simnet.Engine.sec 2) (fun () ->
      check (Alcotest.option Alcotest.int) "member 0 won the bootstrap"
        (Some 0) (Proxy.Control.leader ctl);
      propose_retrying engine ctl (Proxy.Control.Set_version 2);
      propose_retrying engine ctl (Proxy.Control.Invalidate "a0/s"));
  (* ...then the leader dies mid-commit: majority-acked, but neither
     the all-acks arm nor the fence has fired *)
  Simnet.Engine.schedule_at engine (Simnet.Engine.ms 2500) (fun () ->
      check Alcotest.bool "entries not committed at the crash" false
        (Proxy.Control.committed ctl ~id:1);
      Simnet.Host.crash host0);
  Simnet.Engine.schedule_at engine (Simnet.Engine.ms 2600) (fun () ->
      Simnet.Link.set_partitioned l2to false;
      Simnet.Link.set_partitioned l2from false);
  (* member 1 campaigns once its election timeout expires, wins with
     member 2's vote (the election restriction favors its longer log),
     re-drives the orphaned suffix under its own term, and the fence
     backstop commits it. *)
  Simnet.Engine.schedule_at engine (Simnet.Engine.ms 5500) (fun () ->
      check (Alcotest.option Alcotest.int) "member 1 took over" (Some 1)
        (Proxy.Control.leader ctl);
      check Alcotest.bool "re-driven suffix committed under the new term"
        true
        (Proxy.Control.committed ctl ~id:1);
      check Alcotest.int "new version committed" 2
        (Proxy.Control.committed_version ctl));
  Simnet.Engine.schedule_at engine (Simnet.Engine.sec 6) (fun () ->
      Simnet.Host.restart host0;
      Proxy.Control.mark_restarted ctl mid0);
  Simnet.Engine.run ~until:(Simnet.Engine.sec 12) engine;
  check Alcotest.bool "plane converged after the hand-off" true
    (Proxy.Control.converged ctl);
  check Alcotest.bool "a hand-off election happened" true
    (Proxy.Control.elections ctl >= 2);
  check Alcotest.bool "leadership changed identity" true
    (Proxy.Control.leader_changes ctl >= 2);
  check Alcotest.bool "the orphaned suffix was re-driven" true
    (Proxy.Control.redrives ctl >= 1);
  check Alcotest.string "old leader rejoined as a follower" "follower"
    (Proxy.Control.member_role ctl mid0);
  Array.iter
    (fun (_, _, _, mid) ->
      check Alcotest.int "every member at the committed version" 2
        (Proxy.Control.member_version ctl mid);
      check Alcotest.string "state digests identical to full replay"
        (Proxy.Control.replay_digest ctl)
        (Proxy.Control.member_state_digest ctl mid))
    rigs

let test_control_snapshot_catch_up () =
  let engine = Simnet.Engine.create () in
  let ctl, rigs, applied =
    make_control ~members:3 ~snapshot_threshold:4 engine
  in
  let host2, _, _, mid2 = rigs.(2) in
  Proxy.Control.start ctl ~until:(Simnet.Engine.sec 16);
  Simnet.Engine.schedule_at engine (Simnet.Engine.sec 1)
    (ensure_version engine ctl 2);
  (* a cycling invalidation stream: 12 entries over four distinct
     keys, so the fold dedups aggressively *)
  for i = 0 to 11 do
    Simnet.Engine.schedule_at engine
      (Simnet.Engine.ms (1500 + (500 * i)))
      (fun () ->
        propose_retrying engine ctl
          (Proxy.Control.Invalidate (Printf.sprintf "a%d/s" (i mod 4))))
  done;
  (* member 2 is dead from 2 s to 10 s — across several folds *)
  Simnet.Engine.schedule_at engine (Simnet.Engine.sec 2) (fun () ->
      Simnet.Host.crash host2);
  Simnet.Engine.schedule_at engine (Simnet.Engine.sec 10) (fun () ->
      Simnet.Host.restart host2;
      applied.(2) <- [];
      Proxy.Control.mark_restarted ctl mid2);
  Simnet.Engine.run ~until:(Simnet.Engine.sec 16) engine;
  check Alcotest.bool "plane converged" true (Proxy.Control.converged ctl);
  check Alcotest.bool "the log was compacted" true
    (Proxy.Control.compactions ctl > 0);
  check Alcotest.bool "the rejoiner caught up from a snapshot" true
    (Proxy.Control.member_snapshot_installs ctl mid2 >= 1);
  check Alcotest.bool "the rejoiner is behind the leader's fold" true
    (Proxy.Control.member_snapshot_index ctl mid2 > 0);
  (* byte-identical to full-log replay — and to the member that DID
     apply the whole history entry by entry *)
  let _, _, _, mid0 = rigs.(0) in
  check Alcotest.string "snapshot catch-up state = full-log replay"
    (Proxy.Control.replay_digest ctl)
    (Proxy.Control.member_state_digest ctl mid2);
  check Alcotest.string "snapshot catch-up state = entry-by-entry state"
    (Proxy.Control.member_state_digest ctl mid0)
    (Proxy.Control.member_state_digest ctl mid2);
  (* the catch-up stream the rejoiner re-applied is the *fold*, not
     history: strictly fewer applies than committed entries *)
  check Alcotest.bool "caught up from the fold, not from history" true
    (List.length applied.(2) < Proxy.Control.log_length ctl)

(* Convergence property: whatever partition windows the seed throws at
   the members' control links, once every window has healed the plane
   converges — every member applies the authoritative log and agrees
   on the committed version, which reaches every bump that was driven
   to commitment. Windows all end by 8 s; the run goes to 20 s,
   leaving well over an election timeout + lease of healed time. *)
let prop_control_converges_after_partitions =
  let gen =
    QCheck.Gen.(
      let* members = int_range 2 4 in
      let* bumps = int_range 1 3 in
      let* windows =
        list_size (int_range 0 6)
          (triple (int_range 0 (members - 1)) (int_range 0 6_000)
             (int_range 1 2_000))
      in
      return (members, bumps, windows))
  in
  let print (members, bumps, windows) =
    Printf.sprintf "members=%d bumps=%d windows=[%s]" members bumps
      (String.concat ";"
         (List.map
            (fun (m, at, len) -> Printf.sprintf "m%d@%dms+%dms" m at len)
            windows))
  in
  QCheck.Test.make ~count:60
    ~name:"control plane converges to one version after any partition \
           schedule heals"
    (QCheck.make gen ~print)
    (fun (members, bumps, windows) ->
      let engine = Simnet.Engine.create () in
      let ctl, rigs, _ = make_control ~members engine in
      Proxy.Control.start ctl ~until:(Simnet.Engine.sec 20);
      List.iter
        (fun (m, at_ms, len_ms) ->
          let _, lto, lfrom, _ = rigs.(m) in
          Simnet.Engine.schedule_at engine (Simnet.Engine.ms at_ms) (fun () ->
              Simnet.Link.set_partitioned lto true;
              Simnet.Link.set_partitioned lfrom true);
          Simnet.Engine.schedule_at engine
            (Simnet.Engine.ms (at_ms + len_ms))
            (fun () ->
              Simnet.Link.set_partitioned lto false;
              Simnet.Link.set_partitioned lfrom false))
        windows;
      for b = 1 to bumps do
        Simnet.Engine.schedule_at engine
          (Simnet.Engine.ms (1000 * b))
          (fun () ->
            ensure_version engine ctl (b + 1) ();
            propose_retrying engine ctl
              (Proxy.Control.Invalidate (Printf.sprintf "a%d/s" b)))
      done;
      Simnet.Engine.run ~until:(Simnet.Engine.sec 20) engine;
      let target = bumps + 1 in
      Proxy.Control.converged ctl
      && Proxy.Control.committed_version ctl = target
      && Array.for_all
           (fun (_, _, _, mid) ->
             Proxy.Control.member_version ctl mid = target
             && String.equal
                  (Proxy.Control.member_state_digest ctl mid)
                  (Proxy.Control.replay_digest ctl))
           rigs)

(* Election safety: across arbitrary crash/partition/heal schedules,
   never two valid leadership leases at one sampled instant, and
   per-member terms never regress — not even transiently, not even
   while nothing can be elected at all. Sampled every 100 ms of
   virtual time for 15 s. *)
let prop_control_election_safety =
  let gen =
    QCheck.Gen.(
      let* members = int_range 3 5 in
      let* crashes =
        list_size (int_range 0 2)
          (triple
             (int_range 0 (members - 1))
             (int_range 500 8_000) (int_range 300 4_000))
      in
      let* windows =
        list_size (int_range 0 5)
          (triple (int_range 0 (members - 1)) (int_range 0 9_000)
             (int_range 1 3_000))
      in
      return (members, crashes, windows))
  in
  let print (members, crashes, windows) =
    Printf.sprintf "members=%d crashes=[%s] windows=[%s]" members
      (String.concat ";"
         (List.map
            (fun (m, at, len) -> Printf.sprintf "m%d@%dms+%dms" m at len)
            crashes))
      (String.concat ";"
         (List.map
            (fun (m, at, len) -> Printf.sprintf "m%d@%dms+%dms" m at len)
            windows))
  in
  QCheck.Test.make ~count:60
    ~name:"election safety: at most one leased leader per instant, terms \
           monotone"
    (QCheck.make gen ~print)
    (fun (members, crashes, windows) ->
      let engine = Simnet.Engine.create () in
      let ctl, rigs, _ = make_control ~members engine in
      Proxy.Control.start ctl ~until:(Simnet.Engine.sec 15);
      (* at most one crash window per member, so a crash never lands
         on an already-down host *)
      let crashed = Array.make members false in
      List.iter
        (fun (m, at_ms, len_ms) ->
          if not crashed.(m) then begin
            crashed.(m) <- true;
            let host, _, _, mid = rigs.(m) in
            Simnet.Engine.schedule_at engine (Simnet.Engine.ms at_ms)
              (fun () -> Simnet.Host.crash host);
            Simnet.Engine.schedule_at engine
              (Simnet.Engine.ms (at_ms + len_ms))
              (fun () ->
                Simnet.Host.restart host;
                Proxy.Control.mark_restarted ctl mid)
          end)
        crashes;
      List.iter
        (fun (m, at_ms, len_ms) ->
          let _, lto, lfrom, _ = rigs.(m) in
          Simnet.Engine.schedule_at engine (Simnet.Engine.ms at_ms) (fun () ->
              Simnet.Link.set_partitioned lto true;
              Simnet.Link.set_partitioned lfrom true);
          Simnet.Engine.schedule_at engine
            (Simnet.Engine.ms (at_ms + len_ms))
            (fun () ->
              Simnet.Link.set_partitioned lto false;
              Simnet.Link.set_partitioned lfrom false))
        windows;
      Simnet.Engine.schedule_at engine (Simnet.Engine.sec 1) (fun () ->
          propose_retrying engine ctl (Proxy.Control.Set_version 2));
      let violations = ref 0 in
      let last_terms = Array.make members 0 in
      let rec probe at =
        if Int64.compare at (Simnet.Engine.sec 15) <= 0 then
          Simnet.Engine.schedule_at engine at (fun () ->
              if List.length (Proxy.Control.leased_leaders ctl) > 1 then
                incr violations;
              Array.iteri
                (fun i (_, _, _, mid) ->
                  let tm = Proxy.Control.member_term ctl mid in
                  if tm < last_terms.(i) then incr violations;
                  last_terms.(i) <- tm)
                rigs;
              probe (Int64.add at 100_000L))
      in
      probe 0L;
      Simnet.Engine.run ~until:(Simnet.Engine.sec 15) engine;
      !violations = 0)

let () =
  Alcotest.run "farm"
    [
      ( "routing",
        [
          Alcotest.test_case "ring ownership" `Quick test_ring_routing;
          Alcotest.test_case "hash vectors" `Quick test_hash_key_vectors;
          Alcotest.test_case "matches the ring walk" `Quick
            test_routing_matches_ring_walk;
          Alcotest.test_case "routes to owner" `Quick
            test_request_routes_to_owner;
        ] );
      ( "failover",
        [
          Alcotest.test_case "walks ring and returns" `Quick
            test_failover_walks_ring_and_returns;
          Alcotest.test_case "mid-flight crash" `Quick
            test_mid_flight_crash_fails_over;
          Alcotest.test_case "all shards down" `Quick test_all_down_unavailable;
          Alcotest.test_case "flapping replica stabilizes" `Quick
            test_flapping_replica_stabilizes;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same trace" `Quick
            test_same_seed_same_trace;
          Alcotest.test_case "shard-count-invariant bytes" `Quick
            test_shard_count_invariant_bytes;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "3x past the knee" `Quick
            test_farm_scaling_past_the_knee;
          Alcotest.test_case "coalescing under shared load" `Quick
            test_coalescing_under_shared_load;
          Alcotest.test_case "zero applets rejected" `Quick
            test_zero_applets_rejected;
          Alcotest.test_case "names outside the applet scheme" `Quick
            test_names_outside_the_applet_scheme;
        ] );
      ( "population",
        [
          Alcotest.test_case "arrivals and applet rotation" `Quick
            test_population_arrivals_and_rotation;
          Alcotest.test_case "gate, start and first id" `Quick
            test_population_gate_start_first_id;
        ] );
      ( "cache-versioning",
        [
          Alcotest.test_case "versioned entries" `Quick
            test_cache_versioned_entries;
          Alcotest.test_case "remove" `Quick test_cache_remove;
          Alcotest.test_case "L2 rewarm respects policy version" `Quick
            test_l2_rewarm_respects_policy_version;
        ] );
      ( "control",
        [
          Alcotest.test_case "replicates and commits" `Quick
            test_control_replicates_and_commits;
          Alcotest.test_case "partition fences then recovers" `Quick
            test_control_partition_fences_then_recovers;
          Alcotest.test_case "restart replays the log" `Quick
            test_control_restart_replays_log;
          Alcotest.test_case "leader crash hands off" `Quick
            test_control_leader_crash_hands_off;
          Alcotest.test_case "snapshot catch-up" `Quick
            test_control_snapshot_catch_up;
          QCheck_alcotest.to_alcotest prop_control_converges_after_partitions;
          QCheck_alcotest.to_alcotest prop_control_election_safety;
        ] );
    ]
