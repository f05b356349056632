(* fetch-cold: one closed-loop client session against a 2-shard farm,
   every fetch a name no cache holds. The pipeline memo is off and the
   signer and the certifier gate are on, so each op is one full
   pipeline run — decode, verify, security rewrite, certify, audit,
   reflect, sign, encode — while simnet, farm and interpreter do almost
   nothing: the no-change control for work on those layers. *)

module A = Workloads.Appgen

(* Fetches per second of window, so a window lasts about [seconds] on the
   machine README.md names. *)
let ops_per_second = 1300.0

type world = {
  engine : Simnet.Engine.t;
  farm : Proxy.Farm.t;
  session : Dvm.Client.Session.t;
  stack : World.stack;
  key : Dsig.Sign.key;
  inputs : (string, string) Hashtbl.t;  (* class name -> input bytes *)
  ops : int;
  input_digest : string;
}

let setup ~seed ~seconds =
  let ops = int_of_float (seconds *. ops_per_second) in
  let apps = List.map A.build Workloads.Apps.all_specs in
  (* The paper's applet sample, the same for every seed: the seed draws
     the fetch order and the origin latencies, not the class mix, so
     seeds differ in inputs but not in the work a window holds. *)
  let applets =
    List.map Workloads.Applets.realize (Workloads.Applets.population ())
  in
  let pool =
    Array.of_list (List.concat_map (fun a -> a.A.classes) apps @ applets)
  in
  let bodies = Array.map Bytecode.Encode.class_to_bytes pool in
  let order =
    World.rounds (World.rng ~seed ~salt:1) ~n:(Array.length pool) ~len:ops
  in
  (* Each pool class sits 8-12 ms away on the origin, drawn from the
     seed. *)
  let latency =
    let st = World.rng ~seed ~salt:4 in
    Array.map (fun _ -> Simnet.Engine.us (8_000 + Random.State.int st 4_000)) pool
  in
  (* "k<i>" names op i's fetch; "w<j>" the set-up fetch of pool class j. *)
  let index key =
    match int_of_string_opt (String.sub key 1 (String.length key - 1)) with
    | Some i when key.[0] = 'k' && i >= 0 && i < ops -> Some order.(i)
    | Some j when key.[0] = 'w' && j >= 0 && j < Array.length bodies -> Some j
    | _ -> None
  in
  let origin key = Option.map (fun j -> bodies.(j)) (index key) in
  let origin_latency key =
    Option.fold ~none:0L ~some:(fun j -> latency.(j)) (index key)
  in
  (* Names never repeat, so the session's brown-out archive is keyed by
     the pool class, not the name; it stays the pool's size. *)
  let stale_key key =
    Option.fold ~none:key ~some:(fun j -> string_of_int j) (index key)
  in
  let stack =
    World.stack ~certify:true (World.policy (World.covering_ops apps))
  in
  let key = Dsig.Sign.make_key ~key_id:"farm" ~secret:"perfbench" in
  let engine = Simnet.Engine.create () in
  (* A 1 MB L1: names never repeat, so the cache only misses, stores and
     evicts, and its footprint does not grow with the run. *)
  let farm =
    World.farm ~signer:key ~origin_latency ~cache_capacity:(1 lsl 20)
      ~shards:2 ~origin ~filters:stack.World.filters engine
  in
  let session =
    World.session ~stale_key engine farm (Simnet.Link.ethernet_10mb engine)
  in
  (* One fetch of every pool class first, so host-side memos (descriptor
     parses, hierarchy queries) are warm in the window. *)
  Array.iteri
    (fun j _ ->
      match World.fetch_sync engine session ("w" ^ string_of_int j) with
      | Dvm.Client.Session.Fresh _, _ -> ()
      | _ -> failwith "fetch-cold: a set-up fetch was not served")
    bodies;
  let inputs = Hashtbl.create 1024 in
  Array.iteri
    (fun j (c : Bytecode.Classfile.t) ->
      Hashtbl.replace inputs c.Bytecode.Classfile.name bodies.(j))
    pool;
  {
    engine;
    farm;
    session;
    stack;
    key;
    inputs;
    ops;
    input_digest =
      World.digest_inputs
        (String.concat "," (Array.to_list (Array.map string_of_int order))
        :: String.concat "," (Array.to_list (Array.map Int64.to_string latency))
        :: Array.to_list bodies);
  }

let run w : World.outcome =
  let ops = w.ops in
  let host = Array.make ops 0.0 and virt = Array.make ops 0.0 in
  let failed = ref 0 in
  let oracle = Lazy.force World.boot_oracle in
  (* Every served class must carry a valid farm signature, decode, and
     pass the static verifier. *)
  let valid bytes =
    match Bytecode.Decode.class_of_bytes bytes with
    | exception Bytecode.Decode.Format_error _ -> false
    | cf -> (
      Dsig.Sign.verify [ w.key ] cf = Dsig.Sign.Valid
      &&
      match Verifier.Static_verifier.verify ~oracle cf with
      | Verifier.Static_verifier.Verified _ -> true
      | Verifier.Static_verifier.Rejected _ -> false)
  in
  let farm0 = World.farm_counts w.farm None [ w.session ] in
  let filters0 = World.filter_counts [ w.stack ] in
  let events0 = Simnet.Engine.events_processed w.engine in
  let sl = World.slicer () in
  let rec issue i =
    if i < ops then begin
      World.cut sl;
      let rejected0 = World.rejections w.stack in
      let v0 = Simnet.Engine.now w.engine in
      Span.op := i;
      let t0 = Span.now_ns () in
      Dvm.Client.Session.fetch w.session ~cls:("k" ^ string_of_int i)
        (fun served ->
          let t1 = Span.now_ns () in
          host.(i) <- Int64.to_float (Int64.sub t1 t0) /. 1e3;
          virt.(i) <- Int64.to_float (Int64.sub (Simnet.Engine.now w.engine) v0);
          Span.op_span ~op:i ~start:t0 ~stop:t1;
          let ok =
            Span.with_span "check" (fun () ->
                World.rejections w.stack = rejected0
                &&
                match served with
                | Dvm.Client.Session.Fresh b -> valid b
                | Dvm.Client.Session.Stale _ | Dvm.Client.Session.Failed ->
                  false)
          in
          if not ok then incr failed;
          World.exclude_since sl t1;
          Simnet.Engine.schedule w.engine ~delay:0L (fun () -> issue (i + 1)))
    end
  in
  Simnet.Engine.schedule w.engine ~delay:0L (fun () -> issue 0);
  World.run_sim w.engine;
  let slices_ns, window_ns = World.slices sl in
  let layer, notes =
    if not !Span.on then ([], [])
    else begin
      let events = Simnet.Engine.events_processed w.engine - events0 in
      let farm_d =
        World.diff farm0 (World.farm_counts w.farm None [ w.session ])
      in
      let filters_d = World.diff filters0 (World.filter_counts [ w.stack ]) in
      let pipeline, pipeline_ns, note =
        World.pipeline_layer ~signer:w.key [ w.stack ]
          ~input_of:(Hashtbl.find w.inputs)
      in
      ( World.farm_metrics farm_d @ World.filter_metrics filters_d @ pipeline
        @ World.simnet_metrics ~events ~ops
            ~elsewhere_ns:(pipeline_ns -. Span.total_with_prefix "filter.")
        @ World.shares ~window_ns ~pipeline_ns,
        [ note ] )
    end
  in
  {
    World.attempted = ops;
    failed = !failed;
    window_ns;
    slices_ns;
    host_us = host;
    virt_us = virt;
    layer;
    notes;
    input_digest = w.input_digest;
  }
