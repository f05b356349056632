(* farm-churn: an open-loop, Zipf-popular fetch stream on the virtual
   clock against a 4-shard farm with warm L1s and a shared L2, while the
   control plane replicates invalidation churn and periodic policy
   bumps beside the reads. Deadlines and hedging are on, one shard
   crashes for a few seconds, and the control links lose messages.
   Simnet, farm, node, cache, admission, session and control do most of
   the host work; the pipeline runs only to refill what a write
   invalidated, where it is the real cost of the write. A change that
   speeds reads but slows writes, or the reverse, shows here. *)

module A = Workloads.Appgen

let keys = 64
let clients = 16
let rate_per_s = 1000.0

(* Virtual seconds of fetch stream per second of window. The stream is
   long next to the crash window, so the ops it delays stay well under
   1% and the seed does not decide the p99s. *)
let virtual_per_second = 80.0
let bump_every = Simnet.Engine.sec 20
let invalidate_every = Simnet.Engine.sec 1
let drain = Simnet.Engine.sec 3

type world = {
  engine : Simnet.Engine.t;
  farm : Proxy.Farm.t;
  l2 : Proxy.Cache.t;
  ctl : Proxy.Control.t;
  sessions : Dvm.Client.Session.t array;  (* [clients] readers, then the warmer *)
  stack_a : World.stack;  (* rewrites under odd policy versions *)
  stack_b : World.stack;  (* and under even ones *)
  inputs : (string, string) Hashtbl.t;  (* class name -> input bytes *)
  expected : (string * string) array;  (* key -> digest under stack a, b *)
  changed : int;  (* keys whose bytes differ between the stacks *)
  arrivals : int array;  (* due time of each fetch, virtual µs *)
  arrival_key : int array;
  horizon : int64;
  proposals : (int * int64) list ref;  (* proposal id, virtual time *)
  crash : string ref;
  input_digest : string;
}

let setup ~seed ~seconds =
  let st = World.rng ~seed ~salt:2 in
  let pool =
    Array.of_list
      (List.concat_map (fun s -> (A.build s).A.classes) Workloads.Apps.all_specs)
  in
  World.shuffle st pool;
  let chosen = Array.sub pool 0 keys in
  let bodies = Array.map Bytecode.Encode.class_to_bytes chosen in
  let inputs = Hashtbl.create keys in
  Array.iteri
    (fun j (c : Bytecode.Classfile.t) ->
      Hashtbl.replace inputs c.Bytecode.Classfile.name bodies.(j))
    chosen;
  (* Bumps alternate two policies. The second also guards two apps'
     kernel entry points, so those apps' workers rewrite to different
     bytes and a serve under a revoked version shows in its digest. *)
  let stack_a = World.stack (World.policy []) in
  let stack_b =
    World.stack
      (World.policy
         [
           ("work.step", "jlex/Kernel", "step");
           ("work.step", "cassowary/Kernel", "step");
         ])
  in
  let stack_of v = if v mod 2 = 1 then stack_a else stack_b in
  let digest (s : World.stack) b =
    Proxy.Pipeline.digest (Proxy.Pipeline.run s.World.filters b)
  in
  let expected = Array.map (fun b -> (digest stack_a b, digest stack_b b)) bodies in
  let all = List.init keys Fun.id in
  let changed = List.filter (fun j -> fst expected.(j) <> snd expected.(j)) all in
  let unchanged =
    Array.of_list (List.filter (fun j -> not (List.mem j changed)) all)
  in
  let origin key =
    match int_of_string_opt (String.sub key 1 (String.length key - 1)) with
    | Some j when key.[0] = 'c' && j >= 0 && j < keys -> Some bodies.(j)
    | _ -> None
  in
  let engine = Simnet.Engine.create () in
  let plan = Simnet.Fault.create ~seed in
  let l2 = Proxy.Cache.create ~capacity:(16 lsl 20) in
  (* Shard CPUs 8x the paper's reference machine, so refilling every key
     after a bump is a burst the farm absorbs inside the deadline. *)
  let farm =
    World.farm ~l2 ~cpu_factor:8.0 ~cache_capacity:(16 lsl 20) ~shards:4
      ~origin ~filters:stack_a.World.filters engine
  in
  let shards = farm.Proxy.Farm.shards in
  Array.iter (fun (n : Proxy.t) -> n.Proxy.policy_version <- 1) shards;
  let ctl = Proxy.Control.create engine ~initial_version:1 () in
  let members =
    Array.mapi
      (fun i (n : Proxy.t) ->
        (* The control links lose 1% of messages; the data path loses
           none, so every fetch can still be served fresh. *)
        let link dir =
          let l =
            Simnet.Link.create engine
              ~name:(Printf.sprintf "ctl-%s-%d" dir i)
              ~bandwidth_bps:10_000_000 ~latency:(Simnet.Engine.us 500)
          in
          Simnet.Link.set_faults l ~plan ~drop_prob:0.01 ();
          l
        in
        let apply entry =
          Span.with_span "control.apply" (fun () ->
              match entry with
              | Proxy.Control.Set_version v ->
                n.Proxy.filters <- (stack_of v).World.filters;
                n.Proxy.policy_version <- v
              | Proxy.Control.Invalidate key ->
                ignore (Proxy.Cache.remove n.Proxy.cache key);
                ignore (Proxy.Cache.remove l2 key))
        in
        let mid =
          Proxy.Control.add_member ctl ~name:n.Proxy.host.Simnet.Host.name
            ~host:n.Proxy.host ~link_to:(link "to") ~link_from:(link "from")
            ~apply
        in
        n.Proxy.serving_allowed <- (fun () -> Proxy.Control.member_ok ctl mid);
        mid)
      shards
  in
  let warm_at = Simnet.Engine.sec 2 in
  let start =
    Int64.add warm_at
      (Int64.add
         (Int64.mul (Int64.of_int keys) (Simnet.Engine.ms 2))
         (Simnet.Engine.sec 1))
  in
  let horizon =
    Int64.add start
      (Simnet.Engine.ms (int_of_float (seconds *. virtual_per_second *. 1000.0)))
  in
  Proxy.Control.start ctl ~until:(Int64.add horizon drain);
  let lan =
    Simnet.Link.create engine ~name:"client-lan" ~bandwidth_bps:1_000_000_000
      ~latency:(Simnet.Engine.us 100)
  in
  let sessions =
    Array.init (clients + 1) (fun _ ->
        World.session ~hedge_after_us:500_000L engine farm lan)
  in
  let warm j =
    Dvm.Client.Session.fetch sessions.(clients) ~cls:("c" ^ string_of_int j)
  in
  (* Warm every L1 owner and the L2: each key once, 2 ms apart, after the
     first leader election. *)
  let warmed = ref 0 in
  List.iter
    (fun j ->
      Simnet.Engine.schedule_at engine
        (Int64.add warm_at (Int64.mul (Int64.of_int j) (Simnet.Engine.ms 2)))
        (fun () ->
          warm j (function
            | Dvm.Client.Session.Fresh b
              when String.equal (Dsig.Md5.digest b) (fst expected.(j)) ->
              incr warmed
            | _ -> ())))
    all;
  World.run_sim ~until:start engine;
  if !warmed <> keys then failwith "farm-churn: set-up could not warm every key";
  (* Writes. A proposal made while no leader holds a lease is retried. *)
  let proposals = ref [] in
  let rec propose entry =
    match Proxy.Control.propose ctl entry with
    | Some id -> proposals := (id, Simnet.Engine.now engine) :: !proposals
    | None ->
      Simnet.Engine.schedule engine ~delay:(Simnet.Engine.ms 200) (fun () ->
          propose entry)
  in
  let rec every period at f =
    if Int64.compare at horizon < 0 then
      Simnet.Engine.schedule_at engine at (fun () ->
          f ();
          every period (Int64.add at period) f)
  in
  (* A policy bump every [bump_every]. Three seconds later, once every
     live shard has applied it, the warming client re-fetches the keys
     the bump changes, so no refill of a changed key is still in flight
     when the next bump lands: the node's single-flight table is keyed
     by class name alone, and a fetch issued after a bump commits could
     join a refill started under the old version. *)
  let version = ref 1 in
  every bump_every
    (Int64.add start (Int64.div bump_every 2L))
    (fun () ->
      incr version;
      propose (Proxy.Control.Set_version !version);
      Simnet.Engine.schedule engine ~delay:(Simnet.Engine.sec 3) (fun () ->
          List.iter (fun j -> warm j ignore) changed));
  (* Invalidation churn names only keys the bumps leave unchanged, for
     the same reason. *)
  let churn = World.rng ~seed ~salt:5 in
  every invalidate_every (Int64.add start invalidate_every) (fun () ->
      let j = unchanged.(Random.State.int churn (Array.length unchanged)) in
      propose (Proxy.Control.Invalidate ("c" ^ string_of_int j)));
  (* One shard, never the leaseholder, crashes for 1.5 s and restarts
     cold, fenced until it has replayed the log. The window opens 1.5-2.5
     s after a bump in the middle half of the stream, so the shard is
     back, and its breaker closed, before the next bump lands. *)
  let span = Int64.sub horizon start in
  let bumps =
    List.filter
      (fun at ->
        Int64.compare at (Int64.div span 4L) >= 0
        && Int64.compare at (Int64.div (Int64.mul span 3L) 4L) < 0)
      (List.init
         (Int64.to_int (Int64.div span bump_every) + 1)
         (fun k -> Int64.add (Int64.div bump_every 2L) (Int64.mul bump_every (Int64.of_int k))))
  in
  let after = match bumps with [] -> 0L | _ -> List.nth bumps (Random.State.int st (List.length bumps)) in
  let crash_at =
    Int64.add start
      (Int64.add after (Int64.of_int (1_500_000 + Random.State.int st 1_000_000)))
  in
  let down_for = Simnet.Engine.ms 1500 in
  let pick = Random.State.int st (Array.length shards) in
  let crash = ref "no crash window" in
  Simnet.Engine.schedule_at engine crash_at (fun () ->
      let followers =
        List.filter
          (fun i -> Proxy.Control.leader ctl <> Some members.(i))
          (List.init (Array.length shards) Fun.id)
      in
      let victim = List.nth followers (pick mod List.length followers) in
      let n = shards.(victim) in
      crash :=
        Printf.sprintf "crash window: shard%d down at %.3f s for %.3f s (virtual)"
          victim
          (Simnet.Engine.to_sec crash_at)
          (Simnet.Engine.to_sec down_for);
      Simnet.Host.crash n.Proxy.host;
      Simnet.Engine.schedule engine ~delay:down_for (fun () ->
          Simnet.Host.restart n.Proxy.host;
          Proxy.Cache.clear n.Proxy.cache;
          n.Proxy.filters <- stack_a.World.filters;
          n.Proxy.policy_version <- 1;
          Proxy.Control.mark_restarted ctl members.(victim)));
  (* Reads: Poisson arrivals at [rate_per_s], keys Zipf(1)-popular over
     a seeded rank order. *)
  let rank = Array.init keys Fun.id in
  World.shuffle st rank;
  let cdf =
    let w = Array.init keys (fun r -> 1.0 /. Float.of_int (r + 1)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let draw () =
    let u = Random.State.float st 1.0 in
    let lo = ref 0 and hi = ref (keys - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    rank.(!lo)
  in
  let gap () =
    -.log (1.0 -. Random.State.float st 1.0) *. 1e6 /. rate_per_s
  in
  let times = ref [] and picks = ref [] in
  let t = ref (Int64.to_float start +. gap ()) in
  while !t < Int64.to_float horizon do
    times := int_of_float !t :: !times;
    picks := draw () :: !picks;
    t := !t +. gap ()
  done;
  let arrivals = Array.of_list (List.rev !times) in
  let arrival_key = Array.of_list (List.rev !picks) in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  {
    engine;
    farm;
    l2;
    ctl;
    sessions;
    stack_a;
    stack_b;
    inputs;
    expected;
    changed = List.length changed;
    arrivals;
    arrival_key;
    horizon;
    proposals;
    crash;
    input_digest =
      World.digest_inputs (ints arrivals :: ints arrival_key :: Array.to_list bodies);
  }

let control_counts ctl =
  [
    ("control.commits", Proxy.Control.commits ctl);
    ("control.heartbeats", Proxy.Control.heartbeats ctl);
    ("control.elections", Proxy.Control.elections ctl);
    ("control.compactions", Proxy.Control.compactions ctl);
    ("control.snapshot_installs", Proxy.Control.snapshot_installs ctl);
  ]

let run w : World.outcome =
  let ops = Array.length w.arrivals in
  let host = Array.make ops 0.0 and virt = Array.make ops 0.0 in
  let settled = ref 0 and failed = ref 0 and revoked = ref 0 in
  let late = ref 0L in
  let sessions = Array.to_list w.sessions in
  let stacks = [ w.stack_a; w.stack_b ] in
  let farm0 = World.farm_counts w.farm (Some w.l2) sessions in
  let filters0 = World.filter_counts stacks in
  let control0 = control_counts w.ctl in
  let events0 = Simnet.Engine.events_processed w.engine in
  let sl = World.slicer () in
  (* Arrivals are engine events at their exact due times, so the
     generator is never late; [late] records that. *)
  let rec arrive i =
    let due = Int64.of_int w.arrivals.(i) in
    Simnet.Engine.schedule_at w.engine due (fun () ->
        World.cut sl;
        late := Int64.max !late (Int64.sub (Simnet.Engine.now w.engine) due);
        if i + 1 < ops then arrive (i + 1);
        let j = w.arrival_key.(i) in
        let issued_under = Proxy.Control.committed_version w.ctl in
        Span.op := i;
        let t0 = Span.now_ns () in
        Dvm.Client.Session.fetch w.sessions.(i mod clients)
          ~cls:("c" ^ string_of_int j)
          (fun served ->
            let t1 = Span.now_ns () in
            incr settled;
            host.(i) <- Int64.to_float (Int64.sub t1 t0) /. 1e3;
            virt.(i) <-
              Int64.to_float (Int64.sub (Simnet.Engine.now w.engine) due);
            Span.op_span ~op:i ~start:t0 ~stop:t1;
            (* A fetch issued once version v committed must get bytes
               rewritten under v, or under a later version proposed
               before it was served. *)
            let ok =
              Span.with_span "check" (fun () ->
                  match served with
                  | Dvm.Client.Session.Fresh bytes ->
                    let d = Dsig.Md5.digest bytes
                    and under_a, under_b = w.expected.(j) in
                    let allowed =
                      if Proxy.Control.current_version w.ctl > issued_under
                      then String.equal d under_a || String.equal d under_b
                      else
                        String.equal d
                          (if issued_under mod 2 = 1 then under_a else under_b)
                    in
                    if not allowed then incr revoked;
                    allowed
                  | Dvm.Client.Session.Stale _ | Dvm.Client.Session.Failed ->
                    false)
            in
            if not ok then incr failed;
            World.exclude_since sl t1);
        Span.op := -1)
  in
  if ops > 0 then arrive 0;
  World.run_sim ~until:(Int64.add w.horizon drain) w.engine;
  let slices_ns, window_ns = World.slices sl in
  let layer, notes =
    if not !Span.on then ([], [])
    else begin
      let events = Simnet.Engine.events_processed w.engine - events0 in
      let farm_d =
        World.diff farm0 (World.farm_counts w.farm (Some w.l2) sessions)
      in
      let filters_d = World.diff filters0 (World.filter_counts stacks) in
      let control_d = World.diff control0 (control_counts w.ctl) in
      let commits =
        List.filter_map
          (fun (id, at) ->
            Option.map
              (fun c -> Int64.to_float (Int64.sub c at))
              (Proxy.Control.commit_us w.ctl ~id))
          !(w.proposals)
        |> Array.of_list
      in
      Array.sort Float.compare commits;
      let pipeline, pipeline_ns, note =
        World.pipeline_layer stacks ~input_of:(Hashtbl.find w.inputs)
      in
      ( World.farm_metrics farm_d @ World.filter_metrics filters_d @ pipeline
        @ World.simnet_metrics ~events ~ops
            ~elsewhere_ns:(pipeline_ns -. Span.total_with_prefix "filter.")
        @ World.shares ~window_ns ~pipeline_ns
        @ List.map (fun (k, n) -> (k, Float.of_int n, "count")) control_d
        @ [
            ("control.commit_virt_p50_us", World.percentile commits 0.5, "us");
            ("control.apply_us", Span.mean_us "control.apply", "us");
          ],
        [ note ] )
    end
  in
  {
    World.attempted = ops;
    failed = !failed + (ops - !settled);
    window_ns;
    slices_ns;
    host_us = host;
    virt_us = virt;
    layer;
    notes =
      [
        !(w.crash);
        Printf.sprintf "keys %d, %d of them rewritten differently by the bumps"
          keys w.changed;
        Printf.sprintf "generator lateness %Ld us (max over %d arrivals)" !late ops;
        Printf.sprintf "serves under a revoked version %d" !revoked;
      ]
      @ notes;
    input_digest = w.input_digest;
  }
