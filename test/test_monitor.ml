(* Tests for the remote monitoring service: audit chain, console
   handshake and bans, instrumentation filters, profiler call graphs
   and first-use traces. *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile

let check = Alcotest.check
let fail = Alcotest.fail
let static = [ CF.Public; CF.Static ]

(* --- Audit log. --- *)

let test_audit_chain_verifies () =
  let log = Monitor.Audit.create () in
  for i = 1 to 20 do
    Monitor.Audit.append log ~time:(Int64.of_int (i * 100)) ~session:i
      ~kind:"app.event"
      ~detail:(Printf.sprintf "event %d" i)
  done;
  check Alcotest.int "count" 20 (Monitor.Audit.count log);
  check Alcotest.bool "chain verifies" true (Monitor.Audit.verify_chain log)

let test_audit_tamper_detected () =
  let log = Monitor.Audit.create () in
  Monitor.Audit.append log ~time:1L ~session:1 ~kind:"a" ~detail:"x";
  Monitor.Audit.append log ~time:2L ~session:1 ~kind:"b" ~detail:"y";
  Monitor.Audit.append log ~time:3L ~session:1 ~kind:"c" ~detail:"z";
  (* Rebuild a tampered log: reuse the events but alter the middle
     detail, keeping the recorded seals. *)
  let tampered = Monitor.Audit.create () in
  List.iteri
    (fun i ev ->
      let detail =
        if i = 1 then "FORGED" else ev.Monitor.Audit.ev_detail
      in
      Monitor.Audit.append tampered ~time:ev.Monitor.Audit.ev_time
        ~session:ev.Monitor.Audit.ev_session ~kind:ev.Monitor.Audit.ev_kind
        ~detail)
    (Monitor.Audit.events log);
  (* A freshly built chain over different data diverges from the
     original seals. *)
  let orig = List.map (fun e -> e.Monitor.Audit.ev_chain) (Monitor.Audit.events log) in
  let forged = List.map (fun e -> e.Monitor.Audit.ev_chain) (Monitor.Audit.events tampered) in
  check Alcotest.bool "seals diverge" true (orig <> forged)

let test_audit_filter_kind () =
  let log = Monitor.Audit.create () in
  Monitor.Audit.append log ~time:1L ~session:1 ~kind:"a" ~detail:"1";
  Monitor.Audit.append log ~time:2L ~session:1 ~kind:"b" ~detail:"2";
  Monitor.Audit.append log ~time:3L ~session:1 ~kind:"a" ~detail:"3";
  check Alcotest.int "kind filter" 2
    (List.length (Monitor.Audit.filter_kind log "a"))

(* --- Console. --- *)

let test_handshake_assigns_sessions () =
  let console = Monitor.Console.create () in
  let c1 =
    Monitor.Console.handshake console ~user:"alice" ~hardware:"x86"
      ~native_format:"x86" ~vm_version:"1" ~time:0L
  in
  let c2 =
    Monitor.Console.handshake console ~user:"bob" ~hardware:"alpha"
      ~native_format:"alpha" ~vm_version:"1" ~time:1L
  in
  check Alcotest.bool "distinct sessions" true
    (c1.Monitor.Console.session <> c2.Monitor.Console.session);
  check Alcotest.int "clients tracked" 2
    (List.length (Monitor.Console.clients console));
  check
    (Alcotest.list Alcotest.string)
    "native formats for the compiler" [ "alpha"; "x86" ]
    (Monitor.Console.native_formats console);
  check Alcotest.bool "handshake audited" true
    (List.length
       (Monitor.Audit.filter_kind (Monitor.Console.audit console)
          "client.handshake")
    = 2)

let test_ban_list () =
  let console = Monitor.Console.create () in
  Monitor.Console.ban_app console ~app:"evil/Miner" ~reason:"rogue" ~time:5L;
  check (Alcotest.option Alcotest.string) "banned" (Some "rogue")
    (Monitor.Console.is_banned console "evil/Miner");
  check (Alcotest.option Alcotest.string) "others fine" None
    (Monitor.Console.is_banned console "good/App")

(* --- Instrumentation + profiler. --- *)

let fib_cls =
  B.class_ "Fib"
    [
      B.meth ~flags:static "fib" "(I)I"
        [
          B.Iload 0;
          B.Const 2;
          B.If_icmp (Bytecode.Instr.Lt, "base");
          B.Iload 0;
          B.Const 1;
          B.Sub;
          B.Invokestatic ("Fib", "fib", "(I)I");
          B.Iload 0;
          B.Const 2;
          B.Sub;
          B.Invokestatic ("Fib", "fib", "(I)I");
          B.Add;
          B.Ireturn;
          B.Label "base";
          B.Iload 0;
          B.Ireturn;
        ];
      B.meth ~flags:static "main" "()V"
        [
          B.Const 8;
          B.Invokestatic ("Fib", "fib", "(I)I");
          B.Pop;
          B.Invokestatic ("Fib", "helper", "()V");
          B.Return;
        ];
      B.meth ~flags:static "helper" "()V" [ B.Return ];
      B.meth ~flags:static "unused" "()V" [ B.Return ];
    ]

let test_profiler_call_graph () =
  let instrumented =
    Monitor.Instrument.instrument_class
      ~runtime_class:Monitor.Profiler.profiler_class fib_cls
  in
  let vm = Jvm.Bootlib.fresh_vm () in
  let prof = Monitor.Profiler.install vm () in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg instrumented;
  (match Jvm.Interp.run_main vm "Fib" with
  | Ok () -> ()
  | Error e -> fail (Jvm.Interp.describe_throwable e));
  let graph = Monitor.Profiler.call_graph prof in
  let edge a b =
    List.exists (fun (x, y, n) -> x = a && y = b && n > 0) graph
  in
  check Alcotest.bool "main -> fib" true (edge "Fib.main()V" "Fib.fib(I)I");
  check Alcotest.bool "fib -> fib (recursion)" true
    (edge "Fib.fib(I)I" "Fib.fib(I)I");
  check Alcotest.bool "main -> helper" true (edge "Fib.main()V" "Fib.helper()V");
  (* fib(8) invokes fib 1 + recursive times; exact count for the naive
     recursion is 67. *)
  check Alcotest.int "fib invocation count" 67
    (Monitor.Profiler.invocation_count prof "Fib.fib(I)I");
  check Alcotest.int "unused never invoked" 0
    (Monitor.Profiler.invocation_count prof "Fib.unused()V")

let test_first_use_order () =
  let instrumented =
    Monitor.Instrument.instrument_class
      ~runtime_class:Monitor.Profiler.profiler_class fib_cls
  in
  let vm = Jvm.Bootlib.fresh_vm () in
  let prof = Monitor.Profiler.install vm () in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg instrumented;
  ignore (Jvm.Interp.run_main vm "Fib");
  match Monitor.Profiler.first_use_order prof with
  | "Fib.main()V" :: "Fib.fib(I)I" :: "Fib.helper()V" :: _ -> ()
  | order -> fail ("unexpected order: " ^ String.concat ", " order)

let test_audit_instrumentation_reaches_console () =
  let counters = Monitor.Instrument.fresh_counters () in
  let instrumented =
    Rewrite.Filter.apply (Monitor.Instrument.audit_filter ~counters ()) fib_cls
  in
  check Alcotest.bool "probes inserted" true
    (counters.Monitor.Instrument.probes_inserted > 0);
  let console = Monitor.Console.create () in
  let client =
    Monitor.Console.handshake console ~user:"u" ~hardware:"h"
      ~native_format:"x86" ~vm_version:"1" ~time:0L
  in
  let vm = Jvm.Bootlib.fresh_vm () in
  ignore
    (Monitor.Profiler.install vm ~console
       ~session:client.Monitor.Console.session ());
  Jvm.Classreg.register vm.Jvm.Vmstate.reg instrumented;
  ignore (Jvm.Interp.run_main vm "Fib");
  let audit = Monitor.Console.audit console in
  check Alcotest.bool "enter events" true
    (List.length (Monitor.Audit.filter_kind audit "method.enter") > 0);
  check Alcotest.bool "exit events" true
    (List.length (Monitor.Audit.filter_kind audit "method.exit") > 0);
  check Alcotest.bool "chain verifies" true (Monitor.Audit.verify_chain audit)

let test_instrumentation_preserves_output () =
  let app =
    B.class_ "Out"
      [
        B.meth ~flags:static "main" "()V"
          [
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Const 8;
            B.Invokestatic ("Fib", "fib", "(I)I");
            B.Invokevirtual ("java/io/OutputStream", "println", "(I)V");
            B.Return;
          ];
      ]
  in
  let run instrument =
    let vm = Jvm.Bootlib.fresh_vm () in
    ignore (Monitor.Profiler.install vm ());
    let classes = if instrument then
        List.map (Monitor.Instrument.instrument_class ~runtime_class:Monitor.Profiler.profiler_class) [ app; fib_cls ]
      else [ app; fib_cls ]
    in
    List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg) classes;
    (match Jvm.Interp.run_main vm "Out" with
    | Ok () -> ()
    | Error e -> fail (Jvm.Interp.describe_throwable e));
    Jvm.Vmstate.output vm
  in
  check Alcotest.string "same output" (run false) (run true)

let test_sync_trace () =
  let locky =
    B.class_ "Locky"
      [
        B.meth ~flags:static "main" "()V"
          [
            B.New "java/lang/Object";
            B.Dup;
            B.Invokespecial ("java/lang/Object", "<init>", "()V");
            B.Astore 0;
            B.Aload 0;
            B.Monitorenter;
            B.Aload 0;
            B.Monitorexit;
            B.Return;
          ];
      ]
  in
  let instrumented =
    Monitor.Instrument.instrument_class
      ~runtime_class:Monitor.Profiler.profiler_class ~sync_trace:true locky
  in
  let vm = Jvm.Bootlib.fresh_vm () in
  let prof = Monitor.Profiler.install vm () in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg instrumented;
  (match Jvm.Interp.run_main vm "Locky" with
  | Ok () -> ()
  | Error e -> fail (Jvm.Interp.describe_throwable e));
  check Alcotest.int "two sync sites traced" 2
    (Monitor.Profiler.sync_count prof "Locky.main()V")

let test_block_tracing () =
  let looper =
    B.class_ "Loopy"
      [
        B.meth ~flags:static "main" "()V"
          [
            B.Const 10;
            B.Istore 0;
            B.Label "top";
            B.Iload 0;
            B.If_z (Bytecode.Instr.Le, "done");
            B.Inc (0, -1);
            B.Goto "top";
            B.Label "done";
            B.Return;
          ];
      ]
  in
  let counters = Monitor.Instrument.fresh_counters () in
  let traced = Monitor.Instrument.trace_blocks ~counters looper in
  check Alcotest.bool "block probes inserted" true
    (counters.Monitor.Instrument.probes_inserted >= 3);
  let vm = Jvm.Bootlib.fresh_vm () in
  let prof = Monitor.Profiler.install vm () in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg traced;
  (match Jvm.Interp.run_main vm "Loopy" with
  | Ok () -> ()
  | Error e -> fail (Jvm.Interp.describe_throwable e));
  (* entry block runs once; the loop-test block runs 11 times; the
     loop-body block runs 10 times *)
  check Alcotest.int "entry once" 1
    (Monitor.Profiler.block_count prof "Loopy.main()V@0");
  check Alcotest.int "loop test block" 11
    (Monitor.Profiler.block_count prof "Loopy.main()V@2");
  check Alcotest.int "loop body block" 10
    (Monitor.Profiler.block_count prof "Loopy.main()V@4");
  (* the hottest block tops the profile *)
  match Monitor.Profiler.block_profile prof with
  | (top, n) :: _ ->
    check Alcotest.string "hottest is the loop test" "Loopy.main()V@2" top;
    check Alcotest.int "hottest count" 11 n
  | [] -> fail "empty block profile"

(* An injected clock stamps events when callers omit ~time, so audit
   records can share the simulation's virtual timeline. *)
let test_injected_clock () =
  let now = ref 100L in
  let console = Monitor.Console.create ~clock:(fun () -> !now) () in
  let c =
    Monitor.Console.handshake console ~user:"u" ~hardware:"hw"
      ~native_format:"x86" ~vm_version:"1"
  in
  now := 250L;
  Monitor.Console.record_app_start console c ~app:"App";
  now := 400L;
  Monitor.Console.record_event console c ~time:999L ~kind:"k" ~detail:"d";
  let times =
    List.map
      (fun e -> e.Monitor.Audit.ev_time)
      (Monitor.Audit.events (Monitor.Console.audit console))
  in
  check (Alcotest.list Alcotest.int64) "clock vs explicit times"
    [ 100L; 250L; 999L ] times;
  check Alcotest.int64 "last_seen from explicit time" 999L c.Monitor.Console.last_seen

let () =
  Alcotest.run "monitor"
    [
      ( "audit",
        [
          Alcotest.test_case "chain verifies" `Quick test_audit_chain_verifies;
          Alcotest.test_case "tamper detected" `Quick test_audit_tamper_detected;
          Alcotest.test_case "filter by kind" `Quick test_audit_filter_kind;
        ] );
      ( "console",
        [
          Alcotest.test_case "handshake" `Quick test_handshake_assigns_sessions;
          Alcotest.test_case "ban list" `Quick test_ban_list;
          Alcotest.test_case "injected clock" `Quick test_injected_clock;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "call graph" `Quick test_profiler_call_graph;
          Alcotest.test_case "first-use order" `Quick test_first_use_order;
          Alcotest.test_case "audit to console" `Quick
            test_audit_instrumentation_reaches_console;
          Alcotest.test_case "output preserved" `Quick
            test_instrumentation_preserves_output;
          Alcotest.test_case "sync trace" `Quick test_sync_trace;
          Alcotest.test_case "block tracing" `Quick test_block_tracing;
        ] );
    ]
