(* Tests for the translation-validating rewrite certifier: legitimate
   rewriter output re-proves from its wire image alone; every class of
   targeted corruption (dropped checks, bypassing branch retargets,
   flipped first-trip guards, widened loop bounds, forged or re-aimed
   certificates) is killed by the static verifier or the certifier;
   the certifier, run as the pipeline's last filter, turns a rejection
   into the §3.1 replacement class; and the seeded mutation harness is
   deterministic with a pinned kill rate. *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile
module I = Bytecode.Instr
module Cert = Analysis.Certificate

let check = Alcotest.check
let fail = Alcotest.fail
let static = [ CF.Public; CF.Static ]

let policy =
  Security.Policy_xml.parse
    {|<policy default="allow">
        <operation permission="op.use" class="util/Op" method="use"/>
      </policy>|}

(* Two sequential protected calls: the rewriter guards the first with
   a live check and elides the second behind an availability
   certificate. *)
let seq_cls =
  B.class_ "cert/Seq"
    [
      B.meth ~flags:static "f" "()I"
        [
          B.Invokestatic ("util/Op", "use", "()V");
          B.Invokestatic ("util/Op", "use", "()V");
          B.Const 0;
          B.Ireturn;
        ];
    ]

(* A counted loop over a protected call: the rewriter hoists the check
   to the preheader and certifies the in-loop site as [Hoisted]. *)
let loop_cls =
  B.class_ "cert/Loop"
    [
      B.meth ~flags:static "f" "()I"
        [
          B.Const 3;
          B.Istore 1;
          B.Label "head";
          B.Iload 1;
          B.If_z (I.Le, "exit");
          B.Invokestatic ("util/Op", "use", "()V");
          B.Inc (1, -1);
          B.Goto "head";
          B.Label "exit";
          B.Const 0;
          B.Ireturn;
        ];
    ]

(* A branch aimed straight at a protected call: the patcher must
   redirect it through the inserted check block, and the certifier
   must notice when a mutant undoes that redirect. *)
let branch_cls =
  B.class_ "cert/Branch"
    [
      B.meth ~flags:static "f" "(I)I"
        [
          B.Iload 0;
          B.If_z (I.Ne, "use");
          B.Const 0;
          B.Ireturn;
          B.Label "use";
          B.Invokestatic ("util/Op", "use", "()V");
          B.Const 1;
          B.Ireturn;
        ];
    ]

(* Rewrite with certificate emission on, then round-trip through the
   encoder so the certifier judges the wire image, as the gate does. *)
let rewrite_with_cert cls =
  let certs = Cert.create_store () in
  let rw = Security.Rewriter.rewrite_class ~elide:true ~certs policy cls in
  let rw = Bytecode.Decode.class_of_bytes (Bytecode.Encode.class_to_bytes rw) in
  (rw, Cert.find certs rw.CF.name)

let expect_ok what (rw, cert) =
  match Security.Certifier.certify policy ?cert rw with
  | Ok s -> s
  | Error reasons ->
    fail
      (Printf.sprintf "%s rejected: %s" what
         (String.concat "; "
            (List.map Analysis.Certify.reason_to_string reasons)))

(* --- Legitimate output re-proves. --- *)

let test_accept_sequential_elision () =
  let rw, cert = rewrite_with_cert seq_cls in
  check Alcotest.bool "certificate emitted" true (cert <> None);
  let s = expect_ok "cert/Seq" (rw, cert) in
  check Alcotest.int "both sites validated" 2 s.Analysis.Certify.cs_sites;
  check Alcotest.int "first site has the live check" 1
    s.Analysis.Certify.cs_live;
  check Alcotest.int "second site certificate-backed" 1
    s.Analysis.Certify.cs_certified

let test_accept_hoisted_loop () =
  let rw, cert = rewrite_with_cert loop_cls in
  let s = expect_ok "cert/Loop" (rw, cert) in
  check Alcotest.int "loop site validated" 1 s.Analysis.Certify.cs_sites;
  check Alcotest.int "via a hoist certificate" 1 s.Analysis.Certify.cs_hoists

let test_accept_redirected_branch () =
  let rw, cert = rewrite_with_cert branch_cls in
  let s = expect_ok "cert/Branch" (rw, cert) in
  check Alcotest.int "site validated" 1 s.Analysis.Certify.cs_sites;
  check Alcotest.int "live check guards it" 1 s.Analysis.Certify.cs_live

(* --- A naked elision (no certificate) is rejected. --- *)

let test_reject_unjustified_elision () =
  let rw, _cert = rewrite_with_cert seq_cls in
  match Security.Certifier.certify policy rw with
  | Ok _ -> fail "elided site accepted without its certificate"
  | Error (r :: _) ->
    check Alcotest.bool "names the elision" true
      (let s = Analysis.Certify.reason_to_string r in
       String.length s > 0)
  | Error [] -> fail "empty reason list"

(* --- Every enumerable corruption is killed. The mutation operators
   cover dropped checks, bypass retargets, guard flips, widened
   bounds, forged support and re-aimed certificate sites; none may
   slip past both the verifier and the certifier. --- *)

let oracle =
  Verifier.Oracle.of_classes
    (Jvm.Bootlib.boot_classes () @ [ seq_cls; loop_cls; branch_cls ])

let killed (mu : Analysis.Mutate.mutant) =
  match Verifier.Static_verifier.verify ~oracle mu.Analysis.Mutate.mu_class with
  | Verifier.Static_verifier.Rejected _ -> true
  | Verifier.Static_verifier.Verified _ -> (
    match
      Security.Certifier.certify policy ?cert:mu.Analysis.Mutate.mu_cert
        mu.Analysis.Mutate.mu_class
    with
    | Error _ -> true
    | Ok _ -> false)

let test_all_candidates_killed () =
  let env = Security.Certifier.env policy in
  let seen_ops = Hashtbl.create 8 in
  List.iter
    (fun cls ->
      let rw, cert = rewrite_with_cert cls in
      let n = Analysis.Mutate.candidate_count ~env rw cert in
      check Alcotest.bool
        (rw.CF.name ^ " has mutation candidates")
        true (n > 0);
      (* [count >= n] draws every candidate. *)
      List.iter
        (fun (mu : Analysis.Mutate.mutant) ->
          let m = mu.Analysis.Mutate.mu_mutation in
          Hashtbl.replace seen_ops m.Analysis.Mutate.m_op ();
          if not (killed mu) then
            fail
              (Printf.sprintf "mutant survived: %s: %s" rw.CF.name
                 (Analysis.Mutate.mutation_to_string m)))
        (Analysis.Mutate.mutants ~env ~seed:1L ~count:n rw cert))
    [ seq_cls; loop_cls; branch_cls ];
  List.iter
    (fun op ->
      check Alcotest.bool
        ("operator exercised: " ^ Analysis.Mutate.op_to_string op)
        true
        (Hashtbl.mem seen_ops op))
    Analysis.Mutate.
      [ Drop_check; Swap_branch; Widen_bound; Retarget_entry; Forge_support;
        Move_site ]

(* --- The certifier as the pipeline's last filter. --- *)

let certify_filter gate =
  Rewrite.Filter.make ~name:"certify" (fun cf ->
      match gate cf with
      | None -> cf
      | Some reason ->
        Rewrite.Filter.reject ~filter:"certify" ~cls:cf.CF.name reason)

let test_gate_accepts_certified () =
  let certs = Cert.create_store () in
  let filters =
    [
      Security.Rewriter.filter ~elide:true ~certs policy;
      certify_filter (Dvm.Certification.gate ~policy ~certs);
    ]
  in
  let out =
    Proxy.Pipeline.run filters (Bytecode.Encode.class_to_bytes seq_cls)
  in
  check Alcotest.bool "accepted" true (out.Proxy.Pipeline.rejected = None);
  let served = Bytecode.Decode.class_of_bytes out.Proxy.Pipeline.out_bytes in
  check Alcotest.string "transformed class served" "cert/Seq" served.CF.name

let test_gate_rejection_is_error_class () =
  let certs = Cert.create_store () in
  (* A certifier judging with an *empty* store sees the elisions but no
     certificates: §3.1 rejection. *)
  let empty = Cert.create_store () in
  let filters =
    [
      Security.Rewriter.filter ~elide:true ~certs policy;
      certify_filter (Dvm.Certification.gate ~policy ~certs:empty);
    ]
  in
  Telemetry.reset ();
  Telemetry.enable ();
  let out =
    Proxy.Pipeline.run filters (Bytecode.Encode.class_to_bytes seq_cls)
  in
  Telemetry.disable ();
  (match out.Proxy.Pipeline.rejected with
  | Some ("certify", reason) ->
    check Alcotest.bool "reason non-empty" true (String.length reason > 0)
  | Some (f, _) -> fail ("rejected by unexpected filter: " ^ f)
  | None -> fail "uncertified elision passed the gate");
  let served = Bytecode.Decode.class_of_bytes out.Proxy.Pipeline.out_bytes in
  check Alcotest.string "replacement keeps the class name" "cert/Seq"
    served.CF.name;
  check Alcotest.bool "replacement throws from <clinit>" true
    (CF.find_method served "<clinit>" "()V" <> None);
  check Alcotest.int64 "pipeline.reject.certify counted" 1L
    (Telemetry.counter_value "pipeline.reject.certify")

(* --- Workload sweep and the seeded mutation harness. --- *)

let test_workloads_certify () =
  let rep = Dvm.Certification.certify_workloads ~small:true () in
  check Alcotest.int "no false rejections" 0
    (List.length rep.Dvm.Certification.rp_failures);
  check Alcotest.bool "sites were validated" true
    (rep.Dvm.Certification.rp_sites > 0);
  check Alcotest.bool "elisions are certificate-backed" true
    (rep.Dvm.Certification.rp_certified > 0)

let test_mutation_deterministic_and_killed () =
  let run () =
    Dvm.Certification.mutation_run ~small:true ~seed:20260808L ~count:1 ()
  in
  let r1 = run () and r2 = run () in
  let sig_of r =
    List.map
      (fun (m : Dvm.Certification.mutation_result) ->
        m.Dvm.Certification.mu_class ^ ": " ^ m.Dvm.Certification.mu_desc)
      r.Dvm.Certification.mt_results
  in
  check
    Alcotest.(list string)
    "pinned seed reproduces the mutant set" (sig_of r1) (sig_of r2);
  check Alcotest.bool "mutants generated" true
    (r1.Dvm.Certification.mt_mutants > 0);
  check Alcotest.bool "kill rate meets the bar" true
    (Dvm.Certification.kill_rate r1 >= 0.9)

let test_mutation_json_escapes_survivors () =
  let survivor =
    {
      Dvm.Certification.mu_class = "pkg/A";
      mu_desc = "swap \"x\" \\ y\001";
      mu_kill = Dvm.Certification.Survived;
    }
  in
  let r =
    {
      Dvm.Certification.mt_seed = 7L;
      mt_mutants = 1;
      mt_killed_verifier = 0;
      mt_killed_certifier = 0;
      mt_survivors = [ survivor ];
      mt_results = [ survivor ];
    }
  in
  check Alcotest.string "quote, backslash and control byte escaped"
    {|{"seed":7,"mutants":1,"killed_verifier":0,"killed_certifier":0,"kill_rate":0.0000,"survivors":["pkg/A: swap \"x\" \\ y\u0001"]}|}
    (Dvm.Certification.mutation_json r)

let () =
  Alcotest.run "certify"
    [
      ( "accept",
        [
          Alcotest.test_case "sequential elision re-proves" `Quick
            test_accept_sequential_elision;
          Alcotest.test_case "hoisted loop re-proves" `Quick
            test_accept_hoisted_loop;
          Alcotest.test_case "redirected branch re-proves" `Quick
            test_accept_redirected_branch;
        ] );
      ( "reject",
        [
          Alcotest.test_case "unjustified elision" `Quick
            test_reject_unjustified_elision;
          Alcotest.test_case "every mutation candidate killed" `Quick
            test_all_candidates_killed;
        ] );
      ( "gate",
        [
          Alcotest.test_case "certified class passes" `Quick
            test_gate_accepts_certified;
          Alcotest.test_case "rejection serves the §3.1 class" `Quick
            test_gate_rejection_is_error_class;
        ] );
      ( "harness",
        [
          Alcotest.test_case "workloads certify clean" `Slow
            test_workloads_certify;
          Alcotest.test_case "seeded harness deterministic, kill rate pinned"
            `Slow test_mutation_deterministic_and_killed;
          Alcotest.test_case "mutation JSON escapes survivors" `Quick
            test_mutation_json_escapes_survivors;
        ] );
    ]
