(* Certified rewriting, end to end: rewrite the bundled workloads
   under a covering policy with certificate emission on, push the
   result through a real encode/decode round trip, and ask the
   translation validator ({!Analysis.Certify} instantiated by
   {!Security.Certifier}) to re-prove every elision and hoist from the
   wire image alone. The mutation harness then corrupts rewriter
   output in targeted ways and checks that the verifier or the
   certifier kills each mutant — the measurement that the gate
   actually gates. *)

module CF = Bytecode.Classfile

(* The workload-covering policy the elision bench uses: every worker
   class (one with a "hot" method) maps to a single per-app
   permission, so driver loops hold many sites of the same check and
   the elision/hoisting machinery has real work to do. *)
let covering_policy (app : Workloads.Appgen.app) =
  let perm = "work." ^ app.Workloads.Appgen.spec.Workloads.Appgen.name in
  let workers =
    List.filter
      (fun (c : CF.t) ->
        List.exists
          (fun (m : CF.meth) -> String.equal m.CF.m_name "hot")
          c.CF.methods)
      app.Workloads.Appgen.classes
  in
  let ops =
    List.map
      (fun (c : CF.t) ->
        Printf.sprintf {|<operation permission="%s" class="%s" method="*"/>|}
          perm c.CF.name)
      workers
  in
  Security.Policy_xml.parse
    (Printf.sprintf
       {|<policy default="allow">
           <domain name="apps"><grant permission="%s"/></domain>
           %s
           <principal classprefix="" domain="apps"/>
         </policy>|}
       perm
       (String.concat "\n" ops))

let summarize_reasons reasons =
  match reasons with
  | [] -> "certificate rejected"
  | r :: rest ->
    let head = Analysis.Certify.reason_to_string r in
    if rest = [] then head
    else Printf.sprintf "%s (+%d more)" head (List.length rest)

(* The certifier: look up the class's certificate in the store the
   rewriter filled and re-prove it against the transformed image. *)
let gate ~policy ~certs cf =
  let cert = Analysis.Certificate.find certs cf.CF.name in
  match Security.Certifier.certify policy ?cert cf with
  | Ok _ -> None
  | Error reasons -> Some (summarize_reasons reasons)

(* --- Workload certification. --- *)

type report = {
  rp_apps : int;
  rp_classes : int;
  rp_methods : int;
  rp_sites : int;  (* protected resource-use instructions validated *)
  rp_live : int;  (* guarded by an adjacent live check *)
  rp_certified : int;  (* accepted via a re-proved certificate *)
  rp_hoists : int;  (* hoist certificates re-proved *)
  rp_cert_entries : int;  (* certificate entries emitted *)
  rp_elided : int;  (* checks the rewriter elided or hoisted away *)
  rp_failures : (string * string) list;  (* class, reason *)
}

(* The pinned counts (BENCH_certify.json's "certify" object). *)
let report_json rp =
  Printf.sprintf
    {|{"classes":%d,"methods":%d,"sites":%d,"live":%d,"certified":%d,"hoists":%d,"cert_entries":%d,"elided":%d,"failures":%d}|}
    rp.rp_classes rp.rp_methods rp.rp_sites rp.rp_live rp.rp_certified
    rp.rp_hoists rp.rp_cert_entries rp.rp_elided
    (List.length rp.rp_failures)

let report_text rp =
  Printf.sprintf
    "%d apps, %d classes, %d methods\n\
    \  %d protected sites: %d live checks, %d certificate-backed (%d hoists)\n\
    \  %d certificate entries emitted, %d checks elided by the rewriter\n\
    \  %d failure(s)\n"
    rp.rp_apps rp.rp_classes rp.rp_methods rp.rp_sites rp.rp_live
    rp.rp_certified rp.rp_hoists rp.rp_cert_entries rp.rp_elided
    (List.length rp.rp_failures)
  ^ String.concat ""
      (List.map
         (fun (cls, why) -> Printf.sprintf "  FAIL %s: %s\n" cls why)
         rp.rp_failures)

let certify_app ~small spec =
  let app =
    if small then Workloads.Apps.build_small spec else Workloads.Apps.build spec
  in
  let policy = covering_policy app in
  let certs = Analysis.Certificate.create_store () in
  let counters = Security.Rewriter.fresh_counters () in
  let rewritten =
    List.map
      (fun cf ->
        Security.Rewriter.rewrite_class ~counters ~elide:true ~certs policy cf)
      app.Workloads.Appgen.classes
  in
  (app, policy, certs, counters, rewritten)

let certify_workloads ?(small = false) () : report =
  let rp = ref
      {
        rp_apps = 0;
        rp_classes = 0;
        rp_methods = 0;
        rp_sites = 0;
        rp_live = 0;
        rp_certified = 0;
        rp_hoists = 0;
        rp_cert_entries = 0;
        rp_elided = 0;
        rp_failures = [];
      }
  in
  List.iter
    (fun spec ->
      let _, policy, certs, counters, rewritten = certify_app ~small spec in
      rp := { !rp with rp_apps = !rp.rp_apps + 1;
              rp_elided = !rp.rp_elided + counters.Security.Rewriter.checks_elided };
      List.iter
        (fun cf ->
          (* The validator judges the wire image, not the in-memory
             value the rewriter produced. *)
          let cf =
            Bytecode.Decode.class_of_bytes (Bytecode.Encode.class_to_bytes cf)
          in
          let cert = Analysis.Certificate.find certs cf.CF.name in
          (match cert with
          | Some cc ->
            rp :=
              { !rp with
                rp_cert_entries =
                  !rp.rp_cert_entries + Analysis.Certificate.entry_count cc }
          | None -> ());
          match Security.Certifier.certify policy ?cert cf with
          | Ok s ->
            rp :=
              {
                !rp with
                rp_classes = !rp.rp_classes + 1;
                rp_methods = !rp.rp_methods + s.Analysis.Certify.cs_methods;
                rp_sites = !rp.rp_sites + s.Analysis.Certify.cs_sites;
                rp_live = !rp.rp_live + s.Analysis.Certify.cs_live;
                rp_certified =
                  !rp.rp_certified + s.Analysis.Certify.cs_certified;
                rp_hoists = !rp.rp_hoists + s.Analysis.Certify.cs_hoists;
              }
          | Error reasons ->
            rp :=
              {
                !rp with
                rp_classes = !rp.rp_classes + 1;
                rp_failures =
                  (cf.CF.name, summarize_reasons reasons) :: !rp.rp_failures;
              })
        rewritten)
    Workloads.Apps.all_specs;
  { !rp with rp_failures = List.rev !rp.rp_failures }

(* --- Mutation testing. --- *)

type kill = Killed_by_verifier | Killed_by_certifier | Survived

type mutation_result = {
  mu_class : string;
  mu_desc : string;  (* operator + location *)
  mu_kill : kill;
}

type mutation_report = {
  mt_seed : int64;
  mt_mutants : int;
  mt_killed_verifier : int;
  mt_killed_certifier : int;
  mt_survivors : mutation_result list;
  mt_results : mutation_result list;
}

let kill_rate r =
  if r.mt_mutants = 0 then 1.0
  else
    float_of_int (r.mt_killed_verifier + r.mt_killed_certifier)
    /. float_of_int r.mt_mutants

let survivor_line r = r.mu_class ^ ": " ^ r.mu_desc

(* The pinned mutation run (BENCH_certify.json's "mutation" object). *)
let mutation_json r =
  Printf.sprintf
    {|{"seed":%Ld,"mutants":%d,"killed_verifier":%d,"killed_certifier":%d,"kill_rate":%.4f,"survivors":[%s]}|}
    r.mt_seed r.mt_mutants r.mt_killed_verifier r.mt_killed_certifier
    (kill_rate r)
    (String.concat ","
       (List.map
          (fun m -> "\"" ^ Telemetry.Flight.esc (survivor_line m) ^ "\"")
          r.mt_survivors))

let mutation_text ~bar r =
  Printf.sprintf
    "mutation: seed %Ld, %d mutants: %d killed by verifier, %d by \
     certifier, %d survived (kill rate %.1f%%, bar %.0f%%)\n"
    r.mt_seed r.mt_mutants r.mt_killed_verifier r.mt_killed_certifier
    (List.length r.mt_survivors)
    (100. *. kill_rate r) (100. *. bar)
  ^ String.concat ""
      (List.map (fun m -> "  survivor: " ^ survivor_line m ^ "\n") r.mt_survivors)

(* Per-class budget [count]; the per-class seed is derived from the
   run seed and a running class index so the mutant set is a pure
   function of (seed, workload build). *)
let mutation_run ?(small = true) ~seed ~count () : mutation_report =
  let results = ref [] in
  let class_ix = ref 0 in
  List.iter
    (fun spec ->
      let app, policy, certs, _, rewritten = certify_app ~small spec in
      let env = Security.Certifier.env policy in
      let oracle =
        Verifier.Oracle.of_classes
          (Jvm.Bootlib.boot_classes () @ app.Workloads.Appgen.classes)
      in
      List.iter
        (fun cf ->
          let ix = !class_ix in
          incr class_ix;
          let cert = Analysis.Certificate.find certs cf.CF.name in
          let mutants =
            Analysis.Mutate.mutants ~env
              ~seed:(Int64.add seed (Int64.of_int ix))
              ~count cf cert
          in
          List.iter
            (fun (mu : Analysis.Mutate.mutant) ->
              let kill =
                match
                  Verifier.Static_verifier.verify ~oracle
                    mu.Analysis.Mutate.mu_class
                with
                | Verifier.Static_verifier.Rejected _ -> Killed_by_verifier
                | Verifier.Static_verifier.Verified _ -> (
                  match
                    Security.Certifier.certify policy
                      ?cert:mu.Analysis.Mutate.mu_cert
                      mu.Analysis.Mutate.mu_class
                  with
                  | Error _ -> Killed_by_certifier
                  | Ok _ -> Survived)
              in
              results :=
                {
                  mu_class = cf.CF.name;
                  mu_desc =
                    Analysis.Mutate.mutation_to_string
                      mu.Analysis.Mutate.mu_mutation;
                  mu_kill = kill;
                }
                :: !results)
            mutants)
        rewritten)
    Workloads.Apps.all_specs;
  let results = List.rev !results in
  let count_kill k = List.length (List.filter (fun r -> r.mu_kill = k) results) in
  {
    mt_seed = seed;
    mt_mutants = List.length results;
    mt_killed_verifier = count_kill Killed_by_verifier;
    mt_killed_certifier = count_kill Killed_by_certifier;
    mt_survivors = List.filter (fun r -> r.mu_kill = Survived) results;
    mt_results = results;
  }
