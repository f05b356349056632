(* The static component of the security service (§3.2): rewrites
   incoming applications so that every security-relevant operation
   named by the policy's operation map is preceded by a call to the
   client's enforcement manager. Because insertion happens at the
   bytecode level on the proxy, checks can guard operations the
   original system designers never anticipated — file read being the
   paper's example.

   On top of the insertion pass sits the proxy-side optimization half:
   a dataflow pass over `lib/analysis` elides a check when an
   identical (sid, permission) check is *available* — has executed on
   every path reaching the site with no intervening invalidation
   point — and hoists a loop-invariant check to the loop preheader.
   Invalidation points are the monitor instructions: those are the
   synchronization points at which a concurrent policy push becomes
   visible, so availability must not survive them (see DESIGN.md,
   "Static analysis at the proxy"). Resource-aware checks are never
   elided: their verdict depends on the runtime resource string. *)

module CF = Bytecode.Classfile
module CP = Bytecode.Cp
module I = Bytecode.Instr

type counters = {
  mutable checks_inserted : int;
  mutable checks_elided : int;
  mutable checks_hoisted : int;
  mutable methods_instrumented : int;
}

let fresh_counters () =
  {
    checks_inserted = 0;
    checks_elided = 0;
    checks_hoisted = 0;
    methods_instrumented = 0;
  }

(* A resource-aware check is only possible when the protected call's
   last parameter is a String sitting on top of the stack at the call
   site. *)
let last_param_is_string desc =
  match Bytecode.Descriptor.method_sig_of_string desc with
  | { Bytecode.Descriptor.params; _ } -> (
    match List.rev params with
    | Bytecode.Descriptor.Obj "java/lang/String" :: _ -> true
    | _ -> false)
  | exception Bytecode.Descriptor.Bad_descriptor _ -> false

(* Cons the site of each operation that covers the call at [idx],
   whose descriptor is [desc], onto [sites]. *)
let rec add_sites idx desc sites = function
  | [] -> sites
  | op :: ops ->
    let with_resource =
      op.Policy.op_resource_arg && last_param_is_string desc
    in
    add_sites idx desc ((idx, op.Policy.op_permission, with_resource) :: sites) ops

(* Find the call sites in a method that the operation map covers, with
   the permission each requires and whether the resource name is
   available on the stack. *)
let protected_sites policy pool (code : CF.code) =
  let instrs = code.CF.instrs in
  let sites = ref [] in
  for idx = 0 to Array.length instrs - 1 do
    match instrs.(idx) with
    | I.Invokevirtual k | I.Invokestatic k | I.Invokespecial k
    | I.Invokeinterface k -> (
      match CP.get_methodref pool k with
      | mr ->
        sites :=
          add_sites idx mr.CP.ref_desc !sites
            (Policy.operations_for policy ~cls:mr.CP.ref_class
               ~meth:mr.CP.ref_name)
      | exception (CP.Invalid_index _ | CP.Wrong_kind _) -> ())
    | _ -> ()
  done;
  List.rev !sites

let check_block pool permission ~with_resource =
  if with_resource then
    (* stack: [.., resource] -> dup the resource name and pass it with
       the permission: checkResource(resource, permission) *)
    [
      I.Dup;
      I.Ldc_str (CP.Builder.string pool permission);
      I.Invokestatic
        (CP.Builder.methodref pool ~cls:Enforcement.class_name
           ~name:"checkResource" ~desc:Enforcement.desc_check_resource);
    ]
  else
    [
      I.Ldc_str (CP.Builder.string pool permission);
      I.Invokestatic
        (CP.Builder.methodref pool ~cls:Enforcement.class_name ~name:"check"
           ~desc:Enforcement.desc_check);
    ]

(* --- The elision pass. --- *)

(* Instructions that are observably pure for the hoisting argument:
   they cannot throw, write shared state, allocate, or perform I/O, so
   executing a hoisted check before them instead of after is
   indistinguishable (the check itself either passes silently or
   throws before anything visible happened). Local writes count as
   unobservable only because [elision_plan] refuses to hoist out of a
   loop covered by an exception handler — a same-method handler
   catching the denial could otherwise observe locals written before
   an in-loop check but not before a hoisted one. *)
let hoist_transparent = function
  | I.Nop | I.Iconst _ | I.Ldc_str _ | I.Aconst_null | I.Iload _ | I.Istore _
  | I.Aload _ | I.Astore _ | I.Iinc _ | I.Iadd | I.Isub | I.Imul | I.Ineg
  | I.Ishl | I.Ishr | I.Iand | I.Ior | I.Ixor | I.Dup | I.Dup_x1 | I.Pop
  | I.Swap | I.Goto _ | I.If_icmp _ | I.If_z _ | I.If_acmp _ | I.If_null _
  | I.Instanceof _ ->
    true
  | _ -> false

(* The builder's counted-loop idiom guards the first trip with the
   counter's initial constant: preheader ends `iconst n; istore c` and
   the header opens `iload c; ifXX exit`. When the initial value
   proves the exit untaken, the first iteration definitely runs and
   the guard edge can be discounted by the anticipability walk. *)
let first_trip_guard (code : CF.code) (header : Analysis.Cfg.block)
    (preheader : Analysis.Cfg.block) =
  let open Analysis.Cfg in
  if header.last < header.first + 1 then None
  else
    match (code.CF.instrs.(header.first), code.CF.instrs.(header.first + 1)) with
    | I.Iload c, I.If_z (cmp, _) when preheader.last >= preheader.first + 1 -> (
      match
        (code.CF.instrs.(preheader.last - 1), code.CF.instrs.(preheader.last))
      with
      | I.Iconst n, I.Istore c' when c = c' ->
        let n = Int32.to_int n in
        let taken =
          match cmp with
          | I.Eq -> n = 0
          | I.Ne -> n <> 0
          | I.Lt -> n < 0
          | I.Ge -> n >= 0
          | I.Gt -> n > 0
          | I.Le -> n <= 0
        in
        if taken then None (* zero-trip loop: never hoist *)
        else Some (header.first + 1) (* the guard branch to discount *)
      | _ -> None)
    | _ -> None

(* Anticipability: from the header, every intra-loop path must reach
   the site before any non-transparent instruction, any loop exit, or
   any return to the header — then hoisting the check moves it across
   nothing observable. [guard] is a conditional whose exit edge is
   statically untaken on the first trip. *)
let anticipable (cfg : Analysis.Cfg.t) ~(in_loop : int -> bool) ~header_first
    ~guard ~site =
  let code = cfg.Analysis.Cfg.code in
  let n = Array.length code.CF.instrs in
  let visiting = Hashtbl.create 16 in
  let rec walk idx =
    if idx = site then true
    else if idx < 0 || idx >= n then false
    else if not (in_loop cfg.Analysis.Cfg.block_of.(idx)) then false
    else if idx = header_first && Hashtbl.length visiting > 0 then
      false (* wrapped around without meeting the site *)
    else if Hashtbl.mem visiting idx then false
    else begin
      Hashtbl.replace visiting idx ();
      let ins = code.CF.instrs.(idx) in
      let ok =
        if not (hoist_transparent ins) then false
        else
          let succs = I.successors idx ins in
          let succs =
            (* Discount the statically-untaken exit edge of the
               first-trip guard. *)
            if guard = Some idx then
              List.filter (fun s -> s = idx + 1) succs
            else succs
          in
          succs <> [] && List.for_all walk succs
      in
      Hashtbl.remove visiting idx;
      ok
    end
  in
  walk header_first

type decision = {
  insert : (int * string * bool) list; (* surviving sites *)
  hoists : (int * string) list; (* header instruction index, permission *)
  elided_sites : (int * string) list;
      (* plain sites dropped because the permission is available *)
  hoisted_sites : (int * string * int) list;
      (* sites whose check moved to a preheader: site, permission,
         header instruction index (all original coordinates) *)
  elided : int;
  hoisted : int;
}

let no_elision sites =
  {
    insert = sites;
    hoists = [];
    elided_sites = [];
    hoisted_sites = [];
    elided = 0;
    hoisted = 0;
  }

(* Decide which of [sites] can be dropped. Pure analysis over the
   original code: the result feeds straight into the patcher. *)
let elision_plan (code : CF.code) sites : decision =
  match Analysis.Cfg.of_code code with
  | exception Analysis.Cfg.Malformed _ -> no_elision sites
  | cfg ->
    (* Availability: every site generates its permission (for an
       elided site the dominating check it relies on already provides
       the fact — union is idempotent); monitor instructions kill. *)
    let gen_tbl = Hashtbl.create 16 in
    List.iter
      (fun (idx, p, with_resource) ->
        if not with_resource then
          Hashtbl.replace gen_tbl idx
            (p :: Option.value ~default:[] (Hashtbl.find_opt gen_tbl idx)))
      sites;
    let avail =
      Analysis.Checks.analyze cfg ~gen:(fun idx ->
          Option.value ~default:[] (Hashtbl.find_opt gen_tbl idx))
    in
    let by_avail, rest =
      List.partition
        (fun (idx, p, with_resource) ->
          (not with_resource)
          && Analysis.Checks.available avail ~at:idx ~fact:p)
        sites
    in
    (* Loop-invariant hoisting for the survivors. *)
    let dom = lazy (Analysis.Dom.compute cfg) in
    let loops = lazy (Analysis.Dom.loops (Lazy.force dom)) in
    let kill_free body =
      Hashtbl.fold
        (fun b () acc ->
          acc
          &&
          let blk = Analysis.Cfg.block cfg b in
          let ok = ref true in
          for i = blk.Analysis.Cfg.first to blk.Analysis.Cfg.last do
            if Analysis.Checks.default_kill code.CF.instrs.(i) then ok := false
          done;
          !ok)
        body true
    in
    (* A handler covering any part of the loop body can catch the
       denial exception and observe locals; an in-loop check throws
       after the iteration's local writes, a hoisted one before them,
       so the handler would see different state. Never hoist out of a
       handler-covered loop. *)
    let handler_free body =
      Hashtbl.fold
        (fun b () acc ->
          acc
          &&
          let blk = Analysis.Cfg.block cfg b in
          List.for_all
            (fun h ->
              blk.Analysis.Cfg.last < h.CF.h_start
              || blk.Analysis.Cfg.first >= h.CF.h_end)
            code.CF.handlers)
        body true
    in
    let hoists = ref [] in
    let hoisted_sites = ref [] in
    let hoisted_certs = ref [] in
    List.iter
      (fun ((idx, p, with_resource) as site) ->
        (* resource-aware sites are never hoisted *)
        if not with_resource then begin
          let b = cfg.Analysis.Cfg.block_of.(idx) in
          let candidate =
            List.find_opt
              (fun l ->
                Hashtbl.mem l.Analysis.Dom.body b
                && kill_free l.Analysis.Dom.body
                && handler_free l.Analysis.Dom.body
                &&
                let header = Analysis.Cfg.block cfg l.Analysis.Dom.header in
                (* The site must run on every iteration… *)
                List.for_all
                  (fun latch -> Analysis.Dom.dominates (Lazy.force dom) b latch)
                  l.Analysis.Dom.latches
                &&
                (* …and the header must be enterable only by falling
                   through from a unique preheader (or via back
                   edges), so a fall-through-only insertion covers
                   every loop entry. *)
                let outside_preds, ok_shape =
                  List.fold_left
                    (fun (outs, ok) (pb, kind) ->
                      if kind = Analysis.Cfg.Exn then (outs, false)
                      else if Hashtbl.mem l.Analysis.Dom.body pb then (outs, ok)
                      else ((pb, kind) :: outs, ok))
                    ([], true) header.Analysis.Cfg.preds
                in
                ok_shape
                &&
                match outside_preds with
                | [ (pb, Analysis.Cfg.Fall) ] -> (
                  let preheader = Analysis.Cfg.block cfg pb in
                  match first_trip_guard code header preheader with
                  | None ->
                    anticipable cfg
                      ~in_loop:(Hashtbl.mem l.Analysis.Dom.body)
                      ~header_first:header.Analysis.Cfg.first ~guard:None
                      ~site:idx
                  | Some g ->
                    anticipable cfg
                      ~in_loop:(Hashtbl.mem l.Analysis.Dom.body)
                      ~header_first:header.Analysis.Cfg.first ~guard:(Some g)
                      ~site:idx)
                | _ -> false)
              (Lazy.force loops)
          in
          match candidate with
          | Some l ->
            let header = Analysis.Cfg.block cfg l.Analysis.Dom.header in
            if not (List.mem (header.Analysis.Cfg.first, p) !hoists) then
              hoists := (header.Analysis.Cfg.first, p) :: !hoists;
            hoisted_sites := site :: !hoisted_sites;
            hoisted_certs := (idx, p, header.Analysis.Cfg.first) :: !hoisted_certs
          | None -> ()
        end)
      rest;
    let insert =
      List.filter (fun s -> not (List.memq s !hoisted_sites)) rest
    in
    {
      insert;
      hoists = List.rev !hoists;
      elided_sites = List.map (fun (idx, p, _) -> (idx, p)) by_avail;
      hoisted_sites = List.rev !hoisted_certs;
      elided = List.length by_avail + List.length !hoisted_sites;
      hoisted = List.length !hoists;
    }

(* Certificate emission: the elision plan speaks original-code
   coordinates, certificates must speak rewritten-code coordinates the
   validator sees — the patch layout is the bridge. The support of an
   availability elision is every surviving plain check of the same
   permission (the solver, not the list, is the proof; the list is the
   audit trail the validator cross-checks element-wise). *)
let method_entries (plan : decision) (layout : Rewrite.Patch.layout) :
    Analysis.Certificate.entry list =
  let starts = layout.Rewrite.Patch.l_starts in
  let n_insert = List.length plan.insert in
  let support_of p =
    let s = ref [] in
    List.iteri
      (fun i (_, perm, with_resource) ->
        (* plain check blocks are [Ldc_str; Invokestatic]: the invoke
           sits one past the block start *)
        if (not with_resource) && String.equal perm p then
          s := (starts.(i) + 1) :: !s)
      plan.insert;
    List.iteri
      (fun j (_, perm) ->
        if String.equal perm p then s := (starts.(n_insert + j) + 1) :: !s)
      plan.hoists;
    List.sort compare !s
  in
  let hoist_check_site p header_first =
    let rec find j = function
      | [] -> -1
      | (h, perm) :: tl ->
        if h = header_first && String.equal perm p then starts.(n_insert + j) + 1
        else find (j + 1) tl
    in
    find 0 plan.hoists
  in
  List.map
    (fun (idx, p) ->
      {
        Analysis.Certificate.ce_site = layout.Rewrite.Patch.l_instr.(idx);
        ce_fact = Analysis.Certificate.Available_check p;
        ce_kind = Analysis.Certificate.Elided { support = support_of p };
      })
    plan.elided_sites
  @ List.map
      (fun (idx, p, header_first) ->
        {
          Analysis.Certificate.ce_site = layout.Rewrite.Patch.l_instr.(idx);
          ce_fact = Analysis.Certificate.Available_check p;
          ce_kind =
            Analysis.Certificate.Hoisted
              {
                check_site = hoist_check_site p header_first;
                header = layout.Rewrite.Patch.l_target.(header_first);
              };
        })
      plan.hoisted_sites

let rewrite_class ?(counters = fresh_counters ()) ?(elide = true) ?certs policy
    (cf : CF.t) : CF.t =
  let pool = CP.Builder.of_pool cf.CF.pool in
  let method_certs = ref [] in
  let methods =
    List.map
      (fun m ->
        match m.CF.m_code with
        | None -> m
        | Some code ->
          let sites = protected_sites policy (CP.Builder.to_pool pool) code in
          if sites = [] then m
          else begin
            counters.methods_instrumented <- counters.methods_instrumented + 1;
            let plan =
              if elide then elision_plan code sites else no_elision sites
            in
            counters.checks_elided <- counters.checks_elided + plan.elided;
            counters.checks_hoisted <- counters.checks_hoisted + plan.hoisted;
            Telemetry.add "security.checks_elided"
              (Int64.of_int plan.elided);
            let insertions =
              List.map
                (fun (at, permission, with_resource) ->
                  Rewrite.Patch.before at
                    (check_block pool permission ~with_resource))
                plan.insert
              @ List.map
                  (fun (at, permission) ->
                    Rewrite.Patch.before ~redirect:false at
                      (check_block pool permission ~with_resource:false))
                  plan.hoists
            in
            counters.checks_inserted <-
              counters.checks_inserted + List.length insertions;
            if insertions = [] then m
            else begin
              let code, layout =
                Rewrite.Patch.apply_insertions_layout code insertions
              in
              (if certs <> None then
                 match method_entries plan layout with
                 | [] -> ()
                 | entries ->
                   method_certs :=
                     {
                       Analysis.Certificate.mc_name = m.CF.m_name;
                       mc_desc = m.CF.m_desc;
                       mc_entries = entries;
                     }
                     :: !method_certs);
              let sg = Bytecode.Descriptor.method_sig_of_string m.CF.m_desc in
              let code =
                Rewrite.Patch.recompute (CP.Builder.to_pool pool)
                  ~params:(Bytecode.Descriptor.param_slots sg)
                  ~is_static:(CF.has_flag m.CF.m_flags CF.Static)
                  code
              in
              { m with CF.m_code = Some code }
            end
          end)
      cf.CF.methods
  in
  (match certs with
  | None -> ()
  | Some store ->
    (* Recording an empty certificate clears any stale entry from a
       previous rewrite of the same class name. *)
    Analysis.Certificate.record store
      {
        Analysis.Certificate.cc_name = cf.CF.name;
        cc_methods = List.rev !method_certs;
      });
  { cf with CF.methods; pool = CP.Builder.to_pool pool }

let filter ?counters ?elide ?certs policy =
  Rewrite.Filter.make ~name:"security"
    (rewrite_class ?counters ?elide ?certs policy)
