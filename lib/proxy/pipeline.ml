(* The static-service pipeline (Figure 2): code flows through a stack
   of independent code-transformation filters. Parsing and code
   generation are performed once for all services; the filters operate
   on the parsed image. A rejection anywhere in the stack is converted
   into an error-propagation replacement class, so failures reach
   clients as ordinary Java exceptions. *)

type outcome = {
  out_bytes : string;
  out_version : int; (* policy version the class was rewritten under; 0 = unversioned *)
  rejected : (string * string) option; (* filter, reason *)
  parse_cost : int64; (* µs of proxy CPU *)
  transform_cost : int64;
  generate_cost : int64;
  parses : int; (* parse passes performed (1, or N in the ablation) *)
}

let total_cost o = Int64.add o.parse_cost (Int64.add o.transform_cost o.generate_cost)

(* Fingerprint of the rewritten bytes — what the farm's determinism
   checks compare across shard counts: the pipeline is a pure function
   of its input, so the same class must digest identically no matter
   which shard ran it. *)
let digest o = Dsig.Md5.digest o.out_bytes

(* Proxy cost model, in µs on the reference CPU. Calibrated against
   §4.1.2: parsing + instrumenting an average Internet applet costs
   ~265 ms. *)
let parse_us_per_byte = 12.0
let generate_us_per_byte = 4.0
let transform_us_per_instr = 2.0

let parse_cost_of bytes =
  Int64.of_float (parse_us_per_byte *. Float.of_int (String.length bytes))

let generate_cost_of bytes =
  Int64.of_float (generate_us_per_byte *. Float.of_int (String.length bytes))

let transform_cost_of cf =
  Int64.of_float
    (transform_us_per_instr *. Float.of_int (Bytecode.Classfile.instruction_count cf))

(* Telemetry around the pipeline: the parse, each filter and code
   generation get wall-clock spans; the simulated cost model feeds the
   *_us histograms the metrics snapshot reports. All of it is behind
   the registry's enabled flag. *)

let record_outcome (o : outcome) =
  if Telemetry.enabled () then begin
    Telemetry.incr "pipeline.classes";
    Telemetry.observe "pipeline.parse_us" o.parse_cost;
    Telemetry.observe "pipeline.transform_us" o.transform_cost;
    Telemetry.observe "pipeline.generate_us" o.generate_cost;
    match o.rejected with
    | Some (filter, _) ->
      Telemetry.incr "pipeline.rejections";
      Telemetry.incr ("pipeline.reject." ^ filter)
    | None -> ()
  end

let apply_filter f cf =
  if not (Telemetry.enabled ()) then Rewrite.Filter.apply f cf
  else
    Telemetry.with_span ~cat:"pipeline"
      ~args:[ ("class", cf.Bytecode.Classfile.name) ]
      ("pipeline.filter:" ^ f.Rewrite.Filter.name)
      (fun () -> Rewrite.Filter.apply f cf)

let parse_traced bytes =
  Telemetry.with_span ~cat:"pipeline" "pipeline.parse" (fun () ->
      Bytecode.Decode.class_of_bytes bytes)

let generate_traced cf =
  Telemetry.with_span ~cat:"pipeline" "pipeline.generate" (fun () ->
      Bytecode.Encode.class_to_bytes cf)

let run_uncached ?(policy_version = 0) ?signer filters (bytes : string) :
    outcome =
  let parse_cost = parse_cost_of bytes in
  let transform_cost = ref 0L in
  let sign cf =
    match signer with
    | None -> cf
    | Some key ->
      Telemetry.with_span ~cat:"pipeline" "pipeline.sign" (fun () ->
          Dsig.Sign.sign key cf)
  in
  let finish ?rejected out =
    let o =
      {
        out_bytes = out;
        out_version = policy_version;
        rejected;
        parse_cost;
        transform_cost = !transform_cost;
        generate_cost = generate_cost_of out;
        parses = 1;
      }
    in
    record_outcome o;
    o
  in
  (* §3.1: whichever stage refuses the class, the client gets an
     error-propagation replacement under the refused class's name, so
     the client's load of it raises the error ("malformed/Input" when
     the input never decoded). It is signed like any class the proxy
     serves, since clients redirect unsigned code back to the proxy,
     and generating it is proxy work too. *)
  let reject ~filter ~name reason =
    finish ~rejected:(filter, reason)
      (Bytecode.Encode.class_to_bytes
         (sign (Verifier.Error_class.build ~name ~message:reason)))
  in
  match parse_traced bytes with
  | exception Bytecode.Decode.Format_error reason ->
    reject ~filter:"decode" ~name:"malformed/Input" reason
  | cf -> (
    match
      List.fold_left
        (fun acc f ->
          transform_cost := Int64.add !transform_cost (transform_cost_of acc);
          apply_filter f acc)
        cf filters
    with
    | exception Rewrite.Filter.Rejected { filter; cls; reason } ->
      reject ~filter ~name:cls reason
    | transformed -> (
      match generate_traced (sign transformed) with
      | out -> finish out
      | exception Bytecode.Io.Overflow reason ->
        (* A filter inflated the class past a classfile encoding limit
           (a 16-bit length or index field): the replacement's message
           names the oversized field, instead of a truncated or
           silently-masked image. *)
        reject ~filter:"encode" ~name:transformed.Bytecode.Classfile.name
          reason))

(* --- Host-CPU memoization. ---

   The pipeline is a pure function of its input (that is what the
   farm's determinism checks assert), so when an experiment pushes the
   same class bytes through the same filter stack thousands of times —
   chaos and scaling runs deliberately disable the simulated cache so
   "every fetch is real pipeline work" in the *cost model* — the host
   CPU need not redo the parse/verify/rewrite/generate work to produce
   the identical outcome. A memo caches the outcome together with the
   telemetry tape of the first run; a hit replays the tape (identical
   counters, histogram observations and span structure, with live span
   ids and the ambient trace scope) and returns the shared outcome.
   Simulated costs, served bytes and every pinned digest are untouched:
   only host wall-clock changes.

   Memoization is opt-in per call site because filters are arbitrary
   closures: a stack is memo-safe only when its filters are effect-free
   apart from telemetry (no caller-visible counter records, no audit
   appends). The standard chaos/scaling stacks qualify; experiment
   stacks that thread mutable counter records do not. *)

module Memo = struct
  type entry = {
    me_outcome : outcome;
    me_tape : Telemetry.tape option;
    me_telemetry : bool; (* registry enabled when captured *)
  }

  type t = {
    tbl : (int * string, entry) Hashtbl.t; (* (policy version, input bytes) -> entry *)
    mutable hits : int;
    mutable misses : int;
    (* The stack and signer the cached entries were computed under;
       pinned on first use so accidental sharing across different
       pipelines falls back to real runs instead of serving wrong
       bytes. *)
    mutable key_filters : Rewrite.Filter.t list option;
    mutable key_signer : Dsig.Sign.key option option;
  }

  (* Stop inserting past this many entries. *)
  let cap = 1024

  let create () =
    {
      tbl = Hashtbl.create 64;
      hits = 0;
      misses = 0;
      key_filters = None;
      key_signer = None;
    }

  let hits t = t.hits
  let misses t = t.misses

  (* Physical equality is the right notion for both: filter lists are
     built once per experiment and shared across the pool, and a signer
     key is a value the caller threads around, not something
     reconstructed per request. *)
  let matches t filters signer =
    (match t.key_filters with None -> true | Some fs -> fs == filters)
    && match t.key_signer with
       | None -> true
       | Some None -> signer = None
       | Some (Some k) -> (
         match signer with Some k' -> k == k' | None -> false)

  let pin t filters signer =
    if t.key_filters = None then begin
      t.key_filters <- Some filters;
      t.key_signer <- Some signer
    end
end

let run ?(policy_version = 0) ?memo ?signer filters (bytes : string) : outcome =
  match memo with
  | None -> run_uncached ~policy_version ?signer filters bytes
  | Some m when not (Memo.matches m filters signer) ->
    run_uncached ~policy_version ?signer filters bytes
  | Some m -> (
    Memo.pin m filters signer;
    let live = Telemetry.enabled () in
    (* The memo key carries the policy version alongside the bytes:
       two versions whose filter stacks happen to be shared physically
       must still never serve each other's outcomes. *)
    let key = (policy_version, bytes) in
    match Hashtbl.find_opt m.Memo.tbl key with
    | Some e when e.Memo.me_telemetry = live ->
      m.Memo.hits <- m.Memo.hits + 1;
      (match e.Memo.me_tape with
      | Some tape -> Telemetry.replay tape
      | None -> ());
      e.Memo.me_outcome
    | _ ->
      m.Memo.misses <- m.Memo.misses + 1;
      let o, tape =
        Telemetry.capture (fun () ->
            run_uncached ~policy_version ?signer filters bytes)
      in
      (match tape with
      | Some _ when Hashtbl.length m.Memo.tbl < Memo.cap ->
        Hashtbl.replace m.Memo.tbl key
          { Memo.me_outcome = o; me_tape = tape; me_telemetry = live }
      | _ -> ());
      o)

(* Ablation: the naive structure that re-parses and re-generates
   between every pair of services, as if each were an independent
   proxy. Same output, multiplied parse/generate cost. *)
let run_parse_per_service filters bytes : outcome =
  List.fold_left
    (fun (acc : outcome) f ->
      if acc.rejected <> None then acc
      else
        let o = run_uncached [ f ] acc.out_bytes in
        {
          o with
          parse_cost = Int64.add acc.parse_cost o.parse_cost;
          transform_cost = Int64.add acc.transform_cost o.transform_cost;
          generate_cost = Int64.add acc.generate_cost o.generate_cost;
          parses = acc.parses + o.parses;
        })
    {
      out_bytes = bytes;
      out_version = 0;
      rejected = None;
      parse_cost = 0L;
      transform_cost = 0L;
      generate_cost = 0L;
      parses = 0;
    }
    filters
