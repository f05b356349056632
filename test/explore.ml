(* Explicit-state search, shared by the explorers of the protocol cores
   ([test_control] over [Control_core], [test_serve] over [Serve_core],
   [test_fetch] over [Fetch_core]). A model names its actions, its
   fault-free order, a transition and the properties every state must
   keep; [Make] visits every state within a bound, skipping states it
   has already seen, and on a violation prints the shortest schedule
   that reaches one. *)

module type MODEL = sig
  type world
  type action

  val actions : world -> action list
  (** Every action enabled in the world. *)

  val default : world -> action option
  (** The fault-free order's next action, if the model has one. A
      schedule's deviations are its actions that depart from it. *)

  val perform : world -> action -> world * string * string list
  (** The successor (a fresh world: [perform] must not mutate its
      argument), a line describing the action, and the reason events
      it caused, each ["<who> <kind> <detail>"]. *)

  val violation : world -> string option
  (** The first property the world breaks, if any. *)

  val fingerprint : world -> string
  (** A digest that two worlds share exactly when they are one state. *)

  val now : world -> int64
end

module Make (M : MODEL) = struct
  exception Counterexample of string * M.action list

  type report = {
    states : int;
    coverage : (string, int) Hashtbl.t; (* reason events seen, by kind *)
  }

  (* Depth-first over every schedule of at most [depth] actions from
     [w0] of which at most [deviations] depart from the fault-free
     order. Each state remembers the (actions, deviations) budgets it
     was expanded with; a state reached again with no more of either
     is skipped, so every state within the bounds is checked. States
     key on 62 bits of the fingerprint. *)
  let explore ~depth ~deviations w0 =
    let seen = Hashtbl.create 65536 in
    let coverage = Hashtbl.create 16 in
    let tally notes =
      List.iter
        (fun n ->
          let kind = List.nth (String.split_on_char ' ' n) 1 in
          Hashtbl.replace coverage kind
            (1 + Option.value ~default:0 (Hashtbl.find_opt coverage kind)))
        notes
    in
    let rec visit w path left devs =
      let usual = M.default w in
      List.iter
        (fun a ->
          let devs =
            min (left - 1) (if Some a = usual then devs else devs - 1)
          in
          if devs >= 0 then begin
            let w', _, notes = M.perform w a in
            let key =
              Int64.to_int (String.get_int64_le (M.fingerprint w') 0)
            in
            let known = Option.value ~default:[] (Hashtbl.find_opt seen key) in
            let left = left - 1 in
            if not (List.exists (fun (l, d) -> l >= left && d >= devs) known)
            then begin
              if known = [] then tally notes;
              Hashtbl.replace seen key
                ((left, devs)
                :: List.filter (fun (l, d) -> l > left || d > devs) known);
              (match M.violation w' with
              | Some reason ->
                raise (Counterexample (reason, List.rev (a :: path)))
              | None -> ());
              if left > 0 then visit w' (a :: path) left devs
            end
          end)
        (M.actions w)
    in
    if depth > 0 then visit w0 [] depth deviations;
    { states = Hashtbl.length seen; coverage }

  (* Replay a schedule, printing each action and its reason events. *)
  let replay w0 schedule =
    List.fold_left
      (fun w a ->
        let w, label, notes = M.perform w a in
        Printf.printf "  %8Ld  %s\n" (M.now w) label;
        List.iter (Printf.printf "            %s\n") notes;
        (match M.violation w with
        | Some reason -> Printf.printf "  VIOLATION  %s\n" reason
        | None -> ());
        w)
      w0 schedule

  (* A counterexample found depth-first need not be the shortest: find
     the fewest deviations that still reach a violation, then the
     fewest actions. *)
  let shortest ~depth ~deviations w0 =
    let fails ~depth ~deviations =
      match explore ~depth ~deviations w0 with
      | _ -> None
      | exception Counterexample (reason, schedule) -> Some (reason, schedule)
    in
    let k =
      List.find
        (fun k -> fails ~depth ~deviations:k <> None)
        (List.init (deviations + 1) Fun.id)
    in
    Option.get
      (List.find_map
         (fun d -> fails ~depth:d ~deviations:k)
         (List.init depth (fun d -> d + 1)))

  (* Explore; print the distinct-state count and the reason events
     reached, or fail with the shortest counterexample, replayed. *)
  let search ~name ~depth ~deviations w0 =
    let t0 = Unix.gettimeofday () in
    match explore ~depth ~deviations w0 with
    | r ->
      Printf.printf
        "%s: depth %d, deviations %d, %d distinct states, %.1f s\n  %s\n%!"
        name depth deviations r.states
        (Unix.gettimeofday () -. t0)
        (String.concat " "
           (List.sort compare
              (Hashtbl.fold
                 (fun k n acc -> Printf.sprintf "%s=%d" k n :: acc)
                 r.coverage [])));
      r
    | exception Counterexample _ ->
      let reason, schedule = shortest ~depth ~deviations w0 in
      Printf.printf "%s: counterexample in %d steps — %s\n" name
        (List.length schedule) reason;
      ignore (replay w0 schedule : M.world);
      Printf.printf "%!";
      Alcotest.failf "%s: %s" name reason

  (* The bound reaches these reason events. *)
  let reaches r kinds =
    List.iter
      (fun kind ->
        Alcotest.(check bool) (kind ^ " reached") true
          (Hashtbl.mem r.coverage kind))
      kinds
end
