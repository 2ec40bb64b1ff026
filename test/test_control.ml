(* Tests for the Control state machine: Replace processing per Figure 10
   (Algorithm 1) and Figure 15 (Algorithm 2 with UDO cycle detection),
   rollback targeting, and the finalize cascade. *)

open Hope_types
module History = Hope_core.History
module Control = Hope_core.Control

let test name f = Alcotest.test_case name `Quick f

let owner = Proc_id.of_int 1
let aid i = Aid.of_proc (Proc_id.of_int (100 + i))
let num a = Proc_id.to_int (Aid.to_proc a) - 100
let aids l = Aid.Set.of_list (List.map aid l)

let push h ido = History.push h ~kind:History.Explicit ~ido:(aids ido) ~now:0.0

(* A Replace's two cut callbacks: one call per cut AID, then the count. *)
type cut_report = {
  on_cut_aid : Interval_id.t -> Aid.t -> unit;
  on_cycle_cuts : Interval_id.t -> int -> unit;
}

let no_cut =
  let fail _ _ = Alcotest.fail "unexpected cycle cut" in
  { on_cut_aid = fail; on_cycle_cuts = fail }

(* Records each cut's AID number, newest first; the count a Replace
   reports must be the number of AIDs it reported. *)
let count_cuts cuts =
  let reported = ref (List.length !cuts) in
  {
    on_cut_aid = (fun _iid a -> cuts := num a :: !cuts);
    on_cycle_cuts =
      (fun _iid n ->
        Alcotest.(check int) "cut count" (List.length !cuts - !reported) n;
        reported := List.length !cuts);
  }

let replace ?(algorithm = Control.Algorithm_2) ?cut ?(on_cycle_cut = no_cut) h
    ~target ~sender ~ido =
  Control.handle_replace ?cut ~on_cut_aid:on_cycle_cut.on_cut_aid algorithm h
    ~target ~sender:(aid sender) ~ido:(aids ido)
    ~on_cycle_cuts:on_cycle_cut.on_cycle_cuts

let guesses actions =
  List.filter_map
    (function
      | Control.Send_guess { aid; iid } -> Some (aid, iid)
      | Control.Finalized _ | Control.Rolled_back _ -> None)
    actions

let finalized actions =
  List.filter_map
    (function
      | Control.Finalized itv -> Some (Interval_id.seq itv.History.iid)
      | Control.Send_guess _ | Control.Rolled_back _ -> None)
    actions

(* --------------------------- Replace ------------------------------ *)

let test_replace_empty_finalizes () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  let actions = replace h ~target:a.History.iid ~sender:1 ~ido:[] in
  Alcotest.(check (list int)) "interval finalized" [ 0 ] (finalized actions);
  Alcotest.(check int) "history empty" 0 (History.depth h)

let test_replace_substitutes_and_guesses () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  let actions = replace h ~target:a.History.iid ~sender:1 ~ido:[ 2; 3 ] in
  Alcotest.(check bool) "ido rewritten" true
    (Aid.Set.equal a.History.ido (aids [ 2; 3 ]));
  Alcotest.(check int) "registered with both replacements" 2
    (List.length (guesses actions));
  Alcotest.(check (list int)) "nothing finalized" [] (finalized actions)

let test_replace_stale_target_ignored () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  ignore (History.truncate_from h a.History.iid);
  let actions = replace h ~target:a.History.iid ~sender:1 ~ido:[] in
  Alcotest.(check int) "ignored" 0 (List.length actions)

let test_replace_unknown_sender_ignored () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  let actions = replace h ~target:a.History.iid ~sender:9 ~ido:[ 2 ] in
  Alcotest.(check int) "ignored" 0 (List.length actions);
  Alcotest.(check bool) "ido unchanged" true
    (Aid.Set.equal a.History.ido (aids [ 1 ]))

let test_replace_existing_dep_not_reregistered () =
  let h = History.create owner in
  let a = push h [ 1; 2 ] in
  let actions = replace h ~target:a.History.iid ~sender:1 ~ido:[ 2 ] in
  (* 2 is already a dependency: no new Guess, and 1 disappears. *)
  Alcotest.(check int) "no new registration" 0 (List.length (guesses actions));
  Alcotest.(check bool) "ido is {2}" true (Aid.Set.equal a.History.ido (aids [ 2 ]))

let test_finalize_cascade_respects_order () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  let b = push h [ 2 ] in
  (* Resolve the newer interval first: it must wait for the older one. *)
  let actions = replace h ~target:b.History.iid ~sender:2 ~ido:[] in
  Alcotest.(check (list int)) "nothing finalized yet" [] (finalized actions);
  Alcotest.(check int) "both live" 2 (History.depth h);
  (* Now resolve the older one: both finalize, oldest first. *)
  let actions = replace h ~target:a.History.iid ~sender:1 ~ido:[] in
  Alcotest.(check (list int)) "cascade, oldest first" [ 0; 1 ] (finalized actions);
  Alcotest.(check int) "history empty" 0 (History.depth h)

(* ------------------------ UDO cycle detection --------------------- *)

let test_algorithm_2_records_udo () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  ignore (replace h ~target:a.History.iid ~sender:1 ~ido:[ 2 ]);
  Alcotest.(check bool) "sender moved to UDO" true
    (Aid.Set.equal a.History.udo (aids [ 1 ]))

let test_algorithm_2_cuts_cycle () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  let cuts = ref [] in
  (* Walk 1 -> 2, then 2 -> 1: the second replacement is an AID we used
     to depend on — a cycle. It must be discarded, emptying the IDO and
     finalizing the interval (Figure 15). *)
  ignore (replace h ~target:a.History.iid ~sender:1 ~ido:[ 2 ]);
  let actions =
    replace h ~on_cycle_cut:(count_cuts cuts) ~target:a.History.iid ~sender:2
      ~ido:[ 1 ]
  in
  Alcotest.(check (list int)) "1 cut" [ 1 ] (List.rev !cuts);
  Alcotest.(check bool) "interval marked cut" true a.History.cut;
  Alcotest.(check (list int)) "interval finalized by the cut" [ 0 ]
    (finalized actions)

let test_algorithm_1_no_udo_no_cut () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  ignore
    (replace ~algorithm:Control.Algorithm_1 h ~target:a.History.iid ~sender:1
       ~ido:[ 2 ]);
  Alcotest.(check bool) "no UDO under Algorithm 1" true
    (Aid.Set.is_empty a.History.udo);
  (* The cyclic replacement is accepted again: the bounce of §5.3. *)
  let actions =
    replace ~algorithm:Control.Algorithm_1 h ~target:a.History.iid ~sender:2
      ~ido:[ 1 ]
  in
  Alcotest.(check int) "re-registered with the cycle AID" 1
    (List.length (guesses actions));
  Alcotest.(check bool) "still depends on 1" true
    (Aid.Set.equal a.History.ido (aids [ 1 ]))

let test_self_cycle_cut () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  let cuts = ref [] in
  (* An AID replaced by itself (self-affirm while dependent): 1 -> {1}. *)
  let actions =
    replace h ~on_cycle_cut:(count_cuts cuts) ~target:a.History.iid ~sender:1
      ~ido:[ 1 ]
  in
  Alcotest.(check (list int)) "self-cycle cut" [ 1 ] (List.rev !cuts);
  Alcotest.(check bool) "interval marked cut" true a.History.cut;
  Alcotest.(check (list int)) "finalized" [ 0 ] (finalized actions)

(* One Replace walks its candidates in ascending order: cuts are reported
   in that order, the interval's [cut] flag is set from its first cut on,
   and the fresh candidates are registered in ascending order too. The
   governor's predicate sees exactly the candidates the UDO check let
   through. *)
let test_cuts_ascending_first_once () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  let cuts = ref [] in
  let on_cycle_cut = count_cuts cuts in
  let guessed actions = List.map (fun (x, _) -> num x) (guesses actions) in
  ignore (replace h ~on_cycle_cut ~target:a.History.iid ~sender:1 ~ido:[ 2; 3 ]);
  Alcotest.(check bool) "no cut yet" false a.History.cut;
  (* UDO = {1, 2}: 1 is cut, 3 is already a dependency, 5 and 6 are new *)
  let actions =
    replace h ~on_cycle_cut ~target:a.History.iid ~sender:2 ~ido:[ 6; 1; 3; 5 ]
  in
  Alcotest.(check (list int)) "fresh AIDs registered ascending" [ 5; 6 ]
    (guessed actions);
  Alcotest.(check bool) "interval marked cut" true a.History.cut;
  (* UDO = {1, 2, 3}; the predicate rules 7 a cycle, lets 4 and 8 through *)
  let seen = ref [] in
  let cut ~target:_ ~sender:_ ~candidate =
    seen := num candidate :: !seen;
    Aid.equal candidate (aid 7)
  in
  let actions =
    replace h ~cut ~on_cycle_cut ~target:a.History.iid ~sender:3
      ~ido:[ 8; 2; 7; 1; 4 ]
  in
  Alcotest.(check (list int)) "predicate saw the UDO survivors ascending"
    [ 4; 7; 8 ] (List.rev !seen);
  Alcotest.(check (list int)) "survivors registered ascending" [ 4; 8 ]
    (guessed actions);
  Alcotest.(check (list int)) "cuts ascending" [ 1; 1; 2; 7 ] (List.rev !cuts);
  Alcotest.(check bool) "interval still marked cut" true a.History.cut;
  Alcotest.(check bool) "ido joined in one union" true
    (Aid.Set.equal a.History.ido (aids [ 4; 5; 6; 8 ]))

(* ---------------------------- Rebind ------------------------------ *)

let test_rebind_rolls_back_rewired () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  let _b = push h [ 2 ] in
  (* a walked through 1 (rewired to 3); the affirm behind that rewiring
     is revoked: a — and its successor — must re-execute. *)
  ignore (replace h ~target:a.History.iid ~sender:1 ~ido:[ 3 ]);
  let actions = Control.handle_rebind h ~target:a.History.iid ~sender:(aid 1) in
  (match actions with
  | [ Control.Rolled_back { target; rolled; reason } ] ->
    Alcotest.(check int) "rolls at the rewired interval" 0
      (Interval_id.seq target.History.iid);
    Alcotest.(check int) "suffix included" 2 (List.length rolled);
    Alcotest.(check bool) "revocation reason" true (reason = Control.Revocation)
  | _ -> Alcotest.fail "expected one Rolled_back");
  Alcotest.(check int) "history cleared" 0 (History.depth h)

let test_rebind_ignores_unrewired () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  (* a still depends on 1 directly — no rewiring happened. *)
  let actions = Control.handle_rebind h ~target:a.History.iid ~sender:(aid 1) in
  Alcotest.(check int) "no-op" 0 (List.length actions);
  Alcotest.(check int) "interval untouched" 1 (History.depth h)

let test_rebind_ignores_dead_target () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  ignore (replace h ~target:a.History.iid ~sender:1 ~ido:[ 3 ]);
  ignore (History.truncate_from h a.History.iid);
  let actions = Control.handle_rebind h ~target:a.History.iid ~sender:(aid 1) in
  Alcotest.(check int) "stale rebind ignored" 0 (List.length actions)

(* --------------------------- Rollback ----------------------------- *)

let rolled_back actions =
  List.filter_map
    (function
      | Control.Rolled_back { target; rolled; reason } ->
        Some
          ( Interval_id.seq target.History.iid,
            List.map (fun itv -> Interval_id.seq itv.History.iid) rolled,
            reason )
      | Control.Send_guess _ | Control.Finalized _ -> None)
    actions

let test_rollback_truncates_suffix () =
  let h = History.create owner in
  let _a = push h [ 1 ] in
  let b = push h [ 2 ] in
  let _c = push h [ 2; 3 ] in
  let actions = Control.handle_rollback h ~target:b.History.iid ~denied:(aid 2) in
  (match rolled_back actions with
  | [ (target, rolled, reason) ] ->
    Alcotest.(check int) "target" 1 target;
    Alcotest.(check (list int)) "suffix rolled" [ 1; 2 ] rolled;
    Alcotest.(check bool) "denial recorded" true
      (reason = Control.Denial (aid 2))
  | _ -> Alcotest.fail "expected one Rolled_back");
  Alcotest.(check int) "only the oldest survives" 1 (History.depth h)

let test_rollback_retargets_earliest_dependent () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  let b = push h [ 1; 2 ] in
  (* The denial of 1 addressed interval b, but interval a also depends on
     1 (inheritance): the rollback must start at a. *)
  let actions = Control.handle_rollback h ~target:b.History.iid ~denied:(aid 1) in
  (match rolled_back actions with
  | [ (target, rolled, _) ] ->
    Alcotest.(check int) "retargeted to the earliest dependent"
      (Interval_id.seq a.History.iid) target;
    Alcotest.(check (list int)) "everything rolled" [ 0; 1 ] rolled
  | _ -> Alcotest.fail "expected one Rolled_back");
  Alcotest.(check int) "history empty" 0 (History.depth h)

let test_rollback_stale_ignored () =
  let h = History.create owner in
  let a = push h [ 1 ] in
  ignore (History.truncate_from h a.History.iid);
  let actions = Control.handle_rollback h ~target:a.History.iid ~denied:(aid 1) in
  Alcotest.(check int) "duplicate rollback ignored" 0 (List.length actions)

(* --------------------------- property ----------------------------- *)

(* Random interleavings of Replace/Rollback messages never break the
   structural invariants: live intervals stay ordered, IDO and UDO stay
   disjoint under Algorithm 2, and every action refers to a live or
   just-removed interval. *)
let qcheck_control_robust =
  let open QCheck in
  let op_gen =
    Gen.oneof
      [
        Gen.return `Push;
        Gen.map2 (fun s i -> `Replace (s mod 6, [ i mod 6 ])) Gen.small_nat Gen.small_nat;
        Gen.map (fun s -> `Replace_empty (s mod 6)) Gen.small_nat;
        Gen.map (fun s -> `Rollback (s mod 6)) Gen.small_nat;
        Gen.map (fun s -> `Rebind (s mod 6)) Gen.small_nat;
      ]
  in
  Test.make ~name:"control: random message storms keep invariants" ~count:300
    (make ~print:(fun ops -> string_of_int (List.length ops))
       (Gen.list_size (Gen.int_range 1 60) op_gen))
    (fun ops ->
      let h = History.create owner in
      let cuts = ref [] in
      List.iter
        (fun op ->
          let target () =
            match History.current h with
            | Some itv -> Some itv.History.iid
            | None -> None
          in
          match op with
          | `Push -> ignore (push h [ 1; 2; 3 ])
          | `Replace (s, ido) -> (
            match target () with
            | Some t ->
              ignore
                (replace h ~on_cycle_cut:(count_cuts cuts) ~target:t ~sender:s ~ido)
            | None -> ())
          | `Replace_empty s -> (
            match target () with
            | Some t ->
              ignore (replace h ~on_cycle_cut:(count_cuts cuts) ~target:t ~sender:s ~ido:[])
            | None -> ())
          | `Rollback s -> (
            match target () with
            | Some t -> ignore (Control.handle_rollback h ~target:t ~denied:(aid s))
            | None -> ())
          | `Rebind s -> (
            match target () with
            | Some t -> ignore (Control.handle_rebind h ~target:t ~sender:(aid s))
            | None -> ()))
        ops;
      List.for_all
        (fun itv -> Aid.Set.disjoint itv.History.ido itv.History.udo)
        (History.live h)
      &&
      let seqs =
        List.map (fun itv -> Interval_id.seq itv.History.iid) (History.live h)
      in
      seqs = List.sort compare seqs)

(* ------------------- Replace against the old walk ------------------ *)

(* The reference model: Replace as one walk over the replacement set, one
   candidate at a time in ascending order, each tested against the UDO
   (Algorithm 2), then the governor's predicate, then the IDO, and each
   cut reported as it is found. [Control.handle_replace] counts the UDO
   cuts by the word and visits only the candidates the UDO check lets
   through; the two must act alike. *)
let walk_finalize hist =
  let rec loop acc =
    match History.drop_oldest_finalized hist with
    | Some itv -> loop (Control.Finalized itv :: acc)
    | None -> List.rev acc
  in
  loop []

let walk_replace ?cut algorithm hist ~target ~sender ~ido ~on_cycle_cut =
  match History.find hist target with
  | None -> []
  | Some itv ->
    if not (Aid.Set.mem sender itv.History.ido) then []
    else begin
      itv.History.ido <- Aid.Set.remove sender itv.History.ido;
      (match algorithm with
      | Control.Algorithm_1 -> ()
      | Control.Algorithm_2 -> itv.History.udo <- Aid.Set.add sender itv.History.udo);
      let cycle_cut y =
        itv.History.cut <- true;
        on_cycle_cut target y
      in
      let fresh =
        Aid.Set.fold
          (fun y acc ->
            let in_udo =
              match algorithm with
              | Control.Algorithm_1 -> false
              | Control.Algorithm_2 -> Aid.Set.mem y itv.History.udo
            in
            if in_udo then begin
              cycle_cut y;
              acc
            end
            else if
              match cut with None -> false | Some f -> f ~target ~sender ~candidate:y
            then begin
              cycle_cut y;
              acc
            end
            else if Aid.Set.mem y itv.History.ido then acc
            else y :: acc)
          ido []
      in
      match fresh with
      | [] -> walk_finalize hist
      | _ ->
        itv.History.ido <- Aid.Set.union itv.History.ido (Aid.Set.of_list fresh);
        List.rev_map (fun aid -> Control.Send_guess { aid; iid = target }) fresh
        @ walk_finalize hist
    end

let idx_aid i = Aid.of_proc (Proc_id.of_int i)

(* A deterministic stand-in for the governor's predicate that logs every
   call, so the twins' call sequences can be compared. *)
let logging_cut log ~target ~sender ~candidate =
  log := (target, Aid.index sender, Aid.index candidate) :: !log;
  (Interval_id.seq target + (3 * Aid.index sender) + Aid.index candidate) mod 5 = 0

let action_key = function
  | Control.Send_guess { aid; iid } ->
    Printf.sprintf "guess %d %s" (Aid.index aid) (Interval_id.to_string iid)
  | Control.Finalized itv -> "final " ^ Interval_id.to_string itv.History.iid
  | Control.Rolled_back { target; _ } ->
    "rolled " ^ Interval_id.to_string target.History.iid

let same_interval a b =
  Interval_id.equal a.History.iid b.History.iid
  && Aid.Set.equal a.History.ido b.History.ido
  && Aid.Set.equal a.History.udo b.History.udo
  && a.History.cut = b.History.cut
  && a.History.fate = b.History.fate

(* AID indices run over 0-300, so the sets take both layouts (arrays up
   to 32 members, bitsets beyond) and span five 63-bit words, bit 62 of
   each word included. A Replace names its target and sender by position
   (the sender among the target's IDO, or any AID when [stale]); three in
   four go to the oldest live interval, whose UDO grows past 32 members
   in the longer runs. A Replace mixes members of the target's UDO into
   its replacement set so that Algorithm 2 has cycles to cut. [report]
   passes [on_cut_aid]. *)
let twin_op_gen =
  let open QCheck.Gen in
  let idx = int_bound 300 in
  frequency
    [
      (1, map (fun l -> `Push l) (list_size (int_range 1 100) idx));
      ( 12,
        let* target = small_nat in
        let* sender = small_nat in
        let* stale = frequencyl [ (9, false); (1, true) ] in
        let* fresh = list_size (int_bound 120) idx in
        let* from_udo = list_size (int_bound 40) small_nat in
        let* report = bool in
        return (`Replace (target, sender, stale, fresh, from_udo, report)) );
    ]

let nth_elt s k = List.nth (Aid.Set.elements s) (k mod Aid.Set.cardinal s)

let twins_agree algorithm governed ops =
  let hn = History.create owner and hr = History.create owner in
  let log_n = ref [] and log_r = ref [] in
  let cut_n = if governed then Some (logging_cut log_n) else None in
  let cut_r = if governed then Some (logging_cut log_r) else None in
  List.for_all
    (fun op ->
      match op with
      | `Push l ->
        let ido = Aid.Set.of_list (List.map idx_aid l) in
        ignore (History.push hn ~kind:History.Explicit ~ido ~now:0.0);
        ignore (History.push hr ~kind:History.Explicit ~ido ~now:0.0);
        true
      | `Replace (t, s, stale, fresh, from_udo, report) -> (
        match History.live hr with
        | [] -> true
        | live ->
          let itv =
            List.nth live (if t mod 4 = 0 then t / 4 mod List.length live else 0)
          in
          let target = itv.History.iid in
          let sender =
            if stale || Aid.Set.is_empty itv.History.ido then idx_aid (s mod 301)
            else nth_elt itv.History.ido s
          in
          let ido =
            Aid.Set.of_list
              (List.map idx_aid fresh
              @
              if Aid.Set.is_empty itv.History.udo then []
              else List.map (nth_elt itv.History.udo) from_udo)
          in
          log_n := [];
          log_r := [];
          let aids_n = ref [] and count_n = ref 0 and calls_n = ref 0 in
          let on_cut_aid =
            if report then Some (fun _ y -> aids_n := Aid.index y :: !aids_n) else None
          in
          let acts_n =
            Control.handle_replace ?cut:cut_n ?on_cut_aid algorithm hn ~target ~sender
              ~ido ~on_cycle_cuts:(fun _ n ->
                incr calls_n;
                count_n := !count_n + n)
          in
          let aids_r = ref [] in
          let acts_r =
            walk_replace ?cut:cut_r algorithm hr ~target ~sender ~ido
              ~on_cycle_cut:(fun _ y -> aids_r := Aid.index y :: !aids_r)
          in
          List.map action_key acts_n = List.map action_key acts_r
          && !count_n = List.length !aids_r
          && !calls_n = (if !aids_r = [] then 0 else 1)
          && ((not report) || !aids_n = !aids_r)
          && !log_n = !log_r
          && List.equal same_interval (History.intervals hn) (History.intervals hr)))
    ops

let qcheck_replace_matches_walk =
  let open QCheck in
  Test.make ~name:"control: word-level Replace matches the per-candidate walk"
    ~count:100
    (make ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
       (Gen.list_size (Gen.int_range 1 200) twin_op_gen))
    (fun ops ->
      List.for_all
        (fun (algorithm, governed) -> twins_agree algorithm governed ops)
        [
          (Control.Algorithm_1, false);
          (Control.Algorithm_1, true);
          (Control.Algorithm_2, false);
          (Control.Algorithm_2, true);
        ])

let () =
  Alcotest.run "control"
    [
      ( "replace",
        [
          test "empty replacement finalizes" test_replace_empty_finalizes;
          test "substitutes and registers" test_replace_substitutes_and_guesses;
          test "stale target ignored" test_replace_stale_target_ignored;
          test "unknown sender ignored" test_replace_unknown_sender_ignored;
          test "existing dependency not re-registered"
            test_replace_existing_dep_not_reregistered;
          test "finalize cascade respects order" test_finalize_cascade_respects_order;
        ] );
      ( "cycles",
        [
          test "Algorithm 2 records UDO" test_algorithm_2_records_udo;
          test "Algorithm 2 cuts a 2-cycle" test_algorithm_2_cuts_cycle;
          test "Algorithm 1 bounces" test_algorithm_1_no_udo_no_cut;
          test "self-cycle cut" test_self_cycle_cut;
          test "cuts ascending, first flagged once" test_cuts_ascending_first_once;
          QCheck_alcotest.to_alcotest qcheck_replace_matches_walk;
        ] );
      ( "rebind",
        [
          test "rolls back rewired intervals" test_rebind_rolls_back_rewired;
          test "ignores unrewired intervals" test_rebind_ignores_unrewired;
          test "ignores dead targets" test_rebind_ignores_dead_target;
        ] );
      ( "rollback",
        [
          test "truncates the suffix" test_rollback_truncates_suffix;
          test "retargets the earliest dependent"
            test_rollback_retargets_earliest_dependent;
          test "stale rollback ignored" test_rollback_stale_ignored;
          QCheck_alcotest.to_alcotest qcheck_control_robust;
        ] );
    ]
