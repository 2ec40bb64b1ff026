(* Exhaustive tests of the AID state machine against Figures 4-8 of the
   paper, plus property tests that random message sequences keep the
   machine well-defined and terminal states absorbing. *)

open Hope_types
module M = Hope_core.Aid_machine

let test name f = Alcotest.test_case name `Quick f

let aid_of i = Aid.of_proc (Proc_id.of_int (1000 + i))
let iid i = Interval_id.make ~owner:(Proc_id.of_int i) ~seq:0

let aid_set l = Aid.Set.of_list (List.map aid_of l)

let guess i = Wire.Guess { iid = iid i }
let affirm ?(ido = []) i = Wire.Affirm { iid = iid i; ido = aid_set ido }
let deny i = Wire.Deny { iid = iid i }

let state_is t expected =
  Alcotest.(check string) "state" expected (M.state_name t.M.state)

let replies actions =
  List.map
    (fun (M.Reply { iid; wire }) -> (Interval_id.seq iid, Interval_id.owner iid, wire))
    actions

(* ------------------------- Guess (Figure 6) ----------------------- *)

let test_guess_cold_to_hot () =
  let t = M.create (aid_of 0) in
  state_is t "Cold";
  let actions = M.handle t (guess 1) in
  Alcotest.(check int) "no replies" 0 (List.length actions);
  state_is t "Hot";
  Alcotest.(check int) "DOM records the guess" 1 (M.dom_size t)

let test_guess_hot_accumulates_dom () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (guess 1));
  ignore (M.handle t (guess 2));
  ignore (M.handle t (guess 3));
  state_is t "Hot";
  Alcotest.(check int) "three dependents" 3 (M.dom_size t)

let test_guess_maybe_passes_the_buck () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (guess 1));
  ignore (M.handle t (affirm ~ido:[ 7 ] 1));
  state_is t "Maybe";
  match M.handle t (guess 2) with
  | [ M.Reply { iid; wire = Wire.Replace { ido; _ } } ] ->
    Alcotest.(check bool) "addressed to the guesser" true
      (Interval_id.equal iid (Interval_id.make ~owner:(Proc_id.of_int 2) ~seq:0));
    Alcotest.(check bool) "replacement is A_IDO" true
      (Aid.Set.equal ido (aid_set [ 7 ]));
    (* Deviation from Figure 6: the sender IS recorded in DOM, so a later
       Revoke can reach it with a Rebind (see the mli). *)
    Alcotest.(check int) "DOM gains the guesser" 2 (M.dom_size t)
  | _ -> Alcotest.fail "expected a single Replace reply"

let test_guess_true_replies_empty_replace () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (affirm 9));
  state_is t "True";
  match M.handle t (guess 2) with
  | [ M.Reply { wire = Wire.Replace { ido; _ }; _ } ] ->
    Alcotest.(check bool) "empty replacement" true (Aid.Set.is_empty ido)
  | _ -> Alcotest.fail "expected Replace {}"

let test_guess_false_replies_rollback () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (deny 9));
  state_is t "False";
  match M.handle t (guess 2) with
  | [ M.Reply { wire = Wire.Rollback _; _ } ] -> ()
  | _ -> Alcotest.fail "expected Rollback"

(* ------------------------- Affirm (Figure 7) ---------------------- *)

let test_affirm_definite () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (guess 1));
  ignore (M.handle t (guess 2));
  let actions = M.handle t (affirm 3) in
  state_is t "True";
  Alcotest.(check int) "Replace to every DOM member" 2 (List.length actions);
  List.iter
    (fun (_, _, wire) ->
      match wire with
      | Wire.Replace { ido; _ } ->
        Alcotest.(check bool) "empty ido" true (Aid.Set.is_empty ido)
      | _ -> Alcotest.fail "expected Replace")
    (replies actions)

let test_affirm_speculative () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (guess 1));
  let actions = M.handle t (affirm ~ido:[ 5; 6 ] 2) in
  state_is t "Maybe";
  Alcotest.(check bool) "A_IDO recorded" true
    (Aid.Set.equal t.M.a_ido (aid_set [ 5; 6 ]));
  match actions with
  | [ M.Reply { wire = Wire.Replace { ido; _ }; _ } ] ->
    Alcotest.(check bool) "Replace carries A_IDO" true
      (Aid.Set.equal ido (aid_set [ 5; 6 ]))
  | _ -> Alcotest.fail "expected one Replace"

let test_affirm_on_cold_is_definite () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (affirm 1));
  state_is t "True"

let test_affirm_maybe_then_definite () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (affirm ~ido:[ 5 ] 1));
  state_is t "Maybe";
  ignore (M.handle t (affirm 2));
  state_is t "True"

let test_affirm_redundant_on_true () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (affirm 1));
  let actions = M.handle t (affirm 2) in
  Alcotest.(check int) "ignored" 0 (List.length actions);
  Alcotest.(check int) "counted redundant" 1 t.M.redundant;
  state_is t "True"

let test_affirm_after_deny_is_user_error () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (deny 1));
  ignore (M.handle t (affirm 2));
  Alcotest.(check int) "counted user error" 1 t.M.user_errors;
  state_is t "False"

let test_strict_mode_raises () =
  let t = M.create ~strict:true (aid_of 0) in
  ignore (M.handle t (deny 1));
  Alcotest.(check bool) "strict affirm-after-deny raises" true
    (try
       ignore (M.handle t (affirm 2));
       false
     with M.User_error _ -> true)

(* ------------------------- Deny (Figure 8) ------------------------ *)

let test_deny_rolls_back_dom () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (guess 1));
  ignore (M.handle t (guess 2));
  let actions = M.handle t (deny 3) in
  state_is t "False";
  Alcotest.(check int) "Rollback to every DOM member" 2 (List.length actions);
  List.iter
    (fun (_, _, wire) ->
      match wire with
      | Wire.Rollback _ -> ()
      | _ -> Alcotest.fail "expected Rollback")
    (replies actions)

let test_deny_on_maybe () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (guess 1));
  ignore (M.handle t (affirm ~ido:[ 5 ] 2));
  let actions = M.handle t (deny 3) in
  state_is t "False";
  (* The guesser is still in DOM and must be rolled back. *)
  Alcotest.(check int) "rollback sent" 1 (List.length actions)

let test_deny_redundant_on_false () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (deny 1));
  let actions = M.handle t (deny 2) in
  Alcotest.(check int) "ignored" 0 (List.length actions);
  Alcotest.(check int) "counted redundant" 1 t.M.redundant

let test_deny_after_affirm_is_user_error () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (affirm 1));
  ignore (M.handle t (deny 2));
  Alcotest.(check int) "counted user error" 1 t.M.user_errors;
  state_is t "True"

(* ---------------------- Revoke / Rebind --------------------------- *)

let revoke i = Wire.Revoke { iid = iid i }

let test_revoke_returns_to_hot () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (guess 1));
  ignore (M.handle t (affirm ~ido:[ 5 ] 2));
  state_is t "Maybe";
  let actions = M.handle t (revoke 2) in
  state_is t "Hot";
  Alcotest.(check bool) "A_IDO cleared" true (Aid.Set.is_empty t.M.a_ido);
  (* Every DOM member is told to depend on the AID directly again. *)
  (match actions with
  | [ M.Reply { wire = Wire.Rebind _; _ } ] -> ()
  | _ -> Alcotest.fail "expected one Rebind to the single DOM member");
  (* The re-executed affirm can now rule definitively. *)
  ignore (M.handle t (affirm 2));
  state_is t "True"

let test_revoke_stale_ignored () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (affirm ~ido:[ 5 ] 2));
  state_is t "Maybe";
  (* A revoke from an interval that is not the current affirmer. *)
  let actions = M.handle t (revoke 9) in
  Alcotest.(check int) "ignored" 0 (List.length actions);
  state_is t "Maybe";
  Alcotest.(check int) "counted redundant" 1 t.M.redundant

let test_revoke_on_terminal_ignored () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (affirm 2));
  ignore (M.handle t (revoke 2));
  state_is t "True";
  let t2 = M.create (aid_of 1) in
  ignore (M.handle t2 (deny 2));
  ignore (M.handle t2 (revoke 2));
  state_is t2 "False"

let test_maybe_guess_joins_dom_for_rebind () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (affirm ~ido:[ 5 ] 1));
  (* A guess during Maybe gets the Replace reply AND joins DOM... *)
  ignore (M.handle t (guess 3));
  Alcotest.(check int) "guesser recorded" 1 (M.dom_size t);
  (* ...so the revoke can rebind it. *)
  match M.handle t (revoke 1) with
  | [ M.Reply { iid = b; wire = Wire.Rebind _ } ] ->
    Alcotest.(check bool) "rebind addressed to the rewired guesser" true
      (Interval_id.equal b (iid 3))
  | _ -> Alcotest.fail "expected one Rebind"

(* --------------------- protocol violations ------------------------ *)

let test_replace_rejected () =
  let t = M.create (aid_of 0) in
  Alcotest.(check bool) "Replace raises" true
    (try
       ignore (M.handle t (Wire.Replace { iid = iid 1; ido = Aid.Set.empty }));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "Rollback raises" true
    (try
       ignore (M.handle t (Wire.Rollback { iid = iid 1 }));
       false
     with Invalid_argument _ -> true)

(* ------------- exhaustive transition table (Figure 4) ------------- *)

(* Drive a fresh machine into each of the five states, then apply each of
   the six message shapes and check the successor state against the
   Figure 4 diagram. *)
let reach_state = function
  | "Cold" -> M.create (aid_of 0)
  | "Hot" ->
    let t = M.create (aid_of 0) in
    ignore (M.handle t (guess 1));
    t
  | "Maybe" ->
    let t = M.create (aid_of 0) in
    ignore (M.handle t (affirm ~ido:[ 9 ] 1));
    t
  | "True" ->
    let t = M.create (aid_of 0) in
    ignore (M.handle t (affirm 1));
    t
  | "False" ->
    let t = M.create (aid_of 0) in
    ignore (M.handle t (deny 1));
    t
  | s -> Alcotest.failf "unknown state %s" s

let transition_table =
  (* (start state, message, expected successor) *)
  [
    ("Cold", guess 2, "Hot");
    ("Cold", affirm 2, "True");
    ("Cold", affirm ~ido:[ 5 ] 2, "Maybe");
    ("Cold", deny 2, "False");
    ("Hot", guess 2, "Hot");
    ("Hot", affirm 2, "True");
    ("Hot", affirm ~ido:[ 5 ] 2, "Maybe");
    ("Hot", deny 2, "False");
    ("Maybe", guess 2, "Maybe");
    ("Maybe", affirm 2, "True");
    ("Maybe", affirm ~ido:[ 5 ] 2, "Maybe");
    ("Maybe", deny 2, "False");
    ("True", guess 2, "True");
    ("True", affirm 2, "True");
    ("True", affirm ~ido:[ 5 ] 2, "True");
    ("True", deny 2, "True");
    ("False", guess 2, "False");
    ("False", affirm 2, "False");
    ("False", affirm ~ido:[ 5 ] 2, "False");
    ("False", deny 2, "False");
  ]

let test_transition_table () =
  List.iter
    (fun (start, msg, expected) ->
      let t = reach_state start in
      ignore (M.handle t msg);
      Alcotest.(check string)
        (Format.asprintf "%s + %a" start Wire.pp msg)
        expected (M.state_name t.M.state))
    transition_table

(* ------------- pessimistic overlay (DESIGN.md §10) ---------------- *)

let acquire i = Wire.Acquire { iid = iid i }
let withdraw i = Wire.Abort { iid = iid i }
let release i = Wire.Release { iid = iid i }

let test_escalate_uncontended_grant () =
  let t = M.create (aid_of 0) in
  Alcotest.(check string) "fresh machines are optimistic" "optimistic"
    (M.mode_name (M.mode t));
  M.escalate t;
  M.escalate t;
  (* idempotent *)
  Alcotest.(check string) "escalated" "pessimistic" (M.mode_name (M.mode t));
  (match M.handle t (acquire 1) with
  | [ M.Reply { iid = b; wire = Wire.Grant _ } ] ->
    Alcotest.(check bool) "granted the acquirer" true
      (Interval_id.equal b (iid 1))
  | _ -> Alcotest.fail "expected an immediate Grant");
  Alcotest.(check bool) "holder recorded" true (M.holder t = Some (iid 1));
  Alcotest.(check int) "queue empty" 0 (M.queue_length t);
  (* the truth machine is untouched by the overlay *)
  state_is t "Cold"

let grant_to t msg expected =
  match M.handle t msg with
  | [ M.Reply { iid = b; wire = Wire.Grant _ } ] ->
    Alcotest.(check bool) "granted in FIFO order" true
      (Interval_id.equal b (iid expected))
  | _ -> Alcotest.failf "expected a Grant to %d" expected

let test_fifo_grant_order () =
  let t = M.create (aid_of 0) in
  M.escalate t;
  ignore (M.handle t (acquire 1));
  Alcotest.(check int) "no replies for queued waiters" 0
    (List.length (M.handle t (acquire 2)));
  ignore (M.handle t (acquire 3));
  Alcotest.(check int) "two waiting" 2 (M.queue_length t);
  grant_to t (release 1) 2;
  grant_to t (release 2) 3;
  Alcotest.(check int) "last release grants nobody" 0
    (List.length (M.handle t (release 3)));
  Alcotest.(check bool) "free" true (M.holder t = None);
  Alcotest.(check int) "drained" 0 (M.queue_length t)

let test_withdrawn_waiter_skipped () =
  let t = M.create (aid_of 0) in
  M.escalate t;
  ignore (M.handle t (acquire 1));
  ignore (M.handle t (acquire 2));
  ignore (M.handle t (acquire 3));
  (* inbound Abort = the waiter withdrew; no reply, it already resumed *)
  Alcotest.(check int) "withdrawal is silent" 0
    (List.length (M.handle t (withdraw 2)));
  Alcotest.(check int) "live count drops" 1 (M.queue_length t);
  grant_to t (release 1) 3

let test_withdrawing_holder_releases () =
  let t = M.create (aid_of 0) in
  M.escalate t;
  ignore (M.handle t (acquire 1));
  ignore (M.handle t (acquire 2));
  (* the holder declining an in-flight Grant withdraws like a waiter *)
  grant_to t (withdraw 1) 2

let test_optimistic_acquire_bounced () =
  let t = M.create (aid_of 0) in
  match M.handle t (acquire 1) with
  | [ M.Reply { wire = Wire.Abort _; _ } ] -> ()
  | _ -> Alcotest.fail "optimistic-mode Acquire must abort immediately"

let test_queue_overflow_aborts () =
  let t = M.create ~max_queue:2 (aid_of 0) in
  M.escalate t;
  ignore (M.handle t (acquire 1));
  (* holder *)
  ignore (M.handle t (acquire 2));
  ignore (M.handle t (acquire 3));
  (* two queued = the bound *)
  match M.handle t (acquire 4) with
  | [ M.Reply { iid = b; wire = Wire.Abort _ } ] ->
    Alcotest.(check bool) "overflow aborted outright" true
      (Interval_id.equal b (iid 4));
    Alcotest.(check int) "queue still at the bound" 2 (M.queue_length t)
  | _ -> Alcotest.fail "expected an overflow Abort"

let test_deny_aborts_waiters_keeps_holder () =
  let t = M.create (aid_of 0) in
  M.escalate t;
  ignore (M.handle t (acquire 1));
  ignore (M.handle t (acquire 2));
  ignore (M.handle t (acquire 3));
  let aborted =
    List.filter
      (fun (M.Reply { wire; _ }) ->
        match wire with Wire.Abort _ -> true | _ -> false)
      (M.handle t (deny 9))
  in
  state_is t "False";
  Alcotest.(check int) "both waiters aborted" 2 (List.length aborted);
  Alcotest.(check bool) "definite grant survives the deny" true
    (M.holder t = Some (iid 1));
  (* a dead assumption accepts no new acquires... *)
  (match M.handle t (acquire 4) with
  | [ M.Reply { wire = Wire.Abort _; _ } ] -> ()
  | _ -> Alcotest.fail "acquire on False must abort");
  (* ...but the holder's release is still honoured *)
  Alcotest.(check int) "release grants nobody" 0
    (List.length (M.handle t (release 1)));
  Alcotest.(check bool) "free" true (M.holder t = None)

let test_deescalate_aborts_waiters_keeps_holder () =
  let t = M.create (aid_of 0) in
  M.escalate t;
  ignore (M.handle t (acquire 1));
  ignore (M.handle t (acquire 2));
  ignore (M.handle t (acquire 3));
  let aborted = ref [] in
  M.deescalate t ~reply:(fun _aid b wire ->
      match wire with
      | Wire.Abort _ -> aborted := b :: !aborted
      | _ -> Alcotest.fail "de-escalation only aborts");
  Alcotest.(check int) "both waiters aborted" 2 (List.length !aborted);
  Alcotest.(check string) "back to optimistic" "optimistic"
    (M.mode_name (M.mode t));
  Alcotest.(check bool) "holder keeps its definite grant" true
    (M.holder t = Some (iid 1));
  Alcotest.(check int) "late release honoured" 0
    (List.length (M.handle t (release 1)));
  Alcotest.(check bool) "free" true (M.holder t = None)

let test_retired_machine_serves_queue () =
  let t = M.create (aid_of 0) in
  ignore (M.handle t (affirm 1));
  M.retire t;
  M.escalate t;
  grant_to t (acquire 2) 2

(* Random overlay trajectories under the scheduler's ticket discipline
   (each ticket Acquires at most once, withdraws only while unresolved,
   Releases only what it was granted), with Deny / escalate / de-escalate
   interleaved. *)
type ovop = Acq of int | Wdr of int | Rel of int | Deny_all | Esc | Deesc

let pp_ovop = function
  | Acq i -> Printf.sprintf "Acq %d" i
  | Wdr i -> Printf.sprintf "Wdr %d" i
  | Rel i -> Printf.sprintf "Rel %d" i
  | Deny_all -> "Deny"
  | Esc -> "Esc"
  | Deesc -> "Deesc"

let arbitrary_ovops =
  let open QCheck in
  let op =
    Gen.frequency
      [
        (6, Gen.map (fun i -> Acq i) (Gen.int_bound 7));
        (3, Gen.map (fun i -> Wdr i) (Gen.int_bound 7));
        (3, Gen.map (fun i -> Rel i) (Gen.int_bound 7));
        (1, Gen.return Deny_all);
        (1, Gen.return Esc);
        (1, Gen.return Deesc);
      ]
  in
  make
    ~print:(fun l -> String.concat "; " (List.map pp_ovop l))
    Gen.(list_size (int_range 1 80) op)

(* Replay [ops] against one machine and classify every ticket by what
   came back. Checks, at every step, that the holder is a granted,
   never-aborted, never-withdrawn ticket; then drains the queue and
   returns the bookkeeping for the trajectory-end laws. *)
let overlay_replay ops =
  let t = M.create ~max_queue:4 (aid_of 0) in
  M.escalate t;
  let acquired = ref [] and granted = ref [] in
  let aborted = ref [] and withdrawn = ref [] in
  let mem b l = List.exists (Interval_id.equal b) !l in
  let reply _aid b wire =
    match wire with
    | Wire.Grant _ -> granted := b :: !granted
    | Wire.Abort _ -> aborted := b :: !aborted
    | Wire.Rollback _ -> ()
    | w ->
      QCheck.Test.fail_reportf "unexpected overlay reply %s" (Wire.type_name w)
  in
  let apply = function
    | Acq i ->
      if not (mem (iid i) acquired) then begin
        acquired := iid i :: !acquired;
        M.handle_into t (acquire i) ~reply
      end
    | Wdr i ->
      let b = iid i in
      (* withdraw an unresolved ticket, or decline an in-flight Grant *)
      if
        mem b acquired
        && (not (mem b aborted))
        && (not (mem b withdrawn))
        && ((not (mem b granted)) || M.holder t = Some b)
      then begin
        withdrawn := b :: !withdrawn;
        M.handle_into t (withdraw i) ~reply
      end
    | Rel i ->
      if M.holder t = Some (iid i) then M.handle_into t (release i) ~reply
    | Deny_all -> if t.M.state <> M.False_ then M.handle_into t (deny 9) ~reply
    | Esc -> M.escalate t
    | Deesc -> M.deescalate t ~reply
  in
  List.iter
    (fun op ->
      apply op;
      match M.holder t with
      | None -> ()
      | Some h ->
        if not (mem h granted) then
          QCheck.Test.fail_reportf "holder was never granted";
        if mem h aborted then
          QCheck.Test.fail_reportf "an aborted waiter holds the grant";
        if mem h withdrawn then
          QCheck.Test.fail_reportf "a withdrawn ticket holds the grant")
    ops;
  (* Drain: release the holder until the queue empties, then fold the
     mode back so any survivors are aborted. Every ticket must resolve. *)
  M.escalate t;
  let guard = ref 0 in
  while M.holder t <> None && !guard < 100 do
    incr guard;
    match M.holder t with
    | Some h -> M.handle_into t (Wire.Release { iid = h }) ~reply
    | None -> ()
  done;
  M.deescalate t ~reply;
  (t, List.rev !acquired, List.rev !granted, List.rev !aborted, !withdrawn)

let qcheck_overlay_aborted_never_hold =
  QCheck.Test.make
    ~name:"overlay: aborted or withdrawn waiters never hold the grant"
    ~count:500 arbitrary_ovops (fun ops ->
      let _t, _acq, granted, aborted, _wdr = overlay_replay ops in
      (* exactly one resolution per ticket: Grant and Abort are disjoint
         and neither arrives twice *)
      List.iter
        (fun b ->
          if List.exists (Interval_id.equal b) aborted then
            QCheck.Test.fail_reportf "ticket both granted and aborted")
        granted;
      let unique l =
        List.length l
        = List.length (List.sort_uniq (fun a b -> compare a b) l)
      in
      unique granted && unique aborted)

let qcheck_overlay_fifo_drains =
  QCheck.Test.make
    ~name:"overlay: the queue drains and grants follow acquisition order"
    ~count:500 arbitrary_ovops (fun ops ->
      let t, acquired, granted, aborted, withdrawn = overlay_replay ops in
      if M.holder t <> None then QCheck.Test.fail_reportf "drain left a holder";
      if M.queue_length t <> 0 then
        QCheck.Test.fail_reportf "drain left live waiters";
      (* every Acquire completed: grant, abort, or client withdrawal *)
      List.iter
        (fun b ->
          if
            not
              (List.exists (Interval_id.equal b) granted
              || List.exists (Interval_id.equal b) aborted
              || List.exists (Interval_id.equal b) withdrawn)
          then QCheck.Test.fail_reportf "an acquire never resolved")
        acquired;
      (* FIFO: the grant sequence respects acquisition order *)
      let index b =
        let rec go i = function
          | [] -> -1
          | x :: rest -> if Interval_id.equal x b then i else go (i + 1) rest
        in
        go 0 acquired
      in
      let rec ascending last = function
        | [] -> true
        | b :: rest ->
          let i = index b in
          if i <= last then
            QCheck.Test.fail_reportf "grant out of acquisition order"
          else ascending i rest
      in
      ascending (-1) granted)

(* --------------------- property tests ----------------------------- *)

let arbitrary_msg =
  let open QCheck in
  let gen =
    Gen.oneof
      [
        Gen.map (fun i -> guess (i mod 5)) Gen.small_nat;
        Gen.map2
          (fun i aids -> affirm ~ido:aids (i mod 5))
          Gen.small_nat
          Gen.(list_size (Gen.int_bound 3) (Gen.int_bound 5));
        Gen.map (fun i -> deny (i mod 5)) Gen.small_nat;
      ]
  in
  make ~print:(Format.asprintf "%a" Wire.pp) gen

(* Lemma 5.1/5.2 at the machine level: for any two messages, processing
   them in either order leaves the machine in the same state whenever
   neither order aborts — or the conflict is the affirm/deny conflict the
   paper declares meaningless (the machine then keeps the first ruling
   deterministically). *)
let qcheck_commutation_or_first_ruling =
  QCheck.Test.make ~name:"aid: message pairs commute or first ruling wins"
    ~count:500
    QCheck.(pair arbitrary_msg arbitrary_msg)
    (fun (m1, m2) ->
      let run msgs =
        let t = M.create (aid_of 0) in
        List.iter (fun m -> ignore (M.handle t m)) msgs;
        (t.M.state, M.dom_size t)
      in
      let s12, _ = run [ m1; m2 ] and s21, _ = run [ m2; m1 ] in
      match (m1, m2) with
      | Wire.Affirm _, Wire.Deny _ | Wire.Deny _, Wire.Affirm _ ->
        (* the paper: "conflicting affirm and deny primitives have no
           meaning" — each order keeps its first ruling *)
        (s12 = M.True_ || s12 = M.False_) && (s21 = M.True_ || s21 = M.False_)
      | Wire.Affirm { ido = i1; _ }, Wire.Affirm { ido = i2; _ }
        when not (Aid.Set.equal i1 i2) ->
        (* double affirm with different predicates: last writer wins per
           Figure 7; order-dependent by design (redundant-affirm case) *)
        true
      | _ -> s12 = s21)

let qcheck_terminal_states_absorb =
  QCheck.Test.make ~name:"aid: True/False are absorbing" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) arbitrary_msg)
    (fun msgs ->
      let t = M.create (aid_of 0) in
      List.for_all
        (fun msg ->
          let was_final = M.is_final t in
          let before = t.M.state in
          ignore (M.handle t msg);
          (not was_final) || t.M.state = before)
        msgs)

let qcheck_cold_hot_guesses_silent =
  QCheck.Test.make ~name:"aid: Cold/Hot guesses never get replies" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) arbitrary_msg)
    (fun msgs ->
      let t = M.create (aid_of 0) in
      List.for_all
        (fun msg ->
          let pre = t.M.state in
          let actions = M.handle t msg in
          match (msg, pre) with
          | Wire.Guess _, (M.Cold | M.Hot) -> actions = []
          | _ -> true)
        msgs)

(* ------------------ DOM against a set-based model ----------------- *)

(* The truth machine of Figures 5-8 plus Revoke, with DOM kept as an
   [Interval_id.Set] — the representation the registry replaced. Its
   replies are rendered as strings so a mismatch prints readably. *)
type model = {
  mutable m_state : M.state;
  mutable m_dom : Interval_id.Set.t;
  mutable m_a_ido : Aid.Set.t;
  mutable m_affirmer : Interval_id.t option;
}

let render b wire = Format.asprintf "%a <- %a" Interval_id.pp b Wire.pp wire

let model_step m wire =
  let each f = List.map f (Interval_id.Set.elements m.m_dom) in
  match (wire, m.m_state) with
  | Wire.Guess { iid }, (M.Cold | M.Hot) ->
    m.m_dom <- Interval_id.Set.add iid m.m_dom;
    m.m_state <- M.Hot;
    []
  | Wire.Guess { iid }, M.Maybe ->
    m.m_dom <- Interval_id.Set.add iid m.m_dom;
    [ render iid (Wire.Replace { iid; ido = m.m_a_ido }) ]
  | Wire.Guess { iid }, M.True_ -> [ render iid (Wire.Replace { iid; ido = Aid.Set.empty }) ]
  | Wire.Guess { iid }, M.False_ -> [ render iid (Wire.Rollback { iid }) ]
  | Wire.Affirm { iid; ido }, (M.Cold | M.Hot | M.Maybe) ->
    m.m_a_ido <- ido;
    if Aid.Set.is_empty ido then begin
      m.m_state <- M.True_;
      m.m_affirmer <- None
    end
    else begin
      m.m_state <- M.Maybe;
      m.m_affirmer <- Some iid
    end;
    each (fun b -> render b (Wire.Replace { iid = b; ido }))
  | Wire.Deny _, (M.Cold | M.Hot | M.Maybe) ->
    m.m_state <- M.False_;
    each (fun b -> render b (Wire.Rollback { iid = b }))
  | Wire.Revoke { iid }, M.Maybe when m.m_affirmer = Some iid ->
    m.m_state <- M.Hot;
    m.m_a_ido <- Aid.Set.empty;
    m.m_affirmer <- None;
    each (fun b -> render b (Wire.Rebind { iid = b }))
  | _ -> []

(* Guess-heavy streams over a small id space: owners 0-3 interleave,
   sequence numbers 0-5 arrive in any order, and ids repeat; speculative
   and definite Affirms, Denies and Revokes are mixed in. *)
let arbitrary_dom_stream =
  let open QCheck in
  let id = Gen.map2 (fun owner seq -> Interval_id.make ~owner:(Proc_id.of_int owner) ~seq)
      (Gen.int_bound 3) (Gen.int_bound 5) in
  let msg =
    Gen.frequency
      [
        (12, Gen.map (fun iid -> Wire.Guess { iid }) id);
        ( 2,
          Gen.map2
            (fun iid aids -> Wire.Affirm { iid; ido = aid_set aids })
            id
            Gen.(list_size (int_range 1 3) (int_bound 5)) );
        (1, Gen.map (fun iid -> Wire.Affirm { iid; ido = Aid.Set.empty }) id);
        (1, Gen.map (fun iid -> Wire.Deny { iid }) id);
        (2, Gen.map (fun iid -> Wire.Revoke { iid }) id);
      ]
  in
  make
    ~print:(fun l -> String.concat "; " (List.map (Format.asprintf "%a" Wire.pp) l))
    Gen.(list_size (int_range 1 60) msg)

let qcheck_dom_matches_set_model =
  QCheck.Test.make ~name:"dom: replies and size match an Interval_id.Set model"
    ~count:1000 arbitrary_dom_stream (fun msgs ->
      let t = M.create (aid_of 0) in
      let m =
        { m_state = M.Cold; m_dom = Interval_id.Set.empty; m_a_ido = Aid.Set.empty;
          m_affirmer = None }
      in
      List.iter
        (fun wire ->
          let got = List.map (fun (M.Reply { iid; wire }) -> render iid wire) (M.handle t wire) in
          let want = model_step m wire in
          if got <> want then
            QCheck.Test.fail_reportf "after %a: replies@.  [%s]@.expected@.  [%s]" Wire.pp wire
              (String.concat "; " got) (String.concat "; " want);
          if M.dom_size t <> Interval_id.Set.cardinal m.m_dom then
            QCheck.Test.fail_reportf "after %a: DOM size %d, model %d" Wire.pp wire
              (M.dom_size t) (Interval_id.Set.cardinal m.m_dom))
        msgs;
      true)

let test_retire_empties_dom () =
  let t = M.create (aid_of 0) in
  List.iter (fun i -> ignore (M.handle t (guess i))) [ 3; 1; 2; 1 ];
  Alcotest.(check int) "three distinct guessers" 3 (M.dom_size t);
  ignore (M.handle t (affirm 9));
  M.retire t;
  Alcotest.(check int) "retire empties DOM" 0 (M.dom_size t);
  (match M.handle t (guess 4) with
  | [ M.Reply { wire = Wire.Replace { ido; _ }; _ } ] ->
    Alcotest.(check bool) "a retired True AID still answers" true (Aid.Set.is_empty ido)
  | _ -> Alcotest.fail "expected Replace {}");
  Alcotest.(check int) "terminal guesses are not recorded" 0 (M.dom_size t)

let () =
  Alcotest.run "aid_machine"
    [
      ( "guess",
        [
          test "Cold -> Hot, DOM records" test_guess_cold_to_hot;
          test "Hot accumulates DOM" test_guess_hot_accumulates_dom;
          test "Maybe passes the buck" test_guess_maybe_passes_the_buck;
          test "True replies Replace {}" test_guess_true_replies_empty_replace;
          test "False replies Rollback" test_guess_false_replies_rollback;
        ] );
      ( "affirm",
        [
          test "definite affirm -> True, notifies DOM" test_affirm_definite;
          test "speculative affirm -> Maybe with A_IDO" test_affirm_speculative;
          test "affirm on Cold" test_affirm_on_cold_is_definite;
          test "Maybe then definite affirm" test_affirm_maybe_then_definite;
          test "redundant affirm ignored" test_affirm_redundant_on_true;
          test "affirm after deny is user error" test_affirm_after_deny_is_user_error;
          test "strict mode raises" test_strict_mode_raises;
        ] );
      ( "deny",
        [
          test "deny rolls back DOM" test_deny_rolls_back_dom;
          test "deny on Maybe" test_deny_on_maybe;
          test "redundant deny ignored" test_deny_redundant_on_false;
          test "deny after affirm is user error" test_deny_after_affirm_is_user_error;
        ] );
      ( "revocation",
        [
          test "revoke returns Maybe to Hot and rebinds" test_revoke_returns_to_hot;
          test "stale revoke ignored" test_revoke_stale_ignored;
          test "revoke on terminal states ignored" test_revoke_on_terminal_ignored;
          test "Maybe guess joins DOM for rebind"
            test_maybe_guess_joins_dom_for_rebind;
        ] );
      ( "dom",
        [
          test "retire empties DOM" test_retire_empties_dom;
          QCheck_alcotest.to_alcotest qcheck_dom_matches_set_model;
        ] );
      ( "overlay",
        [
          test "escalate, uncontended grant" test_escalate_uncontended_grant;
          test "FIFO grant order" test_fifo_grant_order;
          test "withdrawn waiter skipped" test_withdrawn_waiter_skipped;
          test "withdrawing holder releases" test_withdrawing_holder_releases;
          test "optimistic-mode acquire bounced" test_optimistic_acquire_bounced;
          test "queue overflow aborts" test_queue_overflow_aborts;
          test "deny aborts waiters, keeps holder"
            test_deny_aborts_waiters_keeps_holder;
          test "de-escalation aborts waiters, keeps holder"
            test_deescalate_aborts_waiters_keeps_holder;
          test "retired machine still serves the queue"
            test_retired_machine_serves_queue;
          QCheck_alcotest.to_alcotest qcheck_overlay_aborted_never_hold;
          QCheck_alcotest.to_alcotest qcheck_overlay_fifo_drains;
        ] );
      ( "protocol",
        [
          test "Replace/Rollback rejected" test_replace_rejected;
          test "exhaustive transition table (Figure 4)" test_transition_table;
          QCheck_alcotest.to_alcotest qcheck_commutation_or_first_ruling;
          QCheck_alcotest.to_alcotest qcheck_terminal_states_absorb;
          QCheck_alcotest.to_alcotest qcheck_cold_hot_guesses_silent;
        ] );
    ]
