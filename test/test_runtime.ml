(* Tests for runtime configuration features: AID garbage collection,
   buffered speculative denies (footnote 1), the terminal-state cache
   ablation, and AID placement; plus the event log's readers, Explain and
   the Theorem 5.1 check. *)

open Hope_types
module Program = Hope_proc.Program
module Scheduler = Hope_proc.Scheduler
module Runtime = Hope_core.Runtime
module Aid_machine = Hope_core.Aid_machine
open Program.Syntax
open Test_support.Util

let test name f = Alcotest.test_case name `Quick f

(* ------------------------------ GC -------------------------------- *)

let test_gc_retires_resolved_aids () =
  let w = make_world () in
  let affirmer =
    Scheduler.spawn w.sched ~name:"affirmer"
      (Program.repeat 5
         (let* env = Program.recv () in
          Program.affirm (Value.to_aid (Envelope.value env))))
  in
  let _worker =
    Scheduler.spawn w.sched ~name:"worker"
      (Program.repeat 5
         (let* x = Program.aid_init () in
          let* () = Program.send affirmer (Value.Aid_v x) in
          let* _ = Program.guess x in
          Program.return ()))
  in
  quiesce w;
  let stats = Runtime.collect_garbage w.rt in
  Alcotest.(check int) "all five AIDs swept" 5 stats.Runtime.swept;
  Alcotest.(check int) "all retired (resolved, unreferenced)" 5 stats.retired;
  Alcotest.(check int) "none live" 0 stats.live;
  check_invariants w

let test_gc_keeps_referenced_aids () =
  let w = make_world () in
  (* The assumption never resolves: its interval stays live and the AID
     must not be retired. *)
  let _worker =
    Scheduler.spawn w.sched ~name:"worker"
      (let* x = Program.aid_init () in
       let* _ = Program.guess x in
       Program.return ())
  in
  quiesce w;
  let stats = Runtime.collect_garbage w.rt in
  Alcotest.(check int) "nothing retired" 0 stats.Runtime.retired;
  Alcotest.(check int) "one live" 1 stats.live

let test_gc_tombstone_still_answers () =
  let w = make_world () in
  let record, dump = recorder () in
  let aid_box = ref None in
  let _creator =
    Scheduler.spawn w.sched ~name:"creator"
      (let* x = Program.aid_init () in
       let* () = Program.lift (fun () -> aid_box := Some x) in
       Program.affirm x)
  in
  quiesce w;
  ignore (Runtime.collect_garbage w.rt : Runtime.gc_stats);
  let x = Option.get !aid_box in
  Alcotest.(check bool) "machine retired" true (Runtime.aid_machine w.rt x).Aid_machine.retired;
  (* A late guess must still get the terminal answer. *)
  let _late =
    Scheduler.spawn w.sched ~name:"late"
      (let* ok = Program.guess x in
       record (Printf.sprintf "late-%b" ok))
  in
  quiesce w;
  check_all_terminated w;
  Alcotest.(check (list string)) "late guess resolved True" [ "late-true" ] (dump ());
  Alcotest.(check int) "no rollbacks" 0 (counter w "hope.rollbacks")

let test_gc_retire_non_final_rejected () =
  let w = make_world () in
  let aid = Runtime.fresh_aid w.rt () in
  Alcotest.(check bool) "retire on Cold raises" true
    (try
       Aid_machine.retire (Runtime.aid_machine w.rt aid);
       false
     with Invalid_argument _ -> true)

(* ----------------------- buffered denies -------------------------- *)

let buffered_world () =
  make_world
    ~hope_config:{ Runtime.default_config with buffer_speculative_denies = true }
    ()

(* Footnote 1: a deny from a speculative interval is held in IHD and only
   released when the interval finalizes. *)
let test_buffered_deny_released_on_finalize () =
  let w = buffered_world () in
  let boxes = ref [] in
  let affirmer =
    Scheduler.spawn w.sched ~name:"affirmer"
      (let* env = Program.recv () in
       let x = Value.to_aid (Envelope.value env) in
       let* () = Program.compute 0.05 in
       Program.affirm x)
  in
  let _worker =
    Scheduler.spawn w.sched ~name:"worker"
      (let* x = Program.aid_init () in
       let* y = Program.aid_init () in
       let* () = Program.lift (fun () -> boxes := [ x; y ]) in
       let* () = Program.send affirmer (Value.Aid_v x) in
       let* _ = Program.guess x in
       (* speculative: this deny of y must wait for x to resolve *)
       Program.deny y)
  in
  (* Run until just before the affirmer acts: y must still be Hot/Cold. *)
  ignore (Scheduler.run ~until:0.04 w.sched);
  let x, y = match !boxes with [ x; y ] -> (x, y) | _ -> assert false in
  Alcotest.(check string) "y untouched while speculative" "Cold"
    (aid_state_name w y);
  quiesce w;
  Alcotest.(check string) "x affirmed" "True" (aid_state_name w x);
  Alcotest.(check string) "buffered deny released at finalize" "False"
    (aid_state_name w y);
  Alcotest.(check int) "counted as buffered" 1 (counter w "hope.denies_buffered")

(* ... and dropped when the denying interval rolls back. *)
let test_buffered_deny_dropped_on_rollback () =
  let w = buffered_world () in
  let boxes = ref [] in
  let denier =
    Scheduler.spawn w.sched ~name:"denier"
      (let* env = Program.recv () in
       let x = Value.to_aid (Envelope.value env) in
       let* () = Program.compute 0.05 in
       Program.deny x)
  in
  let _worker =
    Scheduler.spawn w.sched ~name:"worker"
      (let* x = Program.aid_init () in
       let* y = Program.aid_init () in
       let* () = Program.lift (fun () -> boxes := [ x; y ]) in
       let* () = Program.send denier (Value.Aid_v x) in
       let* ok = Program.guess x in
       if ok then Program.deny y  (* buffered; the interval will roll back *)
       else Program.return ())
  in
  quiesce w;
  let _, y = match !boxes with [ x; y ] -> (x, y) | _ -> assert false in
  Alcotest.(check string) "buffered deny dropped with its interval" "Cold"
    (aid_state_name w y);
  check_all_terminated w

(* ---------------------- terminal-state cache ---------------------- *)

(* With the cache off, every stale message costs a Guess/Rollback round
   trip; with it on, stale messages are dropped locally. Same program,
   both configurations must converge to the same answer. *)
let cache_scenario ~cache () =
  let w =
    make_world
      ~hope_config:{ Runtime.default_config with cache_terminal_states = cache }
      ()
  in
  let record, dump = recorder () in
  let receiver =
    Scheduler.spawn w.sched ~name:"receiver"
      (Program.repeat 3
         (let* v = Program.recv_value () in
          record (Printf.sprintf "recv-%d" (Value.to_int v))))
  in
  let denier =
    Scheduler.spawn w.sched ~name:"denier"
      (let* env = Program.recv () in
       let x = Value.to_aid (Envelope.value env) in
       let* () = Program.compute 0.05 in
       Program.deny x)
  in
  let _worker =
    Scheduler.spawn w.sched ~name:"worker"
      (let* x = Program.aid_init () in
       let* () = Program.send denier (Value.Aid_v x) in
       let* ok = Program.guess x in
       if ok then
         (* three speculative messages, all doomed *)
         Program.iter_list
           (fun i -> Program.send receiver (Value.Int i))
           [ 1; 2; 3 ]
       else
         Program.iter_list
           (fun i -> Program.send receiver (Value.Int i))
           [ 10; 20; 30 ])
  in
  quiesce w;
  (w, dump ())

let test_cache_same_outcome () =
  let w_on, log_on = cache_scenario ~cache:true () in
  let w_off, log_off = cache_scenario ~cache:false () in
  let tail l = List.filteri (fun i _ -> i >= List.length l - 3) l in
  Alcotest.(check (list string)) "cached run ends right"
    [ "recv-10"; "recv-20"; "recv-30" ] (tail log_on);
  Alcotest.(check (list string)) "uncached run ends right"
    [ "recv-10"; "recv-20"; "recv-30" ] (tail log_off);
  Alcotest.(check bool) "cache drops messages locally" true
    (counter w_on "hope.messages_poisoned_locally" >= 1);
  Alcotest.(check int) "no local drops without cache" 0
    (counter w_off "hope.messages_poisoned_locally");
  Alcotest.(check bool) "cache saves rollbacks" true
    (counter w_on "hope.rollbacks" <= counter w_off "hope.rollbacks")

(* -------------------------- placement ----------------------------- *)

let test_fixed_placement () =
  let w =
    make_world
      ~hope_config:{ Runtime.default_config with aid_placement = Runtime.Fixed_node 7 }
      ()
  in
  let _p =
    Scheduler.spawn w.sched ~node:2 ~name:"p"
      (let* x = Program.aid_init () in
       let* _ = Program.guess x in
       Program.affirm x)
  in
  quiesce w;
  let aids = Runtime.all_aids w.rt in
  Alcotest.(check int) "one aid" 1 (List.length aids);
  let node =
    Hope_net.Network.node_of (Scheduler.network w.sched)
      (Proc_id.to_int (Aid.to_proc (List.hd aids)))
  in
  Alcotest.(check int) "placed on the fixed node" 7 node

let test_colocate_placement () =
  let w = make_world () in
  let _p =
    Scheduler.spawn w.sched ~node:3 ~name:"p"
      (let* x = Program.aid_init () in
       let* _ = Program.guess x in
       Program.affirm x)
  in
  quiesce w;
  let aids = Runtime.all_aids w.rt in
  let node =
    Hope_net.Network.node_of (Scheduler.network w.sched)
      (Proc_id.to_int (Aid.to_proc (List.hd aids)))
  in
  Alcotest.(check int) "colocated with its creator" 3 node

(* -------------------------- cancellation -------------------------- *)

(* A rolled-back speculative sender must retract its messages so its
   re-execution cannot duplicate them: the receiver sees each payload's
   final version exactly once per surviving execution. *)
let test_cancel_retracts_unconsumed () =
  let w = make_world () in
  let record, dump = recorder () in
  (* The receiver only starts consuming long after the denial storm. *)
  let receiver =
    Scheduler.spawn w.sched ~name:"receiver"
      (let* () = Program.compute 0.5 in
       let* v = Program.recv_value () in
       record (Printf.sprintf "got-%d" (Value.to_int v)))
  in
  let denier =
    Scheduler.spawn w.sched ~name:"denier"
      (let* env = Program.recv () in
       let x = Value.to_aid (Envelope.value env) in
       let* () = Program.compute 0.05 in
       Program.deny x)
  in
  let _sender =
    Scheduler.spawn w.sched ~name:"sender"
      (let* x = Program.aid_init () in
       let* () = Program.send denier (Value.Aid_v x) in
       let* ok = Program.guess x in
       if ok then Program.send receiver (Value.Int 1)
       else Program.send receiver (Value.Int 2))
  in
  quiesce w;
  check_all_terminated w;
  (* The speculative Int 1 was cancelled while unconsumed: the receiver
     only ever sees the pessimistic Int 2. *)
  Alcotest.(check (list string)) "only the surviving message" [ "got-2" ] (dump ());
  Alcotest.(check bool) "a cancel was sent" true (counter w "hope.cancels_sent" >= 1);
  check_invariants w

(* A consumed-then-cancelled message rolls its consumer back even though
   the consumer's own tags never contained the denied assumption (the
   sender acquired the rollback cause after the send). *)
let test_cancel_rolls_back_consumer () =
  let w = make_world () in
  let record, dump = recorder () in
  let receiver =
    Scheduler.spawn w.sched ~name:"receiver"
      (let* v = Program.recv_value () in
       let* () = Program.lift (fun () -> ()) in
       record (Printf.sprintf "got-%d" (Value.to_int v)))
  in
  let denier =
    Scheduler.spawn w.sched ~name:"denier"
      (let* env = Program.recv () in
       let x = Value.to_aid (Envelope.value env) in
       let* () = Program.compute 0.05 in
       Program.deny x)
  in
  let _sender =
    Scheduler.spawn w.sched ~name:"sender"
      (let* x = Program.aid_init () in
       let* ok = Program.guess x in
       (* The send precedes any dependence the receiver could see denied:
          x is this sender's own assumption, guessed BEFORE the send, so
          the message tag is {x}... make the hazard real by sending under
          an assumption acquired after: first send clean, then acquire. *)
       let* () =
         if ok then Program.send receiver (Value.Int 7) else Program.return ()
       in
       let* () = Program.send denier (Value.Aid_v x) in
       Program.return ())
  in
  quiesce w;
  let log = dump () in
  (* The receiver consumed 7 under the doomed tag; after the denial the
     sender's pessimistic path sends nothing, so the receiver ends up
     blocked — but it must have UNSEEN the retracted 7 (its final record
     log shows the speculative consumption followed by nothing new). *)
  Alcotest.(check bool) "speculative consumption happened" true
    (List.mem "got-7" log);
  Alcotest.(check bool) "receiver rolled back" true
    (counter w "hope.rollbacks" >= 2);
  ignore receiver;
  check_invariants w

(* ---------------------------- explain ----------------------------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_explain_reconstructs () =
  let w = make_world () in
  let denier =
    Scheduler.spawn w.sched ~name:"denier"
      (let* env = Program.recv () in
       let x = Value.to_aid (Envelope.value env) in
       let* () = Program.compute 0.01 in
       Program.deny x)
  in
  let affirmer =
    Scheduler.spawn w.sched ~name:"affirmer"
      (let* env = Program.recv () in
       let x = Value.to_aid (Envelope.value env) in
       let* () = Program.compute 0.01 in
       Program.affirm x)
  in
  let worker =
    Scheduler.spawn w.sched ~name:"worker"
      (let* good = Program.aid_init () in
       let* () = Program.send affirmer (Value.Aid_v good) in
       let* _ = Program.guess good in
       let* bad = Program.aid_init () in
       let* () = Program.send denier (Value.Aid_v bad) in
       let* ok = Program.guess bad in
       if ok then Program.compute 1.0 else Program.return ())
  in
  quiesce w;
  let ex = Hope_core.Explain.of_runtime w.rt in
  let s = Hope_core.Explain.summary ex in
  Alcotest.(check int) "one rolled back" 1 s.Hope_core.Explain.rolled_back;
  (* Two finalized: the worker's good-guess interval plus the denier's
     implicit interval (the bad-AID announcement was sent while the worker
     was speculative on good, so it was tagged). *)
  Alcotest.(check int) "two finalized" 2 s.Hope_core.Explain.finalized;
  Alcotest.(check int) "none open" 0 s.Hope_core.Explain.still_open;
  Alcotest.(check int) "one true aid" 1 s.Hope_core.Explain.aids_true;
  Alcotest.(check int) "one false aid" 1 s.Hope_core.Explain.aids_false;
  Alcotest.(check (float 0.01)) "2/3 accuracy" (2.0 /. 3.0)
    s.Hope_core.Explain.speculation_accuracy;
  let worker_intervals = Hope_core.Explain.intervals_of ex worker in
  Alcotest.(check int) "worker opened two intervals" 2 (List.length worker_intervals);
  Alcotest.(check bool) "worker listed" true
    (List.exists (Proc_id.equal worker) (Hope_core.Explain.processes ex));
  (* The rendered report is well-formed and mentions both fates. *)
  let rendered = Format.asprintf "%a" Hope_core.Explain.pp ex in
  Alcotest.(check bool) "mentions finalized" true (contains rendered "finalized");
  Alcotest.(check bool) "mentions rolled back" true (contains rendered "rolled back")

(* ---------------------------- invariant --------------------------- *)

(* The Theorem 5.1 check can fire: a clean guess-then-affirm run passes
   it, and flipping the affirmed AID to False afterwards makes the
   finalized interval a violation read off the event log. *)
let test_theorem_5_1_fires () =
  let w = make_world () in
  let x = Runtime.fresh_aid w.rt () in
  let worker =
    Scheduler.spawn w.sched ~name:"worker"
      (let* _ = Program.guess x in
       Program.compute 1.0)
  in
  ignore
    (Scheduler.spawn w.sched ~name:"affirmer"
       (let* () = Program.compute 0.01 in
        Program.affirm x)
      : Proc_id.t);
  quiesce w;
  Alcotest.(check (list string)) "clean run" []
    (List.map (Format.asprintf "%a" Invariant.pp_violation)
       (Invariant.check_theorem_5_1 w.rt));
  (Runtime.aid_machine w.rt x).Aid_machine.state <- Aid_machine.False_;
  let expected =
    Format.asprintf "interval %a finalized but dependency %a ended False"
      Interval_id.pp (Interval_id.make ~owner:worker ~seq:0) Aid.pp x
  in
  Alcotest.(check (list (pair string string))) "one violation"
    [ ("theorem-5.1", expected) ]
    (List.map
       (fun v -> (v.Invariant.check, v.Invariant.detail))
       (Invariant.check_theorem_5_1 w.rt))

let () =
  Alcotest.run "runtime"
    [
      ( "gc",
        [
          test "retires resolved AIDs" test_gc_retires_resolved_aids;
          test "keeps referenced AIDs" test_gc_keeps_referenced_aids;
          test "tombstone answers late guesses" test_gc_tombstone_still_answers;
          test "retire of non-final rejected" test_gc_retire_non_final_rejected;
        ] );
      ( "buffered-denies",
        [
          test "released on finalize" test_buffered_deny_released_on_finalize;
          test "dropped on rollback" test_buffered_deny_dropped_on_rollback;
        ] );
      ("cache", [ test "same outcome with or without" test_cache_same_outcome ]);
      ( "placement",
        [
          test "fixed node" test_fixed_placement;
          test "colocate (default)" test_colocate_placement;
        ] );
      ( "cancellation",
        [
          test "retracts unconsumed speculative sends" test_cancel_retracts_unconsumed;
          test "rolls back the consumer" test_cancel_rolls_back_consumer;
        ] );
      ("explain", [ test "reconstructs interval fates" test_explain_reconstructs ]);
      ("invariant", [ test "theorem 5.1 check fires" test_theorem_5_1_fires ]);
    ]
