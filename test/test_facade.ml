(* The Hope facade: the documented one-dependency entry point works. *)

module Program = Hope.Program
open Program.Syntax

let test name f = Alcotest.test_case name `Quick f

let test_world_roundtrip () =
  let world = Hope.World.create () in
  let got = ref [] in
  let buddy =
    Hope.World.spawn world ~node:1 ~name:"affirmer"
      (let* env = Program.recv () in
       Program.affirm (Hope.Value.to_aid (Hope.Envelope.value env)))
  in
  let _guesser =
    Hope.World.spawn world ~node:0 ~name:"guesser"
      (let* ok, x = Program.guess_new () in
       let* () = Program.send buddy (Hope.Value.Aid_v x) in
       Program.lift (fun () -> got := ok :: !got))
  in
  Hope.World.run_to_quiescence world;
  Hope.World.check_invariants world;
  Alcotest.(check (list bool)) "optimistic once" [ true ] !got;
  let s = Hope.Explain.summary (Hope.World.explain world) in
  (* The guesser's explicit interval, plus the affirmer's implicit one
     (the announcement was sent post-guess, hence tagged). *)
  Alcotest.(check int) "both intervals finalized" 2 s.Hope.Explain.finalized;
  Alcotest.(check int) "nothing rolled back" 0 s.Hope.Explain.rolled_back

let test_world_custom_config () =
  let world =
    Hope.World.create ~seed:7 ~latency:Hope.Latency.wan
      ~sched_config:Hope.Scheduler.epoch_1995_config
      ~hope_config:
        { Hope.Runtime.default_config with algorithm = Hope.Control.Algorithm_1 }
      ()
  in
  (* Note: no affirms here — a self-affirm would be a self-cycle, which
     Algorithm 1 (deliberately selected above) cannot resolve. *)
  let _p =
    Hope.World.spawn world ~name:"p"
      (let* _ok, _x = Program.guess_new () in
       Program.return ())
  in
  Hope.World.run_to_quiescence world;
  Alcotest.(check bool) "configured runtime in use" true
    ((Hope.Runtime.config world.Hope.World.runtime).Hope.Runtime.algorithm
    = Hope.Control.Algorithm_1)

(* The harness's failure paths: each raises [Failure] whose message
   names what went wrong, for the workload drivers to surface. *)

let failure_message f =
  match f () with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure msg -> msg

let check_mentions msg words =
  List.iter
    (fun w ->
      let n = String.length w in
      let rec found i =
        i + n <= String.length msg && (String.sub msg i n = w || found (i + 1))
      in
      if not (found 0) then Alcotest.failf "%S does not mention %S" msg w)
    words

let test_world_unresolved_guess_fails_invariants () =
  let world = Hope.World.create () in
  let _p =
    Hope.World.spawn world ~name:"hopeful"
      (let* _ok, _x = Program.guess_new () in
       Program.return ())
  in
  Hope.World.run_to_quiescence world;
  check_mentions
    (failure_message (fun () -> Hope.World.check_invariants ~what:"hopeful" world))
    [ "hopeful"; "quiescence" ]

let test_world_event_limit_fails () =
  let world = Hope.World.create () in
  let rec spin () =
    let* () = Program.compute 1.0 in
    spin ()
  in
  let _p = Hope.World.spawn world ~name:"spinner" (spin ()) in
  check_mentions
    (failure_message (fun () ->
         Hope.World.run_to_quiescence ~what:"spinner" ~max_events:100 world))
    [ "spinner"; "event-limit" ]

let test_world_makespan_names_unfinished () =
  let world = Hope.World.create () in
  let waiter =
    Hope.World.spawn world ~name:"waiter"
      (let* _ = Program.recv () in
       Program.return ())
  in
  Hope.World.run_to_quiescence world;
  check_mentions
    (failure_message (fun () ->
         ignore (Hope.World.makespan ~what:"waiters" world [ waiter ] : float)))
    [ "waiters"; Hope.Proc_id.to_string waiter; "blocked" ]

let () =
  Alcotest.run "facade"
    [
      ( "world",
        [
          test "spawn, run, explain" test_world_roundtrip;
          test "custom configuration" test_world_custom_config;
          test "unresolved guess fails the invariants"
            test_world_unresolved_guess_fails_invariants;
          test "event limit fails quiescence" test_world_event_limit_fails;
          test "makespan names an unfinished process"
            test_world_makespan_names_unfinished;
        ] );
    ]
