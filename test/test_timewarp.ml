(* Tests for the Time Warp baseline: correctness against the sequential
   reference across seeds and parameters, plus targeted straggler and
   anti-message scenarios. *)

module Engine = Hope_sim.Engine
module Timewarp = Hope_timewarp.Timewarp
module Latency = Hope_net.Latency
module Phold = Hope_workloads.Phold

let test name f = Alcotest.test_case name `Quick f

(* A trivially checkable model: each LP counts events and records the
   timestamps it processed, in order. *)
type probe = { count : int; stamps : float list }

let probe_model ~n_lps ~hop =
  {
    Timewarp.init = (fun _ -> { count = 0; stamps = [] });
    handle =
      (fun ~lp ~ts st n ->
        let st' = { count = st.count + 1; stamps = ts :: st.stamps } in
        if n <= 0 then (st', [])
        else (st', [ ((lp + 1) mod n_lps, ts +. hop, n - 1) ]));
  }

let run_probe ?(latency = Latency.lan) ~n_lps ~hop ~seeds () =
  let engine = Engine.create ~seed:5 () in
  let cfg =
    {
      Timewarp.n_lps;
      physical_latency = latency;
      event_cost = 10e-6;
      gvt_interval = 1e-3;
      horizon = 1e9;
    }
  in
  let tw = Timewarp.create ~engine cfg (probe_model ~n_lps ~hop) in
  List.iter (fun (dst, ts, n) -> Timewarp.inject tw ~dst ~ts n) seeds;
  Alcotest.(check bool) "quiesced" true (Timewarp.run tw = Engine.Quiescent);
  tw

let test_single_chain_in_order () =
  let tw = run_probe ~n_lps:3 ~hop:1.0 ~seeds:[ (0, 1.0, 8) ] () in
  (* 9 events total, one per LP per visit, timestamps 1..9. *)
  let st = Timewarp.stats tw in
  Alcotest.(check int) "committed all" 9 st.Timewarp.committed;
  let all_stamps =
    List.concat_map
      (fun i -> List.rev (Timewarp.state_of tw i).stamps)
      [ 0; 1; 2 ]
  in
  Alcotest.(check int) "9 stamps" 9 (List.length all_stamps);
  List.iter
    (fun i ->
      let st = Timewarp.state_of tw i in
      let increasing =
        let rec check = function
          | a :: (b :: _ as rest) -> a > b && check rest
          | _ -> true
        in
        check st.stamps
      in
      Alcotest.(check bool) "per-LP timestamps strictly increase" true increasing)
    [ 0; 1; 2 ]

let test_straggler_forced () =
  (* Two seeds to the same LP: a fast one at ts=10 and, arriving much
     later physically (slow link), one at ts=1 — a guaranteed straggler
     once LP 0 has raced ahead. *)
  let engine = Engine.create ~seed:6 () in
  let cfg =
    {
      Timewarp.n_lps = 2;
      physical_latency = Latency.Constant 1e-3;
      event_cost = 1e-6;
      gvt_interval = 1e-3;
      horizon = 1e9;
    }
  in
  let model =
    {
      Timewarp.init = (fun _ -> { count = 0; stamps = [] });
      handle =
        (fun ~lp:_ ~ts st n ->
          ({ count = st.count + 1; stamps = ts :: st.stamps },
           if n > 0 then [ (1, ts +. 0.5, n - 1) ] else []));
    }
  in
  let tw = Timewarp.create ~engine cfg model in
  Timewarp.inject tw ~dst:0 ~ts:10.0 3;
  (* Let LP 0 process ts=10 and send downstream work first. *)
  ignore (Engine.run ~until:0.01 engine);
  Timewarp.inject tw ~dst:0 ~ts:1.0 0;
  Alcotest.(check bool) "quiesced" true (Timewarp.run tw = Engine.Quiescent);
  let st = Timewarp.stats tw in
  Alcotest.(check bool) "a rollback happened" true (st.Timewarp.rollbacks >= 1);
  let lp0 = Timewarp.state_of tw 0 in
  Alcotest.(check (list (float 1e-9))) "LP0 processed in timestamp order"
    [ 1.0; 10.0 ] (List.rev lp0.stamps)

let test_phold_matches_sequential_many_seeds () =
  List.iter
    (fun seed ->
      List.iter
        (fun remote_prob ->
          let p =
            { Phold.default_params with remote_prob; jobs = 6; horizon = 8.0 }
          in
          let seq = Phold.run_sequential p in
          let tw = Phold.run_timewarp ~seed p in
          Alcotest.(check bool)
            (Printf.sprintf "checksums agree (seed=%d remote=%.1f)" seed remote_prob)
            true
            (tw.Phold.checksums = seq.Phold.checksums);
          Alcotest.(check int)
            (Printf.sprintf "event counts agree (seed=%d remote=%.1f)" seed
               remote_prob)
            seq.Phold.handled_total tw.Phold.handled_total)
        [ 0.2; 0.8 ])
    [ 1; 2; 3; 4; 5 ]

let test_phold_hope_matches_sequential () =
  List.iter
    (fun seed ->
      let p = { Phold.default_params with jobs = 5; horizon = 6.0 } in
      let seq = Phold.run_sequential p in
      let hope = Phold.run_hope ~seed p in
      Alcotest.(check bool)
        (Printf.sprintf "hope checksums agree (seed=%d)" seed)
        true
        (hope.Phold.checksums = seq.Phold.checksums))
    [ 1; 2; 3 ]

(* The whole outcome of one Time Warp run, pinned (floats exactly): the
   engine events behind [kick], [send_event] and [send_anti] must pop in
   the same order, so counts, physical time and every LP's checksum
   cannot move. The values are those of hope_sim's
   [phold --engine timewarp --horizon 40 --lps 16 --jobs 64]. *)
let test_phold_timewarp_outcome_pinned () =
  let o =
    Phold.run_timewarp ~seed:42
      { Phold.default_params with n_lps = 16; jobs = 64; horizon = 40.0 }
  in
  Alcotest.(check (array int)) "checksums"
    [|
      942868193; 875371419; 270055739; 509838179; 867216135; 420333854;
      627137181; 439842906; 556532009; 470564714; 764205577; 986995772;
      976580061; 504577353; 370713547; 413805328;
    |]
    o.Phold.checksums;
  Alcotest.(check int) "committed events" 2618 o.Phold.handled_total;
  Alcotest.(check int) "executed" 5909 o.Phold.processed;
  Alcotest.(check int) "rollbacks" 1822 o.Phold.rollbacks;
  Alcotest.(check int) "messages" 5843 o.Phold.messages;
  Alcotest.(check (float 0.0)) "physical time" 0x1.bb81212b918b9p-6
    o.Phold.physical_time

let test_output_timestamp_validation () =
  let engine = Engine.create ~seed:8 () in
  let bad_model =
    {
      Timewarp.init = (fun _ -> ());
      handle = (fun ~lp:_ ~ts st () -> (st, [ (0, ts, ()) ]));
    }
  in
  let tw = Timewarp.create ~engine Timewarp.default_config bad_model in
  Timewarp.inject tw ~dst:0 ~ts:1.0 ();
  Alcotest.(check bool) "zero-delay output rejected" true
    (try
       ignore (Timewarp.run tw);
       false
     with Invalid_argument _ -> true)

let test_sequential_reference () =
  let model = probe_model ~n_lps:2 ~hop:1.0 in
  let r = Timewarp.Sequential.run model ~n_lps:2 ~horizon:100.0 ~seeds:[ (0, 1.0, 4) ] in
  Alcotest.(check int) "five events" 5 r.Timewarp.Sequential.events;
  Alcotest.(check int) "lp0 handled 3" 3 r.states.(0).count;
  Alcotest.(check int) "lp1 handled 2" 2 r.states.(1).count

let test_horizon_cuts_outputs () =
  let model = probe_model ~n_lps:2 ~hop:1.0 in
  let r = Timewarp.Sequential.run model ~n_lps:2 ~horizon:3.0 ~seeds:[ (0, 1.0, 100) ] in
  Alcotest.(check int) "only events within the horizon" 3 r.Timewarp.Sequential.events

let () =
  Alcotest.run "timewarp"
    [
      ( "mechanics",
        [
          test "single chain processes in order" test_single_chain_in_order;
          test "forced straggler rolls back" test_straggler_forced;
          test "output timestamp validated" test_output_timestamp_validation;
          test "16-LP PHOLD outcome pinned" test_phold_timewarp_outcome_pinned;
        ] );
      ( "reference",
        [
          test "sequential reference" test_sequential_reference;
          test "horizon cuts outputs" test_horizon_cuts_outputs;
        ] );
      ( "agreement",
        [
          test "PHOLD matches sequential across seeds"
            test_phold_matches_sequential_many_seeds;
          test "HOPE-expressed PHOLD matches sequential"
            test_phold_hope_matches_sequential;
        ] );
    ]
