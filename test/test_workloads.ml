(* Integration tests over the experiment workloads: both protocol variants
   complete, the invariants hold, and the headline shape claims of the
   paper hold at the test scale. *)

module Report = Hope_workloads.Report
module Pipeline = Hope_workloads.Pipeline
module Replication = Hope_workloads.Replication
module Phold = Hope_workloads.Phold
module Job = Hope_workloads.Job
module Recovery = Hope_workloads.Recovery
module Scientific = Hope_workloads.Scientific
module Occ = Hope_workloads.Occ
module Latency = Hope_net.Latency
module Runtime = Hope_core.Runtime
module Invariant = Hope_core.Invariant
module Explain = Hope_core.Explain

let test name f = Alcotest.test_case name `Quick f

(* --------------------------- report ------------------------------- *)

let small_report = { Report.default_params with sections = 10 }

let test_report_both_modes_complete () =
  let pess = Report.run ~mode:`Pessimistic small_report in
  let opt = Report.run ~mode:`Optimistic small_report in
  Alcotest.(check bool) "pessimistic makes progress" true
    (pess.Report.completion_time > 0.0);
  Alcotest.(check bool) "optimistic makes progress" true
    (opt.Report.completion_time > 0.0);
  Alcotest.(check int) "pessimistic never guesses" 0 pess.Report.guesses;
  Alcotest.(check bool) "optimistic guesses" true (opt.Report.guesses > 0)

let test_report_optimism_wins_on_wan () =
  let pess = Report.run ~latency:Latency.wan ~mode:`Pessimistic small_report in
  let opt = Report.run ~latency:Latency.wan ~mode:`Optimistic small_report in
  Alcotest.(check bool) "optimistic at least 2x faster on WAN" true
    (opt.Report.completion_time *. 2.0 < pess.Report.completion_time)

let test_report_savings_grow_with_latency () =
  let saving latency =
    let pess = Report.run ~latency ~mode:`Pessimistic small_report in
    let opt = Report.run ~latency ~mode:`Optimistic small_report in
    1.0 -. (opt.Report.completion_time /. pess.Report.completion_time)
  in
  let lan = saving Latency.lan and wan = saving Latency.wan in
  Alcotest.(check bool)
    (Printf.sprintf "wan saving (%.2f) exceeds lan saving (%.2f)" wan lan)
    true (wan > lan)

let test_report_rollbacks_match_page_breaks () =
  (* page_size 4 with 2 lines/section: a break every 2 sections. *)
  let p = { Report.default_params with sections = 10; page_size = 4 } in
  let opt = Report.run ~mode:`Optimistic p in
  Alcotest.(check bool)
    (Printf.sprintf "rollbacks (%d) at least the break count" opt.Report.rollbacks)
    true
    (opt.Report.rollbacks >= 4)

let test_report_non_fifo_repairs_ordering () =
  (* A reordering network makes S3 overtake S1 sometimes; the Order
     assumption must catch every overtaking, and the run must still
     converge with all invariants intact (Report.run checks them). *)
  let jittery = Latency.Lognormal { median = 2e-3; sigma = 0.8 } in
  let r = Report.run ~latency:jittery ~fifo:false ~mode:`Optimistic small_report in
  Alcotest.(check bool) "violations detected" true (r.Report.order_violations > 0);
  Alcotest.(check bool) "repaired by rollbacks" true
    (r.Report.rollbacks >= r.Report.order_violations);
  let fifo = Report.run ~latency:jittery ~fifo:true ~mode:`Optimistic small_report in
  Alcotest.(check int) "no violations on FIFO networks" 0
    fifo.Report.order_violations

(* Property: the report workload converges and holds the invariants for
   arbitrary parameter combinations (Report.run checks invariants
   internally and raises on violation or non-quiescence). *)
let qcheck_report_any_params =
  QCheck.Test.make ~name:"report: converges for any parameters" ~count:25
    QCheck.(triple (int_range 1 1000) (int_range 1 12) (int_range 2 30))
    (fun (seed, sections, page_size) ->
      let p = { Report.default_params with sections; page_size } in
      let r = Report.run ~seed ~mode:`Optimistic p in
      r.Report.completion_time > 0.0)

let test_report_deterministic () =
  let a = Report.run ~seed:9 ~mode:`Optimistic small_report in
  let b = Report.run ~seed:9 ~mode:`Optimistic small_report in
  Alcotest.(check (float 0.0)) "same completion time" a.Report.completion_time
    b.Report.completion_time;
  Alcotest.(check int) "same message count" a.Report.messages b.Report.messages

let export_digest fmt obs =
  Digest.to_hex
    (Digest.string (Hope_obs.Obs.export_string fmt (Hope_obs.Recorder.events obs)))

(* The whole optimistic WAN trace, pinned: every message the AID machines
   broadcast appears in it in emission order, so a change to DOM's
   representation or broadcast order changes this digest. The summary
   digest pins every number the Analytics report prints for the run.
   Regenerate a constant only for a change that means to alter it. *)
let test_report_wan_trace_pinned () =
  let obs = Hope_obs.Recorder.create () in
  Hope_obs.Recorder.enable obs;
  let p = { Report.default_params with sections = 12 } in
  ignore (Report.run ~seed:42 ~obs ~latency:Latency.wan ~mode:`Optimistic p : Report.result);
  Alcotest.(check string)
    "chrome trace digest" "41fb32d267682e459005cafaae1dcdba"
    (export_digest Hope_obs.Obs.Chrome obs);
  Alcotest.(check string)
    "summary digest" "a767c0a311e6972d5a98c491bf659186"
    (export_digest Hope_obs.Obs.Summary obs)

let explain_digest = Test_support.Util.explain_digest

(* The same 12-section WAN run's speculation report, pinned. *)
let test_report_wan_explain_pinned () =
  let digest = ref "" in
  let p = { Report.default_params with sections = 12 } in
  ignore
    (Report.run ~seed:42 ~latency:Latency.wan ~mode:`Optimistic
       ~on_quiescence:(fun rt -> digest := explain_digest rt)
       p
      : Report.result);
  Alcotest.(check string) "explain digest" "4ed71cf2880943fa3234e5b041df717c"
    !digest

(* --------------------------- pipeline ----------------------------- *)

let small_pipeline = { Pipeline.default_params with tasks = 20 }

let test_pipeline_perfect_accuracy_no_rollbacks () =
  let p = { small_pipeline with accuracy = 1.0 } in
  let r = Pipeline.run ~mode:(Pipeline.Speculative None) p in
  Alcotest.(check int) "no rollbacks" 0 r.Pipeline.rollbacks;
  Alcotest.(check int) "no denials" 0 r.Pipeline.denials

let test_pipeline_speculation_wins_at_high_accuracy () =
  let p = { small_pipeline with accuracy = 0.95 } in
  let pess = Pipeline.run ~mode:Pipeline.Pessimistic p in
  let spec = Pipeline.run ~mode:(Pipeline.Speculative None) p in
  Alcotest.(check bool) "speculation faster" true
    (spec.Pipeline.completion_time < pess.Pipeline.completion_time)

let test_pipeline_crossover_exists () =
  let at accuracy =
    let p = { small_pipeline with accuracy } in
    let pess = Pipeline.run ~mode:Pipeline.Pessimistic p in
    let spec = Pipeline.run ~mode:(Pipeline.Speculative None) p in
    spec.Pipeline.completion_time /. pess.Pipeline.completion_time
  in
  Alcotest.(check bool) "wins when right" true (at 0.95 < 1.0);
  Alcotest.(check bool) "degrades when wrong" true (at 0.1 > at 0.95)

let test_pipeline_window_ordering () =
  let p = { small_pipeline with accuracy = 1.0 } in
  let time window =
    (Pipeline.run ~mode:(Pipeline.Speculative window) p).Pipeline.completion_time
  in
  let unbounded = time None and w1 = time (Some 1) in
  Alcotest.(check bool)
    (Printf.sprintf "unbounded (%.4f) beats window=1 (%.4f)" unbounded w1)
    true (unbounded < w1)

let test_pipeline_same_fates_across_modes () =
  let p = { small_pipeline with accuracy = 0.7 } in
  let pess = Pipeline.run ~mode:Pipeline.Pessimistic p in
  let spec = Pipeline.run ~mode:(Pipeline.Speculative None) p in
  (* The pessimistic run validates each task exactly once, so its denial
     count is the ground-truth number of bad tasks; the speculative run
     can only see more (re-validation after cascaded rollbacks). *)
  Alcotest.(check bool) "speculative denials >= ground truth" true
    (spec.Pipeline.denials >= pess.Pipeline.denials);
  Alcotest.(check bool) "ground truth positive at 70%" true
    (pess.Pipeline.denials > 0)

(* -------------------------- replication --------------------------- *)

let small_replication = { Replication.default_params with replicas = 2; updates = 10 }

let test_replication_zero_conflicts_clean () =
  let p = { small_replication with conflict_rate = 0.0 } in
  let r = Replication.run ~mode:`Optimistic p in
  Alcotest.(check int) "no rollbacks" 0 r.Replication.rollbacks;
  Alcotest.(check int) "no conflicts" 0 r.Replication.conflicts

let test_replication_optimism_wins_when_clean () =
  let p = { small_replication with conflict_rate = 0.0 } in
  let pess = Replication.run ~mode:`Pessimistic p in
  let opt = Replication.run ~mode:`Optimistic p in
  Alcotest.(check bool) "optimistic throughput higher" true
    (opt.Replication.throughput > pess.Replication.throughput)

let test_replication_conflicts_hurt () =
  let clean =
    Replication.run ~mode:`Optimistic { small_replication with conflict_rate = 0.0 }
  in
  let dirty =
    Replication.run ~mode:`Optimistic { small_replication with conflict_rate = 0.4 }
  in
  Alcotest.(check bool) "conflicts reduce throughput" true
    (dirty.Replication.throughput < clean.Replication.throughput);
  Alcotest.(check bool) "rollbacks happened" true (dirty.Replication.rollbacks > 0)

(* ----------------------------- phold ------------------------------ *)

let small_phold = { Phold.default_params with jobs = 5; horizon = 5.0 }

let test_phold_three_engines_agree () =
  let seq = Phold.run_sequential small_phold in
  let tw = Phold.run_timewarp small_phold in
  let hope = Phold.run_hope small_phold in
  Alcotest.(check bool) "tw = seq" true (tw.Phold.checksums = seq.Phold.checksums);
  Alcotest.(check bool) "hope = seq" true (hope.Phold.checksums = seq.Phold.checksums);
  Alcotest.(check int) "tw events" seq.Phold.handled_total tw.Phold.handled_total;
  Alcotest.(check int) "hope events" seq.Phold.handled_total hope.Phold.handled_total

(* The CLI's `phold --engine hope --horizon 4`: its flush resolves the
   LPs' self-cycles through tens of thousands of Algorithm 2 cuts. *)
let cut_phold = { Phold.default_params with horizon = 4.0 }

(* Every cut is counted, but an interval's [cut] flag records only that
   it was cut: the readers of the histories (Invariant, Explain) ask no
   more. The run's explain report is pinned too. *)
let test_phold_cut_logged_once () =
  let rt = ref None in
  ignore
    (Phold.run_hope ~seed:42 ~on_setup:(fun r -> rt := Some r) cut_phold
      : Phold.outcome);
  let rt = Option.get !rt in
  let s = Explain.summary (Explain.of_runtime rt) in
  Alcotest.(check int) "every cut counted" 23_441 (Runtime.cycle_cuts rt);
  Alcotest.(check int) "intervals opened" 89 s.Explain.intervals;
  Alcotest.(check int) "intervals with a cut" 54 s.Explain.cut_intervals;
  Alcotest.(check string) "explain digest" "18555bf6f63611c21811168a37457795"
    (explain_digest rt);
  Alcotest.(check (list string)) "invariants hold" []
    (List.map (Format.asprintf "%a" Invariant.pp_violation) (Invariant.check_all rt))

(* The same run's chrome trace, pinned: it carries every Cycle_cut event
   in emission order, so a change to which candidates a Replace cuts, or
   in what order, changes this digest. The summary digest pins the
   Analytics report of the run. Regenerate a constant only for a change
   that means to alter it. *)
let test_phold_cut_trace_pinned () =
  let obs = Hope_obs.Recorder.create () in
  Hope_obs.Recorder.enable obs;
  ignore (Phold.run_hope ~seed:42 ~obs cut_phold : Phold.outcome);
  Alcotest.(check string)
    "chrome trace digest" "72c5ba6fd4c2c13dda3b2c2da93dcef7"
    (export_digest Hope_obs.Obs.Chrome obs);
  Alcotest.(check string)
    "summary digest" "6aee4a6f6e9e312b188f4d9331552039"
    (export_digest Hope_obs.Obs.Summary obs)

(* phold-hope's shape (the bench workload): at horizon 15 every Replace
   that finds its sender carries 101-112 replacement AIDs, a bitset,
   while those of the horizon-4 runs above carry 13-30, an array. Pinned:
   the cut count, the explain report, and the order of the run's
   Cycle_cut (iid, aid) stream, folded by a tap as it is emitted.
   Regenerate a constant only for a change that means to alter it. *)
let bitset_phold = { Phold.default_params with horizon = 15.0 }

let test_phold_bitset_cuts_pinned () =
  let obs = Hope_obs.Recorder.create () in
  let stream = Test_support.Util.cut_stream () in
  Hope_obs.Recorder.set_tap obs stream.observe;
  let rt = ref None in
  ignore
    (Phold.run_hope ~seed:42 ~obs ~on_setup:(fun r -> rt := Some r) bitset_phold
      : Phold.outcome);
  let rt = Option.get !rt in
  Alcotest.(check int) "every cut counted" 1_379_539 (Runtime.cycle_cuts rt);
  Alcotest.(check int) "every cut reported" (Runtime.cycle_cuts rt)
    (stream.cuts ());
  Alcotest.(check string)
    "cut stream digest" "6227189ab5449fe83f32888832de3045" (stream.digest ());
  Alcotest.(check string)
    "explain digest" "7ad345290a0475c80b00aede1b7e34d2" (explain_digest rt)

(* Two runtimes on two domains at once: hope_bench's phold-hope shape (4
   LPs, 8 jobs, horizon 15, LAN) and its callstream-wan shape (120
   sections, WAN, optimistic), released together by a start barrier.
   Each must reproduce its sequential run, by the fingerprint hope_bench
   prints plus the explain digest: the runtimes share no mutable state.
   Both shapes are kept whole (about a second a round); much smaller runs
   rarely overlap long enough to expose a shared table. *)
let phold_hope_shape =
  { Phold.default_params with n_lps = 4; jobs = 8; horizon = 15.0; latency = Latency.lan }

let callstream_wan_shape = { Report.default_params with sections = 120; page_size = 20 }

let phold_hope_fingerprint () =
  let rt = ref None in
  let o = Phold.run_hope ~seed:42 ~on_setup:(fun r -> rt := Some r) phold_hope_shape in
  Printf.sprintf "time=%h processed=%d rollbacks=%d messages=%d explain=%s"
    o.Phold.physical_time o.processed o.rollbacks o.messages
    (explain_digest (Option.get !rt))

let callstream_wan_fingerprint () =
  let digest = ref "" in
  let r =
    Report.run ~seed:42 ~latency:Latency.wan ~mode:`Optimistic
      ~on_quiescence:(fun rt -> digest := explain_digest rt)
      callstream_wan_shape
  in
  Printf.sprintf "completion=%h rollbacks=%d messages=%d guesses=%d explain=%s"
    r.Report.completion_time r.rollbacks r.messages r.guesses !digest

let test_two_runtimes_two_domains () =
  let phold_seq = phold_hope_fingerprint () in
  let callstream_seq = callstream_wan_fingerprint () in
  for round = 1 to 3 do
    let arrived = Atomic.make 0 in
    let after_barrier f () =
      Atomic.incr arrived;
      while Atomic.get arrived < 2 do
        Domain.cpu_relax ()
      done;
      f ()
    in
    let other = Domain.spawn (after_barrier phold_hope_fingerprint) in
    let callstream = after_barrier callstream_wan_fingerprint () in
    let phold = Domain.join other in
    Alcotest.(check string) (Printf.sprintf "round %d: phold-hope" round) phold_seq phold;
    Alcotest.(check string)
      (Printf.sprintf "round %d: callstream-wan" round)
      callstream_seq callstream
  done

let test_job_routing_deterministic () =
  let j = { Job.job_id = 3; hop = 7 } in
  let a = Job.route ~n_lps:8 ~mean_delay:1.0 ~remote_prob:0.5 ~from_lp:2 j in
  let b = Job.route ~n_lps:8 ~mean_delay:1.0 ~remote_prob:0.5 ~from_lp:2 j in
  Alcotest.(check bool) "same (delay, dest)" true (a = b)

let qcheck_job_route_valid =
  QCheck.Test.make ~name:"job: route destination in range, delay positive" ~count:300
    QCheck.(triple small_nat small_nat (int_range 1 16))
    (fun (job_id, hop, n_lps) ->
      let delay, dest =
        Job.route ~n_lps ~mean_delay:1.0 ~remote_prob:0.5 ~from_lp:0
          { Job.job_id; hop }
      in
      delay > 0.0 && dest >= 0 && dest < n_lps)

(* ---------------------------- recovery ---------------------------- *)

let small_recovery = { Recovery.default_params with messages = 10 }

let test_recovery_no_crashes_clean () =
  let p = { small_recovery with crash_rate = 0.0 } in
  let r = Recovery.run ~mode:`Optimistic p in
  Alcotest.(check int) "no rollbacks" 0 r.Recovery.rollbacks;
  Alcotest.(check int) "no crashes" 0 r.Recovery.crashes

let test_recovery_optimism_wins_when_stable () =
  let p = { small_recovery with crash_rate = 0.0 } in
  let pess = Recovery.run ~mode:`Pessimistic p in
  let opt = Recovery.run ~mode:`Optimistic p in
  Alcotest.(check bool) "optimistic logging faster" true
    (opt.Recovery.makespan < pess.Recovery.makespan)

let test_recovery_survives_crashes () =
  let p = { small_recovery with crash_rate = 0.3 } in
  let r = Recovery.run ~mode:`Optimistic p in
  (* The receiver applied all messages (run completed) despite crashes. *)
  Alcotest.(check bool) "crashes occurred" true (r.Recovery.crashes > 0);
  Alcotest.(check bool) "recovered via rollback" true (r.Recovery.rollbacks > 0)

let test_recovery_same_crash_fates () =
  (* Both protocols must see the same first-attempt crash fates. *)
  let p = { small_recovery with crash_rate = 0.3 } in
  let pess = Recovery.run ~mode:`Pessimistic p in
  let opt = Recovery.run ~mode:`Optimistic p in
  Alcotest.(check int) "same crash count" pess.Recovery.crashes opt.Recovery.crashes

(* --------------------------- scientific --------------------------- *)

let small_scientific = { Scientific.default_params with workers = 2; converge_at = 5 }

let test_scientific_converges () =
  let r = Scientific.run ~mode:`Optimistic small_scientific in
  Alcotest.(check bool) "finished" true (r.Scientific.makespan > 0.0);
  Alcotest.(check bool) "rolled back the overshoot" true (r.Scientific.rollbacks > 0)

let test_scientific_speedup_grows_with_latency () =
  let speedup latency =
    let pess = Scientific.run ~latency ~mode:`Pessimistic small_scientific in
    let opt = Scientific.run ~latency ~mode:`Optimistic small_scientific in
    pess.Scientific.makespan /. opt.Scientific.makespan
  in
  let lan = speedup Latency.lan and wan = speedup Latency.wan in
  Alcotest.(check bool)
    (Printf.sprintf "wan speedup (%.2f) exceeds lan speedup (%.2f)" wan lan)
    true (wan > lan)

let test_scientific_waste_adapts_to_latency () =
  let waste latency =
    (Scientific.run ~latency ~mode:`Optimistic small_scientific)
      .Scientific.wasted_iterations
  in
  Alcotest.(check bool) "deeper overshoot on slower networks" true
    (waste Latency.wan > waste Latency.lan)

(* ------------------------------ OCC -------------------------------- *)

let small_occ = { Occ.default_params with clients = 2; transactions = 6 }

(* Occ.run itself raises when the final store state disagrees with the
   committed write count, so these tests double as serializability
   checks. *)
let test_occ_uncontended () =
  let p = { small_occ with keys = 512 } in
  let pess = Occ.run ~mode:`Pessimistic p in
  let opt = Occ.run ~mode:`Optimistic p in
  Alcotest.(check int) "no aborts" 0 opt.Occ.aborts;
  Alcotest.(check int) "same committed writes" pess.Occ.version_sum
    opt.Occ.version_sum;
  Alcotest.(check bool) "OCC faster without contention" true
    (opt.Occ.makespan < pess.Occ.makespan)

let test_occ_contended_still_serializable () =
  (* keys=4 with 2 clients x 6 txns: heavy contention; Occ.run validates
     the version sum internally. *)
  let p = { small_occ with keys = 4 } in
  let opt = Occ.run ~mode:`Optimistic p in
  Alcotest.(check bool) "aborts happened" true (opt.Occ.aborts > 0);
  Alcotest.(check bool) "rollbacks repaired them" true (opt.Occ.rollbacks > 0);
  let pess = Occ.run ~mode:`Pessimistic p in
  Alcotest.(check int) "same committed writes" pess.Occ.version_sum
    opt.Occ.version_sum

let test_occ_deterministic () =
  let a = Occ.run ~seed:3 ~mode:`Optimistic small_occ in
  let b = Occ.run ~seed:3 ~mode:`Optimistic small_occ in
  Alcotest.(check bool) "identical runs" true (a = b)

(* Hybrid at high zipf skew: the self-installed hybrid governor
   escalates the hot guard, guesses park in its acquisition queue, and
   the validation-conflict storm collapses — while the committed writes
   stay exactly serializable (Occ.run checks the version sum itself). *)
let test_occ_hybrid_escalates_under_skew () =
  let p =
    {
      Occ.default_params with
      clients = 4;
      transactions = 10;
      keys = 16;
      skew = 2.0;
      think_time = 2e-3;
      store_cost = 0.5e-3;
    }
  in
  let opt = Occ.run ~mode:`Optimistic p in
  let hyb = Occ.run ~mode:`Hybrid p in
  Alcotest.(check int) "same committed writes" opt.Occ.version_sum
    hyb.Occ.version_sum;
  Alcotest.(check bool) "hot guard escalated" true (hyb.Occ.escalations >= 1);
  Alcotest.(check bool) "guesses parked in the queue" true
    (hyb.Occ.acquire_waits >= 1);
  Alcotest.(check bool) "conflict storm damped" true
    (hyb.Occ.aborts < opt.Occ.aborts)

(* At zero skew the guards stay optimistic: no escalations, and the
   guard guesses cost only wait-free message overhead. *)
let test_occ_hybrid_idle_at_uniform_load () =
  let p = { small_occ with keys = 64 } in
  let opt = Occ.run ~mode:`Optimistic p in
  let hyb = Occ.run ~mode:`Hybrid p in
  Alcotest.(check int) "same committed writes" opt.Occ.version_sum
    hyb.Occ.version_sum;
  Alcotest.(check int) "no escalations" 0 hyb.Occ.escalations;
  Alcotest.(check int) "no queued waits" 0 hyb.Occ.acquire_waits

let () =
  Alcotest.run "workloads"
    [
      ( "report",
        [
          test "both modes complete" test_report_both_modes_complete;
          test "optimism wins on WAN" test_report_optimism_wins_on_wan;
          test "savings grow with latency" test_report_savings_grow_with_latency;
          test "rollbacks track page breaks" test_report_rollbacks_match_page_breaks;
          test "non-FIFO ordering repaired" test_report_non_fifo_repairs_ordering;
          test "deterministic" test_report_deterministic;
          test "WAN chrome trace pinned" test_report_wan_trace_pinned;
          test "WAN explain report pinned" test_report_wan_explain_pinned;
          QCheck_alcotest.to_alcotest qcheck_report_any_params;
        ] );
      ( "pipeline",
        [
          test "perfect accuracy is rollback-free"
            test_pipeline_perfect_accuracy_no_rollbacks;
          test "speculation wins at high accuracy"
            test_pipeline_speculation_wins_at_high_accuracy;
          test "crossover exists" test_pipeline_crossover_exists;
          test "unbounded beats window=1" test_pipeline_window_ordering;
          test "fates consistent across modes" test_pipeline_same_fates_across_modes;
        ] );
      ( "replication",
        [
          test "zero conflicts is clean" test_replication_zero_conflicts_clean;
          test "optimism wins when clean" test_replication_optimism_wins_when_clean;
          test "conflicts hurt" test_replication_conflicts_hurt;
        ] );
      ( "phold",
        [
          test "three engines agree" test_phold_three_engines_agree;
          test "cycle cut logged once per interval" test_phold_cut_logged_once;
          test "cut-heavy chrome trace pinned" test_phold_cut_trace_pinned;
          test "bitset-layout cut stream pinned" test_phold_bitset_cuts_pinned;
          test "job routing deterministic" test_job_routing_deterministic;
          QCheck_alcotest.to_alcotest qcheck_job_route_valid;
        ] );
      ( "recovery",
        [
          test "no crashes is clean" test_recovery_no_crashes_clean;
          test "optimism wins when stable" test_recovery_optimism_wins_when_stable;
          test "survives crashes via rollback" test_recovery_survives_crashes;
          test "same crash fates across modes" test_recovery_same_crash_fates;
        ] );
      ( "scientific",
        [
          test "converges and rolls back overshoot" test_scientific_converges;
          test "speedup grows with latency" test_scientific_speedup_grows_with_latency;
          test "overshoot adapts to latency" test_scientific_waste_adapts_to_latency;
        ] );
      ( "occ",
        [
          test "uncontended: OCC wins, serializable" test_occ_uncontended;
          test "contended: aborts repaired, serializable"
            test_occ_contended_still_serializable;
          test "deterministic" test_occ_deterministic;
          test "hybrid escalates under skew" test_occ_hybrid_escalates_under_skew;
          test "hybrid idle at uniform load" test_occ_hybrid_idle_at_uniform_load;
        ] );
      ( "domains",
        [
          test "two runtimes on two domains match their sequential runs"
            test_two_runtimes_two_domains;
        ] );
    ]
