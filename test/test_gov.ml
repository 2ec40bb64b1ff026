(* Governor subsystem: throttle hysteresis laws (QCheck), policy
   profiles, actuator plumbing, and the adversary scenarios. The
   headline bounce acceptance (governor-on resolves what governor-off
   cannot) lives in test_chaos.ml next to the monitor's bounce tests. *)

open Hope_types
module Throttle = Hope_gov.Throttle
module Policy = Hope_gov.Policy
module Governor = Hope_gov.Governor
module Adversary = Hope_gov.Adversary
module Program = Hope_proc.Program
module Scheduler = Hope_proc.Scheduler
module Runtime = Hope_core.Runtime
module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Telemetry = Hope_sim.Telemetry
open Program.Syntax
open Test_support.Util

(* ------------------------------------------------------------------ *)
(* Throttle: hysteresis and decay laws                                  *)
(* ------------------------------------------------------------------ *)

(* A throttle driven by an arbitrary op sequence: advance the clock,
   add pressure, observe. The laws must hold along every trajectory. *)
let arbitrary_ops =
  QCheck.(
    list_of_size
      (Gen.int_range 1 60)
      (pair (float_bound_exclusive 0.05) (float_bound_exclusive 0.6)))

(* Once throttled, a key stays throttled for at least
   [min_hold = tau ln (high/low)] virtual time: the hysteresis band is
   an anti-oscillation guarantee, not a soft preference. *)
let qcheck_no_fast_oscillation =
  QCheck.Test.make ~name:"throttle: release never beats the decay constant"
    ~count:500 arbitrary_ops (fun ops ->
      let t = Throttle.create () in
      let hold = Throttle.min_hold t in
      let now = ref 0.0 in
      let tripped_at = ref None in
      List.iter
        (fun (dt, amount) ->
          now := !now +. dt;
          let before = Throttle.throttled t ~now:!now ~key:0 in
          (match (before, !tripped_at) with
          | false, Some at ->
            (* released between observations: the decay must account
               for at least the full hold *)
            if !now -. at < hold *. 0.999 then
              QCheck.Test.fail_reportf
                "released %.6fs after trip (min_hold %.6fs)" (!now -. at) hold;
            tripped_at := None
          | _ -> ());
          Throttle.bump t ~now:!now ~key:0 amount;
          if Throttle.throttled t ~now:!now ~key:0 && !tripped_at = None then
            tripped_at := Some !now)
        ops;
      true)

(* With no further pressure, every key decays back below the low
   watermark: quiescent traffic always returns to fully optimistic. *)
let qcheck_quiescent_decay =
  QCheck.Test.make ~name:"throttle: quiescence always decays to optimistic"
    ~count:500 arbitrary_ops (fun ops ->
      let t = Throttle.create () in
      let now = ref 0.0 in
      let total = ref 0.0 in
      List.iter
        (fun (dt, amount) ->
          now := !now +. dt;
          total := !total +. amount;
          Throttle.bump t ~now:!now ~key:0 amount)
        ops;
      (* An upper bound on the level is the undecayed sum of bumps;
         wait long enough for that to decay through the low mark. *)
      let horizon =
        !now +. (Throttle.tau t *. log ((!total +. 1.0) /. Throttle.low t)) +. 1e-9
      in
      (not (Throttle.throttled t ~now:horizon ~key:0))
      && Throttle.level t ~now:horizon ~key:0 <= Throttle.low t)

let test_throttle_basics () =
  let t = Throttle.create ~high:1.0 ~low:0.25 ~tau:0.1 () in
  Alcotest.(check bool) "fresh key optimistic" false
    (Throttle.throttled t ~now:0.0 ~key:7);
  Throttle.bump t ~now:0.0 ~key:7 1.0;
  Alcotest.(check bool) "tripped at high watermark" true
    (Throttle.throttled t ~now:0.0 ~key:7);
  (* still above low just before min_hold... *)
  let hold = Throttle.min_hold t in
  Alcotest.(check bool) "held before min_hold" true
    (Throttle.throttled t ~now:(hold *. 0.9) ~key:7);
  (* ...and released after it. *)
  Alcotest.(check bool) "released after min_hold" false
    (Throttle.throttled t ~now:(hold *. 1.01) ~key:7);
  Alcotest.(check int) "other keys untouched" 1 (Throttle.tracked t);
  Alcotest.check_raises "negative pressure rejected"
    (Invalid_argument "Throttle.bump: negative pressure") (fun () ->
      Throttle.bump t ~now:1.0 ~key:7 (-1.0))

(* A NaN would poison a level for good: it never decays through the low
   mark. *)
let test_throttle_rejects_nan () =
  Alcotest.check_raises "NaN tau rejected"
    (Invalid_argument "Throttle.create: need tau > 0") (fun () ->
      ignore (Throttle.create ~tau:nan () : Throttle.t));
  let t = Throttle.create () in
  Alcotest.check_raises "NaN pressure rejected"
    (Invalid_argument "Throttle.bump: NaN pressure") (fun () ->
      Throttle.bump t ~now:0.0 ~key:1 nan);
  Alcotest.(check (float 0.0)) "level untouched" 0.0 (Throttle.level t ~now:0.0 ~key:1)

(* [throttled_count] visits only the keys listed when they tripped.
   Against random multi-key traffic (bumps on gated keys included, and
   releases seen first by [throttled] or [level]) it must equal the
   number of keys [throttled] reports at that instant. *)
let multi_key_ops =
  QCheck.(
    list_of_size
      (Gen.int_range 1 120)
      (quad (float_bound_exclusive 0.01) (int_bound 3) (int_bound 7)
         (float_bound_exclusive 1.2)))

(* Drive a throttle at [p]'s watermarks and decay. Under a profile that
   never trips ([Policy.hybrid]'s infinite high watermark) the count must
   also always be 0. *)
let count_matches_throttled (p : Policy.t) ops =
  let t =
    Throttle.create ~high:p.Policy.high_watermark ~low:p.Policy.low_watermark
      ~tau:p.Policy.decay_tau ()
  in
  let now = ref 0.0 in
  List.for_all
    (fun (dt, op, key, amount) ->
      now := !now +. dt;
      let now = !now in
      match op with
      | 0 -> Throttle.bump t ~now ~key amount; true
      | 1 -> ignore (Throttle.throttled t ~now ~key : bool); true
      | 2 -> ignore (Throttle.level t ~now ~key : float); true
      | _ ->
        let n = Throttle.throttled_count t ~now in
        let seen =
          List.length
            (List.filter (fun key -> Throttle.throttled t ~now ~key) (List.init 8 Fun.id))
        in
        if n <> seen then
          QCheck.Test.fail_reportf "%s: throttled_count %d, throttled on %d keys at %g"
            p.Policy.name n seen now
        else if p.Policy.high_watermark = infinity && n <> 0 then
          QCheck.Test.fail_reportf "%s: %d throttled keys" p.Policy.name n
        else true)
    ops

let qcheck_count_matches_throttled =
  QCheck.Test.make ~name:"throttle: count equals the keys throttled now" ~count:500
    multi_key_ops (fun ops ->
      count_matches_throttled Policy.default ops && count_matches_throttled Policy.hybrid ops)

(* The first 1 ms tick from [from] on at which [throttled_count] reads
   0, the ticks being the throttle's only observer. *)
let first_quiet_tick ?(from = 1) t =
  let rec go k =
    if k > 1000 then Alcotest.fail "never released"
    else if Throttle.throttled_count t ~now:(float_of_int k *. 1e-3) = 0 then k
    else go (k + 1)
  in
  go from

let test_throttle_count_release_tick () =
  let t = Throttle.create () in
  Throttle.bump t ~now:0.0 ~key:3 1.0;
  let hold = Throttle.min_hold t in
  Alcotest.(check int) "leaves at the first tick after min_hold"
    (int_of_float (Float.ceil (hold /. 1e-3)))
    (first_quiet_tick t)

let test_throttle_count_bump_delays () =
  let t = Throttle.create () in
  Throttle.bump t ~now:0.0 ~key:3 1.0;
  for k = 1 to 10 do
    ignore (Throttle.throttled_count t ~now:(float_of_int k *. 1e-3) : int)
  done;
  Throttle.bump t ~now:0.0105 ~key:3 0.5;
  let tau = Throttle.tau t in
  let level = exp (-0.0105 /. tau) +. 0.5 in
  let release = 0.0105 +. (tau *. log (level /. Throttle.low t)) in
  let quiet = first_quiet_tick ~from:11 t in
  Alcotest.(check int) "the bump moves the release tick"
    (int_of_float (Float.ceil (release /. 1e-3)))
    quiet;
  Alcotest.(check bool) "later than the unbumped hold" true
    (float_of_int quiet *. 1e-3 > Throttle.min_hold t)

let test_throttle_count_retrip_once () =
  let t = Throttle.create () in
  Throttle.bump t ~now:0.0 ~key:3 1.0;
  Alcotest.(check int) "tripped" 1 (Throttle.throttled_count t ~now:0.0);
  Alcotest.(check bool) "release seen by throttled" false
    (Throttle.throttled t ~now:0.030 ~key:3);
  Throttle.bump t ~now:0.031 ~key:3 1.0;
  (* still listed from the first trip: it must not be listed twice *)
  Alcotest.(check int) "re-trip counts once" 1 (Throttle.throttled_count t ~now:0.031);
  let release =
    0.031
    +. (Throttle.tau t *. log (Throttle.level t ~now:0.031 ~key:3 /. Throttle.low t))
  in
  Alcotest.(check int) "held until the new release" 1
    (Throttle.throttled_count t ~now:(release -. 1e-3));
  Alcotest.(check int) "released after it" 0
    (Throttle.throttled_count t ~now:(release +. 1e-3))

(* The escalation loop reuses {!Throttle}, so a mode flip inherits the
   same hysteresis law — but at each policy's own watermarks, which sit
   far from the defaults (hybrid trips at 6.0). Drive a throttle built
   from every escalation-enabled profile's parameters and check a
   tripped mark never releases before the decay constant: an escalated
   AID cannot flap straight back to optimistic. *)
let qcheck_escalation_no_fast_oscillation =
  QCheck.Test.make ~name:"escalation: mode flips obey the hysteresis hold"
    ~count:200 arbitrary_ops (fun ops ->
      List.iter
        (fun p ->
          if Policy.escalation_enabled p then begin
            let t =
              Throttle.create ~high:p.Policy.escalate_high
                ~low:p.Policy.escalate_low ~tau:p.Policy.escalate_tau ()
            in
            let hold = Throttle.min_hold t in
            let now = ref 0.0 in
            let tripped_at = ref None in
            List.iter
              (fun (dt, amount) ->
                now := !now +. dt;
                (match (Throttle.throttled t ~now:!now ~key:0, !tripped_at) with
                | false, Some at ->
                  if !now -. at < hold *. 0.999 then
                    QCheck.Test.fail_reportf
                      "%s de-escalated %.6fs after the trip (min_hold %.6fs)"
                      p.Policy.name (!now -. at) hold;
                  tripped_at := None
                | _ -> ());
                (* scale the bump to the profile's trip mark so the
                   trajectory actually crosses it *)
                Throttle.bump t ~now:!now ~key:0
                  (amount *. p.Policy.escalate_high);
                if Throttle.throttled t ~now:!now ~key:0 && !tripped_at = None
                then tripped_at := Some !now)
              ops
          end)
        Policy.all;
      true)

let test_escalation_profile_flags () =
  Alcotest.(check bool) "default keeps escalation off" false
    (Policy.escalation_enabled Policy.default);
  Alcotest.(check bool) "hybrid enables escalation" true
    (Policy.escalation_enabled Policy.hybrid);
  List.iter
    (fun p ->
      if Policy.escalation_enabled p then begin
        Alcotest.(check bool)
          (p.Policy.name ^ " escalation watermarks ordered")
          true
          (0.0 < p.Policy.escalate_low
          && p.Policy.escalate_low < p.Policy.escalate_high);
        Alcotest.(check bool)
          (p.Policy.name ^ " queued waits are virtual-time bounded")
          true
          (p.Policy.acquire_bound > 0.0 && p.Policy.acquire_bound < infinity)
      end)
    Policy.all

let test_policy_profiles () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Policy.name ^ " watermarks ordered")
        true
        (0.0 < p.Policy.low_watermark
        && p.Policy.low_watermark < p.Policy.high_watermark);
      Alcotest.(check bool)
        (p.Policy.name ^ " cut bounds ordered")
        true
        (0 < p.Policy.cut_min && p.Policy.cut_min <= p.Policy.cut_init);
      match Policy.of_string p.Policy.name with
      | Ok p' -> Alcotest.(check string) "roundtrip" p.Policy.name p'.Policy.name
      | Error e -> Alcotest.fail e)
    Policy.all;
  Alcotest.(check bool) "unknown profile rejected" true
    (match Policy.of_string "bogus" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Actuator plumbing through a real world                               *)
(* ------------------------------------------------------------------ *)

let governed_world ?(policy = Policy.default) () =
  let w = make_world () in
  let tele = Telemetry.create ~deep:true ~recorder:(Engine.obs w.engine) () in
  Telemetry.install tele w.engine;
  let g = Governor.install ~policy w.rt ~tele in
  (w, tele, g)

(* A governed run with nothing wrong must behave exactly like an
   ungoverned one: no gating, no stalls, no forced cuts — and the
   runtime must report itself governed only while the hooks are in. *)
let test_governor_invisible_when_healthy () =
  let w, _tele, g = governed_world () in
  Alcotest.(check bool) "runtime governed" true (Runtime.governed w.rt);
  let oracle =
    Scheduler.spawn w.sched ~name:"oracle"
      (let rec loop () =
         let* env = Program.recv () in
         match Envelope.value env with
         | Value.Aid_v a ->
           let* () = Program.affirm a in
           loop ()
         | _ -> loop ()
       in
       loop ())
  in
  ignore
    (Scheduler.spawn w.sched ~name:"worker"
       (let rec go n =
          if n = 0 then Program.return ()
          else
            let* x = Program.aid_init () in
            let* () = Program.send oracle (Value.Aid_v x) in
            let* ok = Program.guess x in
            Alcotest.(check bool) "speculation allowed" true ok;
            let* () = Program.compute 1e-4 in
            go (n - 1)
        in
        go 20)
      : Proc_id.t);
  quiesce w;
  check_invariants w;
  Alcotest.(check int) "no gating" 0 (Governor.guesses_gated g);
  Alcotest.(check int) "no stalls" 0 (Governor.send_stalls g);
  Alcotest.(check int) "no forced cuts" 0 (Governor.forced_cuts g);
  Alcotest.(check int) "nothing throttled" 0 (Governor.throttled_aids g);
  Governor.uninstall g;
  Alcotest.(check bool) "ungoverned after uninstall" false (Runtime.governed w.rt)

(* Denial pressure gates re-guesses: after enough denials on one AID,
   the governor answers [guess] pessimistically at the gate. *)
let test_denials_throttle_the_aid () =
  let w, _tele, g = governed_world () in
  let oracle =
    Scheduler.spawn w.sched ~name:"oracle"
      (let rec loop () =
         let* env = Program.recv () in
         match Envelope.value env with
         | Value.Aid_v a ->
           let* () = Program.compute 1e-3 in
           let* () = Program.deny a in
           loop ()
         | _ -> loop ()
       in
       loop ())
  in
  ignore
    (Scheduler.spawn w.sched ~name:"worker"
       (let* x = Program.aid_init () in
        let* () = Program.send oracle (Value.Aid_v x) in
        let* _ = Program.guess x in
        let* () = Program.compute 5e-3 in
        (* re-approach the same assumption after the denial landed *)
        let* ok = Program.guess x in
        Alcotest.(check bool) "denied AID not re-speculated" false ok;
        Program.return ())
      : Proc_id.t);
  quiesce w;
  Alcotest.(check bool) "denial observed" true (Governor.denials_observed g >= 1);
  Alcotest.(check bool) "AID throttled" true (Governor.throttled_aids g >= 1);
  check_invariants w

(* The governor's gauges ride the telemetry sampler into the registry
   and the OpenMetrics export. *)
let test_governor_gauges_exported () =
  let w, tele, _g = governed_world () in
  ignore
    (Scheduler.spawn w.sched ~name:"noop" (Program.compute 1e-3) : Proc_id.t);
  quiesce w;
  Telemetry.sample_now tele;
  let gauges = Metrics.gauges (Engine.metrics w.engine) in
  Alcotest.(check bool) "gov.cut_threshold gauge present" true
    (List.mem_assoc "gov.cut_threshold" gauges);
  Alcotest.(check bool) "gov.throttled_aids gauge present" true
    (List.mem_assoc "gov.throttled_aids" gauges);
  let om = Telemetry.openmetrics tele in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "openmetrics carries governor gauges" true
    (contains om "gov_cut_threshold")

(* Uninstall must detach the policy tick from the sampler
   ({!Telemetry.remove_pre_sample}): a detached governor's gauges stop
   refreshing. Poison a gauge after uninstall — a still-registered tick
   would overwrite the sentinel on the very next sample. *)
let test_uninstalled_gauges_stop_refreshing () =
  let w, tele, g = governed_world () in
  ignore
    (Scheduler.spawn w.sched ~name:"noop" (Program.compute 1e-3) : Proc_id.t);
  quiesce w;
  Telemetry.sample_now tele;
  let cut = Metrics.gauge (Engine.metrics w.engine) "gov.cut_threshold" in
  Alcotest.(check bool) "tick refreshed the gauge" true
    (Metrics.gauge_value cut > 0.0);
  Governor.uninstall g;
  Metrics.set_gauge cut (-1.0);
  Telemetry.sample_now tele;
  Alcotest.(check (float 0.0)) "gauge untouched after uninstall" (-1.0)
    (Metrics.gauge_value cut);
  (* a clean detach leaves the sampler reusable: a fresh governor's tick
     takes the slot over and the gauge refreshes again *)
  let g2 = Governor.install w.rt ~tele in
  Telemetry.sample_now tele;
  Alcotest.(check bool) "reinstalled governor refreshes again" true
    (Metrics.gauge_value cut > 0.0);
  Governor.uninstall g2

(* The escalation machinery must be invisible while idle: under the
   default policy (escalation off, nothing throttled) a governed run's
   chrome trace is byte-identical to the ungoverned run — the in-tree
   twin of the CI e1 determinism job. The workload speculates and rolls
   back, so the idle path is exercised, not avoided. *)
let test_idle_escalation_trace_byte_identical () =
  let run ~governed =
    let w = make_world () in
    let obs = Engine.obs w.engine in
    Hope_obs.Recorder.enable obs;
    let tele = Telemetry.create ~deep:true ~recorder:obs () in
    Telemetry.install tele w.engine;
    let g = if governed then Some (Governor.install w.rt ~tele) else None in
    let resolver =
      Scheduler.spawn w.sched ~node:1 ~name:"resolver"
        (let* env = Program.recv () in
         let aids = List.map Value.to_aid (Value.to_list (Envelope.value env)) in
         let* () = Program.compute 2e-3 in
         match aids with
         | x1 :: rest ->
           let* () = Program.deny x1 in
           Program.iter_list Program.affirm rest
         | [] -> Program.return ())
    in
    ignore
      (Scheduler.spawn w.sched ~name:"worker"
         (let* x1 = Program.aid_init () in
          let* x2 = Program.aid_init () in
          let* x3 = Program.aid_init () in
          let* () =
            Program.send resolver
              (Value.List [ Value.Aid_v x1; Value.Aid_v x2; Value.Aid_v x3 ])
          in
          let* _ = Program.guess x1 in
          let* _ = Program.guess x2 in
          let* _ = Program.guess x3 in
          Program.compute 1e-4)
        : Proc_id.t);
    quiesce w;
    check_invariants w;
    (match g with Some g -> Governor.uninstall g | None -> ());
    Hope_obs.Obs.export_string Hope_obs.Obs.Chrome (Hope_obs.Recorder.events obs)
  in
  let off = run ~governed:false in
  let on_ = run ~governed:true in
  Alcotest.(check bool) "speculation actually rolled back" true
    (String.length off > 64);
  Alcotest.(check string) "chrome trace byte-identical" off on_

(* PHOLD on HOPE at horizon 4 (the CLI's `phold --engine hope --horizon 4
   --governor`), governed by the default policy: the governor's
   per-candidate predicate forces cuts on top of Algorithm 2's own, and
   the chrome trace is pinned. A change to which Replace candidates the
   predicate is asked about, in what order, or which it cuts, changes
   this digest. Regenerate the constant only for a change that means to
   alter the trace. *)
let test_governed_phold_cut_trace_pinned () =
  let obs = Hope_obs.Recorder.create () in
  Hope_obs.Recorder.enable obs;
  let gov = ref None in
  let on_setup rt =
    let tele = Telemetry.create ~deep:true ~recorder:obs () in
    Telemetry.install tele (Scheduler.engine (Runtime.scheduler rt));
    gov := Some (Governor.install rt ~tele)
  in
  ignore
    (Hope_workloads.Phold.run_hope ~seed:42 ~obs ~on_setup
       { Hope_workloads.Phold.default_params with horizon = 4.0 }
      : Hope_workloads.Phold.outcome);
  Alcotest.(check bool) "the governor forced cuts" true
    (Governor.forced_cuts (Option.get !gov) > 0);
  Alcotest.(check string)
    "chrome trace digest" "678ac862d09811effca0f97acee4f502"
    (Digest.to_hex
       (Digest.string
          (Hope_obs.Obs.export_string Hope_obs.Obs.Chrome
             (Hope_obs.Recorder.events obs))))

(* A small governed OCC run, wired as `hope_sim occ --mode hybrid` wires
   it: one telemetry, with the [Policy.hybrid] governor installed on it
   in [on_setup]. Its OpenMetrics export is pinned: every series the
   sampler records, counters and gauges created mid-run among them, and
   the governor's gauges, stride by stride. Regenerate the constant only
   for a change that means to alter the export. *)
let test_governed_occ_metrics_pinned () =
  let obs = Hope_obs.Recorder.create () in
  let tele = Telemetry.create ~deep:true ~recorder:obs () in
  let on_setup rt =
    Telemetry.install tele (Scheduler.engine (Runtime.scheduler rt));
    ignore (Governor.install ~policy:Policy.hybrid rt ~tele : Governor.t)
  in
  let p =
    { Hope_workloads.Occ.default_params with clients = 8; skew = 2.0; transactions = 10 }
  in
  ignore
    (Hope_workloads.Occ.run ~seed:42 ~obs ~mode:`Hybrid ~on_setup p
      : Hope_workloads.Occ.result);
  let om = Telemetry.openmetrics tele in
  Alcotest.(check bool) "sampled more than once" true
    (Hope_obs.Timeseries.samples (Telemetry.series tele) > 1);
  Alcotest.(check string) "openmetrics digest" "6410f824ec485a8f62193f4783504723"
    (Digest.to_hex (Digest.string om))

(* ------------------------------------------------------------------ *)
(* Adversary scenarios                                                  *)
(* ------------------------------------------------------------------ *)

let test_adversary_deterministic () =
  List.iter
    (fun sc ->
      let a = Adversary.run ~seed:11 ~governed:true sc in
      let b = Adversary.run ~seed:11 ~governed:true sc in
      Alcotest.(check bool)
        (Adversary.scenario_name sc ^ " same seed, identical outcome")
        true (a = b))
    Adversary.all;
  let a = Adversary.run ~seed:11 ~governed:true Adversary.Corruption in
  let c = Adversary.run ~seed:12 ~governed:true Adversary.Corruption in
  Alcotest.(check bool) "different seed, different run" true
    (a.Adversary.events <> c.Adversary.events || a <> c)

let test_hostile_oracle () =
  let off = Adversary.run ~governed:false Adversary.Hostile_oracle in
  let on_ = Adversary.run ~governed:true Adversary.Hostile_oracle in
  Alcotest.(check bool) "ungoverned survives" true off.Adversary.legal;
  Alcotest.(check bool) "governed survives" true on_.Adversary.legal;
  Alcotest.(check bool) "oracle really hostile" true
    (off.Adversary.rolled_back >= 1);
  Alcotest.(check bool) "governor gated re-guesses" true
    (on_.Adversary.gated >= 1)

let test_corruption_recovery () =
  List.iter
    (fun governed ->
      let o = Adversary.run ~governed Adversary.Corruption in
      let tag = if governed then "governed" else "ungoverned" in
      Alcotest.(check bool) (tag ^ " recovered to legal configuration") true
        o.Adversary.legal;
      Alcotest.(check bool) (tag ^ " forged rollbacks landed") true
        (o.Adversary.rolled_back >= 3);
      Alcotest.(check bool) (tag ^ " recovery time measured") true
        (o.Adversary.recovery_vtime > 0.0))
    [ false; true ]

let test_flash_crowd_backpressure () =
  let off = Adversary.run ~governed:false Adversary.Flash_crowd in
  let on_ = Adversary.run ~governed:true Adversary.Flash_crowd in
  Alcotest.(check bool) "ungoverned survives" true off.Adversary.legal;
  Alcotest.(check bool) "governed survives" true on_.Adversary.legal;
  Alcotest.(check bool) "crowd outran the validator" true
    (off.Adversary.peak_open > Policy.default.Policy.window_limit);
  Alcotest.(check bool) "sends paid back-pressure" true
    (on_.Adversary.send_stalls >= 1);
  Alcotest.(check bool) "window bounded no worse than ungoverned" true
    (on_.Adversary.peak_open <= off.Adversary.peak_open)

let test_compaction_stress () =
  List.iter
    (fun governed ->
      let o = Adversary.run ~governed Adversary.Compaction_stress in
      let tag = if governed then "governed" else "ungoverned" in
      Alcotest.(check bool) (tag ^ " stays legal under mailbox churn") true
        o.Adversary.legal;
      Alcotest.(check bool) (tag ^ " retractions landed") true
        (o.Adversary.rolled_back >= 1);
      Alcotest.(check bool) (tag ^ " compaction epochs ran") true
        (o.Adversary.compactions >= 1);
      Alcotest.(check bool) (tag ^ " mailbox really churned") true
        (o.Adversary.arrivals_reclaimed >= 100))
    [ false; true ]

(* The hybrid escalation acceptance: the zipf-skewed storm on one guard
   AID trips the monitor ungoverned; under the hybrid policy the guard
   escalates to queued acquisition, the cascades flatten, and the run
   ends clean with every waiter drained (legal = quiesced + terminated +
   no live speculation). *)
let test_contention_storm () =
  let off = Adversary.run ~governed:false Adversary.Contention_storm in
  let on_ =
    Adversary.run ~governed:true ~policy:Policy.hybrid
      Adversary.Contention_storm
  in
  Alcotest.(check bool) "ungoverned survives (wait-freedom)" true
    off.Adversary.legal;
  Alcotest.(check bool) "monitor flags the storm" true
    off.Adversary.bounce_flagged;
  Alcotest.(check bool) "governed survives" true on_.Adversary.legal;
  Alcotest.(check int) "escalation clears the diagnostics" 0
    on_.Adversary.diagnostics;
  Alcotest.(check bool) "hot guard escalated" true
    (on_.Adversary.escalations >= 1);
  Alcotest.(check bool) "guesses parked in the acquisition queue" true
    (on_.Adversary.acquire_waits >= 1);
  Alcotest.(check bool) "speculation cascades flatten" true
    (on_.Adversary.peak_open < off.Adversary.peak_open);
  Alcotest.(check bool) "less speculative churn overall" true
    (on_.Adversary.guesses < off.Adversary.guesses)

let test_cross_shard_straggler () =
  let off = Adversary.run ~governed:false Adversary.Cross_shard_straggler in
  let on_ = Adversary.run ~governed:true Adversary.Cross_shard_straggler in
  List.iter
    (fun (tag, (o : Adversary.outcome)) ->
      Alcotest.(check bool) (tag ^ " quiesces") true o.Adversary.quiesced;
      Alcotest.(check bool) (tag ^ " legal") true o.Adversary.legal;
      Alcotest.(check bool)
        (tag ^ " full invariant suite")
        true o.Adversary.consistent;
      (* every off-shard burst undercuts the mirror's local virtual
         time, so the volleys must actually deny and roll work back ... *)
      Alcotest.(check bool)
        (tag ^ " straggler volleys rolled back")
        true
        (o.Adversary.rolled_back >= 3);
      (* ... but each cascade is bounded by the mirror's own open
         speculation — a volley can never undo more than the intervals
         the consumer had optimistically opened. *)
      Alcotest.(check bool)
        (tag ^ " cascade bounded by open speculation")
        true
        (o.Adversary.rolled_back <= o.Adversary.guesses))
    [ ("ungoverned", off); ("governed", on_) ]

let () =
  Alcotest.run "gov"
    [
      ( "throttle",
        [
          test "watermarks, hold, release" test_throttle_basics;
          test "NaN input rejected" test_throttle_rejects_nan;
          test "count leaves at the first tick after the hold"
            test_throttle_count_release_tick;
          test "a bump during the hold delays the release tick"
            test_throttle_count_bump_delays;
          test "a re-trip after a release counts once" test_throttle_count_retrip_once;
          QCheck_alcotest.to_alcotest qcheck_count_matches_throttled;
          QCheck_alcotest.to_alcotest qcheck_no_fast_oscillation;
          QCheck_alcotest.to_alcotest qcheck_quiescent_decay;
          QCheck_alcotest.to_alcotest qcheck_escalation_no_fast_oscillation;
        ] );
      ( "policy",
        [
          test "profiles well-formed" test_policy_profiles;
          test "escalation profile flags" test_escalation_profile_flags;
        ] );
      ( "actuators",
        [
          test "invisible on a healthy run" test_governor_invisible_when_healthy;
          test "denial pressure gates the AID" test_denials_throttle_the_aid;
          test "gauges exported" test_governor_gauges_exported;
          test "uninstall detaches the tick"
            test_uninstalled_gauges_stop_refreshing;
          test "idle escalation keeps the trace byte-identical"
            test_idle_escalation_trace_byte_identical;
          test "governed PHOLD cut trace pinned"
            test_governed_phold_cut_trace_pinned;
          test "governed OCC metrics pinned" test_governed_occ_metrics_pinned;
        ] );
      ( "adversary",
        [
          test "fixed-seed determinism" test_adversary_deterministic;
          test "hostile oracle" test_hostile_oracle;
          test "corruption recovery" test_corruption_recovery;
          test "flash crowd back-pressure" test_flash_crowd_backpressure;
          test "compaction stress" test_compaction_stress;
          test "contention storm escalates" test_contention_storm;
          test "cross-shard straggler volleys" test_cross_shard_straggler;
        ] );
    ]
