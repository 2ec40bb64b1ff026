(* The four workloads, driven through the libraries' public entry points.

   A workload is prepared at one seed ([prepare], the timed set-up: input
   generation plus the oracle or pessimistic reference) and then run once
   ([rep]). A run verifies its own output and raises [Failure] on any
   mismatch. All measurement is from outside the libraries: counts are
   read back from the always-on registries after the run. *)

module Report = Hope_workloads.Report
module Phold = Hope_workloads.Phold
module Occ = Hope_workloads.Occ
module Job = Hope_workloads.Job
module Shard = Hope_shard.Shard
module Timewarp = Hope_timewarp.Timewarp
module Latency = Hope_net.Latency
module Network = Hope_net.Network
module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Rng = Hope_sim.Rng
module Context = Hope_sim.Context
module Scheduler = Hope_proc.Scheduler
module Runtime = Hope_core.Runtime
module Recorder = Hope_obs.Recorder
module Analytics = Hope_obs.Analytics
module Aid_set = Hope_types.Aid_set

type size = Full | Small

type outcome = {
  committed : int;  (** committed units *)
  makespan_vs : float;
  counts : (string * float) list;  (** per-layer metrics from the registries *)
  traced : (string * float) list;
      (** traced runs only: per-layer metrics derived from the event store *)
  model_s : float;
      (** traced runs only: host seconds spent inside the model's event
          handler, summed over domains (0 where there is no such handler) *)
  fingerprint : string;
      (** a summary of the run that must repeat exactly at the same seed *)
}

type prepared = {
  reference_vs : float option;  (** pessimistic makespan, for the speedup *)
  rep : traced:bool -> outcome;
}

type t = {
  name : string;
  why : string;
  committed_unit : string;
  domains : int;  (** OCaml domains a run uses *)
  replicas : int;
      (** independent runs per rep, at seeds derived from [--seed]: a
          workload whose outcome depends on its seed averages over several
          so that runs at different seeds stay comparable. Each count is
          the smallest whose measured spread across seeds fits a third
          of the bounds (README.md, "Replicas") *)
  latency : Latency.t;  (** the network model, which shapes the net probe *)
  params : size -> (string * Json.t) list;
  prepare : size -> seed:int -> prepared;
}

let num x = Json.Float x
let int x = Json.Int x

let fresh_store () =
  let r = Recorder.create () in
  Recorder.enable r;
  r

(* Per-layer counts of a HOPE run, normalised per committed unit. The
   union-memo counters are process-global, so the caller passes their
   values from before the run. *)
let hope_counts rt ~committed ~(memo_before : Aid_set.stats) =
  let sched = Runtime.scheduler rt in
  let eng = Scheduler.engine sched in
  let net = Scheduler.network sched in
  let reg = Engine.metrics eng in
  let c name = float_of_int (Metrics.find_counter reg name) in
  let msgs tag = c ("hope.msgs." ^ tag) in
  let per x = x /. float_of_int committed in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let hist f name =
    let h = Metrics.histogram reg name in
    if Metrics.hist_count h = 0 then 0.0 else f h
  in
  let memo = Aid_set.stats () in
  let hits = float_of_int (memo.unions_memoized - memo_before.unions_memoized) in
  let built = float_of_int (memo.unions_computed - memo_before.unions_computed) in
  [
    ("sim.events_per_commit", per (float_of_int (Engine.events_processed eng)));
    ("sim.pool_peak", float_of_int (Engine.pool_allocated eng));
    ("net.sends_per_commit", per (float_of_int (Network.messages_sent net)));
    ( "net.coalesced_ratio",
      ratio
        (float_of_int (Network.deliveries_coalesced net))
        (float_of_int (Network.messages_delivered net)) );
    ("proc.consumes_per_commit", per (c "sched.consumes"));
    ("proc.parks_per_commit", per (c "sched.parks"));
    ("proc.rollbacks_per_commit", per (c "hope.rollbacks"));
    ("proc.rollback_depth_mean", hist Metrics.hist_mean "hope.rollback_depth");
    ("proc.cancels_per_commit", per (c "hope.cancels_sent"));
    ("proc.compactions_per_commit", per (c "sched.mailbox_compactions"));
    ("proc.reclaimed_per_commit", per (c "sched.arrivals_reclaimed"));
    ("control.intervals_per_commit", per (c "hope.intervals_started"));
    ("control.finalize_ratio", ratio (c "hope.finalizes") (c "hope.intervals_started"));
    ("control.spec_depth_mean", hist Metrics.hist_mean "hope.speculation_depth");
    ("control.spec_depth_max", hist Metrics.hist_max "hope.speculation_depth");
    ("control.ido_size_mean", hist Metrics.hist_mean "hope.interval_ido_size");
    ("control.replace_msgs_per_commit", per (msgs "replace"));
    ("control.cycle_cuts_per_commit", per (c "hope.cycle_cuts"));
    ("types.union_memo_hit_ratio", ratio hits (hits +. built));
    ("aid.aids_per_commit", per (c "hope.aids_created"));
    ("aid.guess_msgs_per_commit", per (msgs "guess"));
    ("aid.affirm_msgs_per_commit", per (msgs "affirm"));
    ("aid.deny_msgs_per_commit", per (msgs "deny"));
    ("aid.rollback_msgs_per_commit", per (msgs "rollback"));
    ("aid.acquire_msgs_per_commit", per (msgs "acquire"));
    ("aid.acquire_waits_per_commit", per (c "hope.acquire_waits"));
    ("aid.grant_ratio", ratio (msgs "grant") (msgs "acquire"));
    ("gov.guesses_gated_per_commit", per (c "hope.guesses_gated"));
    ("gov.send_stalls_per_commit", per (c "hope.send_stalls"));
    ("gov.escalations", c "hope.escalations");
    ("gov.forced_cuts", c "gov.forced_cuts");
  ]

let hope_traced store ~committed =
  let a = Analytics.of_recorder store in
  [
    ("control.wasted_vtime_ratio", a.Analytics.wasted_ratio);
    ("control.max_cascade", float_of_int a.max_cascade);
    ( "obs.emits_per_commit",
      float_of_int (Recorder.size store) /. float_of_int committed );
  ]

(* Shared shape of the three HOPE workloads: [f] runs the workload with a
   capture of the runtime and, on a traced run, an event store, and
   returns its makespan and fingerprint. *)
let hope_rep ~traced ~committed f =
  let rt = ref None in
  let store = if traced then Some (fresh_store ()) else None in
  let memo_before = Aid_set.stats () in
  let makespan_vs, fingerprint = f ~obs:store ~on_setup:(fun r -> rt := Some r) in
  let rt = match !rt with Some r -> r | None -> failwith "runtime not captured" in
  {
    committed;
    makespan_vs;
    counts = hope_counts rt ~committed ~memo_before;
    traced = (match store with Some s -> hope_traced s ~committed | None -> []);
    model_s = 0.0;
    fingerprint;
  }

(* ---------------------------------------------------------------- *)
(* callstream-wan                                                    *)

let callstream_params = function
  | Full -> { Report.default_params with sections = 120; page_size = 20 }
  | Small -> { Report.default_params with sections = 12; page_size = 20 }

let callstream =
  {
    name = Spec.callstream;
    why =
      "E1's Call Streaming claim at its deepest speculation: WAN latency, \
       long speculation chains, deep rollbacks";
    committed_unit = "report section";
    domains = 1;
    replicas = 1;
    latency = Latency.wan;
    params =
      (fun size ->
        let p = callstream_params size in
        [
          ("sections", int p.Report.sections);
          ("page_size", int p.page_size);
          ("print_cost_s", num p.print_cost);
          ("latency", Json.String "wan (constant 15 ms)");
          ("mode", Json.String "optimistic (Figure 2)");
        ]);
    prepare =
      (fun size ~seed ->
        let p = callstream_params size in
        let latency = Latency.wan in
        let pess = Report.run ~seed ~latency ~mode:`Pessimistic p in
        let rep ~traced =
          hope_rep ~traced ~committed:p.sections (fun ~obs ~on_setup ->
              let r = Report.run ~seed ~latency ?obs ~on_setup ~mode:`Optimistic p in
              ( r.Report.completion_time,
                Printf.sprintf "completion=%h rollbacks=%d messages=%d guesses=%d"
                  r.completion_time r.rollbacks r.messages r.guesses ))
        in
        { reference_vs = Some pess.Report.completion_time; rep });
  }

(* ---------------------------------------------------------------- *)
(* phold-hope                                                        *)

let phold_hope_params = function
  | Full ->
    {
      Phold.default_params with
      n_lps = 4;
      jobs = 8;
      horizon = 15.0;
      latency = Latency.lan;
    }
  | Small -> { Phold.default_params with n_lps = 4; jobs = 8; horizon = 4.0 }

let phold_json (p : Phold.params) =
  [
    ("n_lps", int p.Phold.n_lps);
    ("jobs", int p.jobs);
    ("mean_delay", num p.mean_delay);
    ("remote_prob", num p.remote_prob);
    ("horizon", num p.horizon);
    ("event_cost_s", num p.event_cost);
    ("latency", Json.String "lan");
  ]

let phold_hope =
  {
    name = Spec.phold_hope;
    why =
      "HOPE at its most expensive: hundreds of engine events and thousands \
       of cycle cuts per committed event; the journal mostly finalizes";
    committed_unit = "committed PHOLD event";
    domains = 1;
    replicas = 12;
    latency = Latency.lan;
    params = (fun size -> phold_json (phold_hope_params size));
    prepare =
      (fun size ~seed ->
        let p = phold_hope_params size in
        let oracle = Phold.run_sequential p in
        let rep ~traced =
          hope_rep ~traced ~committed:oracle.Phold.handled_total
            (fun ~obs ~on_setup ->
              let o = Phold.run_hope ~seed ?obs ~on_setup p in
              if o.Phold.checksums <> oracle.checksums then
                failwith "phold-hope: LP checksums differ from run_sequential";
              if o.handled_total <> oracle.handled_total then
                failwith
                  (Printf.sprintf "phold-hope: %d events committed, oracle has %d"
                     o.handled_total oracle.handled_total);
              ( o.physical_time,
                Printf.sprintf "time=%h processed=%d rollbacks=%d messages=%d"
                  o.physical_time o.processed o.rollbacks o.messages ))
        in
        { reference_vs = None; rep });
  }

(* ---------------------------------------------------------------- *)
(* occ-hybrid-skew                                                   *)

let occ_params size =
  let clients, transactions = match size with Full -> (8, 1000) | Small -> (4, 40) in
  {
    Occ.default_params with
    clients;
    transactions;
    skew = 2.0;
    think_time = 2e-3;
    store_cost = 0.5e-3;
  }

let occ =
  {
    name = Spec.occ;
    why =
      "the only workload that runs the governor, the telemetry sampler and \
       the AID machine's pessimistic acquisition overlay";
    committed_unit = "transaction";
    domains = 1;
    replicas = 6;
    latency = Latency.man;
    params =
      (fun size ->
        let p = occ_params size in
        [
          ("clients", int p.Occ.clients);
          ("transactions", int p.transactions);
          ("keys", int p.keys);
          ("reads_per_txn", int p.reads_per_txn);
          ("writes_per_txn", int p.writes_per_txn);
          ("think_time_s", num p.think_time);
          ("store_cost_s", num p.store_cost);
          ("skew", num p.skew);
          ("latency", Json.String "man");
          ("mode", Json.String "hybrid (self-installed Policy.hybrid governor)");
        ]);
    prepare =
      (fun size ~seed ->
        let p = occ_params size in
        let pess = Occ.run ~seed ~mode:`Pessimistic p in
        let committed = p.clients * p.transactions in
        let rep ~traced =
          hope_rep ~traced ~committed (fun ~obs ~on_setup ->
              let r = Occ.run ~seed ?obs ~on_setup ~mode:`Hybrid p in
              ( r.Occ.makespan,
                Printf.sprintf "makespan=%h aborts=%d rollbacks=%d escalations=%d waits=%d"
                  r.makespan r.aborts r.rollbacks r.escalations r.acquire_waits ))
        in
        { reference_vs = Some pess.Occ.makespan; rep });
  }

(* ---------------------------------------------------------------- *)
(* phold-parallel                                                    *)

let parallel_domains = 2
let parallel_grain = 2000

let parallel_params size =
  {
    Phold.default_params with
    n_lps = 16;
    jobs = 64;
    remote_prob = 0.5;
    horizon = (match size with Full -> 4000.0 | Small -> 60.0);
  }

(* The initial events, one per job, drawn from the seed: destination LP,
   first timestamp, and job identities (which fix each job's trajectory,
   since PHOLD routes by (job, hop)). *)
let parallel_inputs (p : Phold.params) ~seed =
  let rng = Rng.create ~seed in
  List.init p.jobs (fun j ->
      let dst = Rng.int rng p.n_lps in
      let ts = Float.max 1e-9 (Rng.exponential rng ~mean:p.mean_delay) in
      (dst, ts, { Job.job_id = (seed * p.jobs) + j; hop = 0 }))

(* Per-layer counts of a sharded run, from its result record. *)
let shard_counts (r : _ Shard.result) =
  let committed = float_of_int r.committed in
  let per1k x = 1000.0 *. float_of_int x /. committed in
  [
    ("sim.events_per_commit", float_of_int r.processed /. committed);
    ("shard.commit_ratio", committed /. float_of_int r.processed);
    ("shard.rollbacks_per_1k_commits", per1k r.rollbacks);
    ("shard.anti_messages_per_1k_commits", per1k r.anti_messages);
    ("shard.annihilations_per_1k_commits", per1k r.annihilations);
    ("shard.remote_sends_per_commit", float_of_int r.remote_sends /. committed);
    ("shard.full_spins", float_of_int r.full_spins);
    ("shard.gvt_rounds", float_of_int r.gvt_rounds);
    ("shard.max_rollback_depth", float_of_int r.max_rollback_depth);
  ]

(* On a traced run the model's handler is wrapped with a per-domain clock
   (LP [lp] runs on the domain that owns it) and every shard records into
   an event store. *)
let parallel_run spec ~seed ~traced =
  if not traced then (Shard.run ~domains:parallel_domains ~seed spec, [], 0.0)
  else begin
    let model_s = Array.make parallel_domains 0.0 in
    let stores = Array.init parallel_domains (fun _ -> fresh_store ()) in
    let handle ~lp ~ts st job =
      let t0 = Unix.gettimeofday () in
      let r = spec.Shard.model.Timewarp.handle ~lp ~ts st job in
      let d = Context.owner ~shards:parallel_domains lp in
      model_s.(d) <- model_s.(d) +. (Unix.gettimeofday () -. t0);
      r
    in
    let spec = { spec with model = { spec.model with handle } } in
    let r =
      Shard.run ~domains:parallel_domains ~seed ~obs_shard:(fun i -> Some stores.(i)) spec
    in
    let emits = Array.fold_left (fun acc s -> acc + Recorder.size s) 0 stores in
    ( r,
      [ ("obs.emits_per_commit", float_of_int emits /. float_of_int r.committed) ],
      Array.fold_left ( +. ) 0.0 model_s )
  end

let parallel =
  {
    name = Spec.parallel;
    why =
      "the only path through the rings, GVT and anti-messages; it bypasses \
       the HOPE runtime, so it is the no-change control for HOPE layers";
    committed_unit = "committed PHOLD event";
    domains = parallel_domains;
    replicas = 1;
    latency = Latency.lan;
    params =
      (fun size ->
        phold_json (parallel_params size)
        @ [
            ("domains", int parallel_domains);
            ("grain", int parallel_grain);
            ("initial_events", Json.String "generated from the seed");
          ]);
    prepare =
      (fun size ~seed ->
        let p = parallel_params size in
        let seeds = parallel_inputs p ~seed in
        let oracle =
          Timewarp.Sequential.run (Phold.model p) ~n_lps:p.n_lps ~horizon:p.horizon
            ~seeds
        in
        let spec = { (Phold.shard_spec ~grain:parallel_grain p) with Shard.seeds } in
        let rep ~traced =
          let r, traced, model_s = parallel_run spec ~seed ~traced in
          if r.Shard.committed <> oracle.Timewarp.Sequential.events then
            failwith
              (Printf.sprintf "phold-parallel: %d events committed, oracle has %d"
                 r.committed oracle.events);
          if r.states <> oracle.states then
            failwith "phold-parallel: LP states differ from Timewarp.Sequential";
          {
            committed = r.committed;
            makespan_vs = r.commits.(r.committed - 1).Shard.c_recv_ts;
            counts = shard_counts r;
            traced;
            model_s;
            (* which events roll back depends on the domains' race, but
               the sorted commit sequence does not *)
            fingerprint =
              Printf.sprintf "committed=%d digest=%d" r.committed (Shard.commits_digest r);
          }
        in
        { reference_vs = None; rep });
  }

let all = [ callstream; phold_hope; occ; parallel ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Replica [k] runs at [seed + k * 1_000_003]; replica 0 at [seed]
   itself. A shrunk run has one replica. *)
let replica_seeds w size ~seed =
  let n = match size with Full -> w.replicas | Small -> 1 in
  List.init n (fun k -> seed + (k * 1_000_003))

(* A rep's outcome over its replicas: committed units and model time
   add up, makespan and per-layer values are the replicas' means (every
   replica of a workload commits the same number of units, so a mean of
   per-commit values is the per-commit value of the whole rep). *)
let combine = function
  | [ o ] -> o
  | os ->
    let n = float_of_int (List.length os) in
    let total get = List.fold_left (fun acc o -> acc +. get o) 0.0 os in
    let mean get = total get /. n in
    let means get =
      List.map (fun (k, _) -> (k, mean (fun o -> List.assoc k (get o)))) (get (List.hd os))
    in
    {
      committed = List.fold_left (fun acc o -> acc + o.committed) 0 os;
      makespan_vs = mean (fun o -> o.makespan_vs);
      counts = means (fun o -> o.counts);
      traced = means (fun o -> o.traced);
      model_s = total (fun o -> o.model_s);
      fingerprint = String.concat "; " (List.map (fun o -> o.fingerprint) os);
    }
