(* The experiment harness: regenerates every evaluation claim of the paper
   (see DESIGN.md §4 and EXPERIMENTS.md for the claim-to-experiment map).

     dune exec bench/main.exe            -- run all experiment tables
     dune exec bench/main.exe -- e1 e4   -- run a subset
     dune exec bench/main.exe -- micro   -- bechamel micro-benchmarks only

   Experiments measure virtual time on the deterministic simulator, so
   every number below is reproducible bit-for-bit. The bechamel section
   measures real CPU time of the hot paths. *)

module Report = Hope_workloads.Report
module Pipeline = Hope_workloads.Pipeline
module Replication = Hope_workloads.Replication
module Phold = Hope_workloads.Phold
module Recovery = Hope_workloads.Recovery
module Occ = Hope_workloads.Occ
module Scientific = Hope_workloads.Scientific
module Latency = Hope_net.Latency
module Control = Hope_core.Control
module Obs = Hope_obs.Obs
module Recorder = Hope_obs.Recorder
module Analytics = Hope_obs.Analytics
module Monitor = Hope_obs.Monitor
module Engine = Hope_sim.Engine
module Telemetry = Hope_sim.Telemetry
module Metrics = Hope_sim.Metrics

(* --trace support. Every optimistic run below is captured through a
   fresh recorder so its table can print speculation-cost columns; when
   [--trace FILE] is given, the last capture of the last requested
   experiment is exported (runs are deterministic, so the exported trace
   is too). *)
let trace_file : string option ref = ref None
let trace_format = ref Obs.Chrome
let last_recorder : Recorder.t option ref = ref None
let last_monitor : Monitor.t option ref = ref None

(* Every instrumented run also carries a live Monitor riding the
   recorder's tap: the stored stream feeds Analytics post-hoc, the tap
   feeds the online gauges (peak-open column below) — same event stream,
   both consumers. *)
let recorder () =
  let r = Recorder.create () in
  Recorder.enable r;
  let m = Monitor.create () in
  Monitor.attach m r;
  last_recorder := Some r;
  last_monitor := Some m;
  r

let monitor_peak () =
  match !last_monitor with Some m -> Monitor.peak_open_intervals m | None -> 0

(* --json support: every experiment appends one row per printed table
   line, its [~key] (the knobs that select the line) apart from what it
   measures. A row whose words are a statistical estimate says so with
   [~estimate:true]. Each group also states its claims as gate rows
   ([gate]). Everything is written as one hope-bench/2 document on exit,
   which bench/compare.exe diffs against bench/snapshots/baseline.json. *)
let json_file : string option ref = ref None
let json_rows : Json_out.t list ref = ref []
let gate_rows : Gate.t list ref = ref []

let row ?(estimate = false) experiment ~key metrics =
  let open Json_out in
  json_rows :=
    Obj [ ("experiment", Str experiment); ("key", Obj key); ("metrics", Obj metrics);
          ("estimate", Bool estimate) ]
    :: !json_rows

let gate ?(fatal = true) experiment name value op bound =
  gate_rows := { Gate.experiment; gate = name; value; op; bound; fatal } :: !gate_rows

let jint k v = (k, Json_out.Int v)
let jfloat k v = (k, Json_out.Float v)
let jstr k v = (k, Json_out.Str v)
let jbool k v = (k, Json_out.Bool v)

(* wasted% and max-cascade for a captured run. *)
let speculation_cost r =
  let a = Analytics.of_recorder r in
  (100. *. a.Analytics.wasted_ratio, a.Analytics.max_cascade)

let header title claim =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=');
  Printf.printf "claim: %s\n\n" claim

(* --------------------------------------------------------------- *)

let e1 () =
  header "E1: Call Streaming hides RPC latency (Figures 1-2; up to ~70% claim)"
    "the optimistic worker beats synchronous RPC, with the win growing with \
     latency and assumption accuracy; the paper reports up to 70% saved";
  Printf.printf "%-10s %-10s %9s | %12s %12s %8s %8s %9s %8s %9s %10s\n"
    "latency" "accuracy" "sections" "pess (ms)" "opt (ms)" "speedup" "saved%"
    "rollbacks" "wasted%" "max casc" "peak open";
  List.iter
    (fun (lat_name, latency) ->
      List.iter
        (fun page_size ->
          let p = { Report.default_params with page_size } in
          let pess = Report.run ~latency ~mode:`Pessimistic p in
          let obs = recorder () in
          let opt = Report.run ~latency ~obs ~mode:`Optimistic p in
          let wasted, max_cascade = speculation_cost obs in
          let saved =
            100. *. (1. -. (opt.Report.completion_time /. pess.Report.completion_time))
          in
          let peak_open = monitor_peak () in
          Printf.printf
            "%-10s %9.0f%% %9d | %12.2f %12.2f %7.1fx %7.0f%% %9d %7.1f%% %9d \
             %10d\n"
            lat_name
            (100. *. Report.accuracy p)
            p.Report.sections
            (pess.Report.completion_time *. 1e3)
            (opt.Report.completion_time *. 1e3)
            (pess.Report.completion_time /. opt.Report.completion_time)
            saved opt.Report.rollbacks wasted max_cascade peak_open;
          row "e1"
            ~key:[ jstr "latency" lat_name; jint "sections" p.Report.sections ]
            [
              jfloat "pess_ms" (pess.Report.completion_time *. 1e3);
              jfloat "opt_ms" (opt.Report.completion_time *. 1e3);
              jfloat "saved_pct" saved;
              jint "rollbacks" opt.Report.rollbacks;
              jfloat "wasted_pct" wasted;
              jint "max_cascade" max_cascade;
              jint "peak_open" peak_open;
            ])
        [ 4; 10; 20; 100 ])
    [ ("lan", Latency.lan); ("man", Latency.man); ("wan", Latency.wan) ]

(* --------------------------------------------------------------- *)

let e2 () =
  header "E2: HOPE primitives are wait-free (title claim; §5 design criterion)"
    "no primitive execution ever blocks its process, at any system size; \
     local primitive cost is constant";
  Printf.printf "%-10s %12s %16s %12s %22s %8s %9s\n" "processes" "primitives"
    "primitive-parks" "recv-parks" "virtual cost/primitive" "wasted%" "max casc";
  List.iter
    (fun processes ->
      let obs = recorder () in
      let r = Scenarios.run_e2 ~obs ~processes ~rounds:20 () in
      let wasted, max_cascade = speculation_cost obs in
      Printf.printf "%-10d %12d %16d %12d %19.0f us %7.1f%% %9d\n"
        r.Scenarios.processes r.primitives r.parks r.recv_parks
        (r.virtual_cost_per_primitive *. 1e6)
        wasted max_cascade;
      row "e2"
        ~key:[ jint "processes" r.Scenarios.processes ]
        [
          jint "primitives" r.primitives;
          jint "primitive_parks" r.parks;
          jint "recv_parks" r.recv_parks;
          jfloat "wasted_pct" wasted;
          jint "max_cascade" max_cascade;
        ];
      if r.parks <> 0 then failwith "E2: wait-freedom violated!")
    [ 1; 8; 32; 128 ]

(* --------------------------------------------------------------- *)

let e3 () =
  header "E3: control-message cost of deep speculation (§6: \"quadratic in the\n\
          number of intervals and AIDs associated with an affirm\")"
    "messages per interval grow linearly with speculation depth, so the \
     total grows quadratically";
  Printf.printf "%-8s %12s %18s %22s %8s %9s\n" "depth" "intervals"
    "control msgs" "msgs per interval" "wasted%" "max casc";
  List.iter
    (fun depth ->
      let obs = recorder () in
      let r = Scenarios.run_e3 ~obs ~depth () in
      let wasted, max_cascade = speculation_cost obs in
      Printf.printf "%-8d %12d %18d %22.1f %7.1f%% %9d\n" r.Scenarios.depth
        r.intervals r.control_messages r.messages_per_interval wasted
        max_cascade;
      row "e3"
        ~key:[ jint "depth" r.Scenarios.depth ]
        [
          jint "intervals" r.intervals;
          jint "control_messages" r.control_messages;
          jfloat "messages_per_interval" r.messages_per_interval;
          jfloat "wasted_pct" wasted;
          jint "max_cascade" max_cascade;
        ])
    [ 2; 4; 8; 16; 32; 64 ]

(* --------------------------------------------------------------- *)

let e4 () =
  header "E4: dependency cycles (Figures 13-14): Algorithm 1 livelocks, \
          Algorithm 2 cuts"
    "interleaved mutual affirms form AID cycles; Algorithm 1 bounces \
     forever (event cap hit), Algorithm 2 detects them via UDO, quiesces, \
     and definitively affirms every cycle member";
  Printf.printf "%-6s %-12s %10s %10s %12s %14s %9s %8s %9s\n" "ring"
    "algorithm" "quiesced" "events" "cycle cuts" "control msgs" "all-True"
    "wasted%" "max casc";
  List.iter
    (fun ring ->
      List.iter
        (fun (name, algorithm) ->
          let obs = recorder () in
          let r = Scenarios.run_e4 ~obs ~ring ~algorithm ~event_cap:200_000 () in
          let wasted, max_cascade = speculation_cost obs in
          Printf.printf "%-6d %-12s %10b %10d %12d %14d %9b %7.1f%% %9d\n"
            r.Scenarios.ring name r.quiesced r.events r.cycle_cuts
            r.control_messages r.all_true wasted max_cascade;
          row "e4"
            ~key:[ jint "ring" r.Scenarios.ring; jstr "algorithm" name ]
            [
              jbool "quiesced" r.quiesced;
              jint "events" r.events;
              jint "cycle_cuts" r.cycle_cuts;
              jint "control_messages" r.control_messages;
              jbool "all_true" r.all_true;
            ])
        [ ("algorithm-1", Control.Algorithm_1); ("algorithm-2", Control.Algorithm_2) ])
    [ 2; 4; 8; 16 ]

(* --------------------------------------------------------------- *)

let e5 () =
  header "E5: optimism vs assumption accuracy (speculative pipeline)"
    "speculation beats waiting while assumptions are usually right; the \
     crossover appears as accuracy falls and rollback work dominates";
  Printf.printf "%-10s %14s %14s %9s %11s %9s %8s %9s\n" "accuracy" "pess (ms)"
    "spec (ms)" "speedup" "rollbacks" "denials" "wasted%" "max casc";
  List.iter
    (fun accuracy ->
      let p = { Pipeline.default_params with accuracy } in
      let pess = Pipeline.run ~mode:Pipeline.Pessimistic p in
      let obs = recorder () in
      let spec = Pipeline.run ~obs ~mode:(Pipeline.Speculative None) p in
      let wasted, max_cascade = speculation_cost obs in
      Printf.printf "%9.0f%% %14.2f %14.2f %8.2fx %11d %9d %7.1f%% %9d\n"
        (100. *. accuracy)
        (pess.Pipeline.completion_time *. 1e3)
        (spec.Pipeline.completion_time *. 1e3)
        (pess.Pipeline.completion_time /. spec.Pipeline.completion_time)
        spec.Pipeline.rollbacks spec.Pipeline.denials wasted max_cascade;
      row "e5"
        ~key:[ jfloat "accuracy" accuracy ]
        [
          jfloat "pess_ms" (pess.Pipeline.completion_time *. 1e3);
          jfloat "spec_ms" (spec.Pipeline.completion_time *. 1e3);
          jint "rollbacks" spec.Pipeline.rollbacks;
          jint "denials" spec.Pipeline.denials;
          jfloat "wasted_pct" wasted;
          jint "max_cascade" max_cascade;
        ])
    [ 1.0; 0.98; 0.95; 0.9; 0.8; 0.6; 0.4; 0.2 ]

(* --------------------------------------------------------------- *)

let e6 () =
  header "E6: speculation scope (§2.1: HOPE's unbounded scope vs static bounds)"
    "bounding outstanding assumptions (Bubenik-style window=1) forfeits \
     most of the win; HOPE's unbounded scope pipelines everything";
  Printf.printf "%-22s %14s %9s %11s %8s %9s\n" "mode" "time (ms)" "speedup"
    "rollbacks" "wasted%" "max casc";
  let p = { Pipeline.default_params with accuracy = 0.95 } in
  let pess = Pipeline.run ~mode:Pipeline.Pessimistic p in
  let base = pess.Pipeline.completion_time in
  Printf.printf "%-22s %14.2f %9s %11d %8s %9s\n" "pessimistic" (base *. 1e3)
    "1.0x" pess.Pipeline.rollbacks "-" "-";
  List.iter
    (fun (name, window) ->
      let obs = recorder () in
      let r = Pipeline.run ~obs ~mode:(Pipeline.Speculative window) p in
      let wasted, max_cascade = speculation_cost obs in
      Printf.printf "%-22s %14.2f %8.2fx %11d %7.1f%% %9d\n" name
        (r.Pipeline.completion_time *. 1e3)
        (base /. r.Pipeline.completion_time)
        r.Pipeline.rollbacks wasted max_cascade;
      row "e6"
        ~key:[ jstr "mode" name ]
        [
          jfloat "time_ms" (r.Pipeline.completion_time *. 1e3);
          jfloat "speedup" (base /. r.Pipeline.completion_time);
          jint "rollbacks" r.Pipeline.rollbacks;
          jfloat "wasted_pct" wasted;
          jint "max_cascade" max_cascade;
        ])
    [
      ("window=1 (static)", Some 1);
      ("window=2", Some 2);
      ("window=4", Some 4);
      ("window=8", Some 8);
      ("unbounded (HOPE)", None);
    ]

(* --------------------------------------------------------------- *)

let e7 () =
  header "E7: generality vs overhead — Time Warp [14] vs HOPE on PHOLD"
    "both optimistic engines reproduce the sequential result exactly; the \
     dedicated engine (one wired-in assumption) needs far fewer messages \
     than the general one";
  Printf.printf "%-8s %-12s %8s %10s %11s %10s %14s %9s %8s %9s\n" "remote%"
    "engine" "events" "executed" "rollbacks" "messages" "physical (ms)"
    "correct" "wasted%" "max casc";
  List.iter
    (fun remote_prob ->
      let p = { Phold.default_params with remote_prob } in
      let seq = Phold.run_sequential p in
      let show ?cost name (o : Phold.outcome) =
        let wasted, max_cascade =
          match cost with
          | Some (w, c) -> (Printf.sprintf "%.1f%%" w, string_of_int c)
          | None -> ("-", "-")
        in
        Printf.printf "%-8.0f %-12s %8d %10d %11d %10d %14.2f %9b %8s %9s\n"
          (100. *. remote_prob) name o.Phold.handled_total o.processed
          o.rollbacks o.messages
          (o.physical_time *. 1e3)
          (o.checksums = seq.Phold.checksums)
          wasted max_cascade;
        row "e7"
          ~key:[ jfloat "remote_prob" remote_prob; jstr "engine" name ]
          [
            jint "events" o.Phold.handled_total;
            jint "executed" o.processed;
            jint "rollbacks" o.rollbacks;
            jint "messages" o.messages;
            jfloat "physical_ms" (o.physical_time *. 1e3);
            jbool "correct" (o.checksums = seq.Phold.checksums);
          ]
      in
      show "sequential" seq;
      show "time-warp" (Phold.run_timewarp p);
      let obs = recorder () in
      let hope = Phold.run_hope ~obs p in
      show ~cost:(speculation_cost obs) "hope" hope)
    [ 0.1; 0.5; 0.9 ]

(* --------------------------------------------------------------- *)

let e8 () =
  header "E8: optimistic replication (reference [5])"
    "optimistic apply wins while conflicts are rare; pessimistic \
     primary-copy wins once rollback work dominates";
  Printf.printf "%-14s %14s %14s %9s %11s %10s\n" "conflict rate" "pess (up/s)"
    "opt (up/s)" "speedup" "rollbacks" "conflicts";
  List.iter
    (fun conflict_rate ->
      let p = { Replication.default_params with conflict_rate } in
      let pess = Replication.run ~mode:`Pessimistic p in
      let opt = Replication.run ~mode:`Optimistic p in
      Printf.printf "%-14.2f %14.0f %14.0f %8.2fx %11d %10d\n" conflict_rate
        pess.Replication.throughput opt.Replication.throughput
        (opt.Replication.throughput /. pess.Replication.throughput)
        opt.Replication.rollbacks opt.Replication.conflicts;
      row "e8"
        ~key:[ jfloat "conflict_rate" conflict_rate ]
        [
          jfloat "pess_updates_per_s" pess.Replication.throughput;
          jfloat "opt_updates_per_s" opt.Replication.throughput;
          jint "rollbacks" opt.Replication.rollbacks;
          jint "conflicts" opt.Replication.conflicts;
        ])
    [ 0.0; 0.02; 0.05; 0.1; 0.2; 0.4 ]

(* --------------------------------------------------------------- *)

let e9 () =
  header "E9: optimistic message-logging recovery (Strom & Yemini [20])"
    "delivering before log-stability wins while crashes are rare; crash \
     recovery is rollback re-execution instead of blocking";
  Printf.printf "%-12s %14s %14s %9s %11s %9s\n" "crash rate" "pess (ms)"
    "opt (ms)" "speedup" "rollbacks" "crashes";
  List.iter
    (fun crash_rate ->
      let p = { Recovery.default_params with crash_rate } in
      let pess = Recovery.run ~mode:`Pessimistic p in
      let opt = Recovery.run ~mode:`Optimistic p in
      Printf.printf "%-12.2f %14.2f %14.2f %8.2fx %11d %9d\n" crash_rate
        (pess.Recovery.makespan *. 1e3)
        (opt.Recovery.makespan *. 1e3)
        (pess.Recovery.makespan /. opt.Recovery.makespan)
        opt.Recovery.rollbacks opt.Recovery.crashes;
      row "e9"
        ~key:[ jfloat "crash_rate" crash_rate ]
        [
          jfloat "pess_ms" (pess.Recovery.makespan *. 1e3);
          jfloat "opt_ms" (opt.Recovery.makespan *. 1e3);
          jint "rollbacks" opt.Recovery.rollbacks;
          jint "crashes" opt.Recovery.crashes;
        ])
    [ 0.0; 0.02; 0.05; 0.1; 0.2; 0.5 ]

(* --------------------------------------------------------------- *)

let e10 () =
  header "E10: optimistic convergence testing ([6], scientific computing)"
    "workers assume 'not converged' and race ahead of the reduction; the \
     speculation depth adapts to the reduction latency with no tuning";
  Printf.printf "%-8s %14s %14s %9s %18s %11s\n" "latency" "pess (ms)"
    "opt (ms)" "speedup" "wasted iterations" "rollbacks";
  List.iter
    (fun (name, latency) ->
      let p = Scientific.default_params in
      let pess = Scientific.run ~latency ~mode:`Pessimistic p in
      let opt = Scientific.run ~latency ~mode:`Optimistic p in
      Printf.printf "%-8s %14.2f %14.2f %8.2fx %18d %11d\n" name
        (pess.Scientific.makespan *. 1e3)
        (opt.Scientific.makespan *. 1e3)
        (pess.Scientific.makespan /. opt.Scientific.makespan)
        opt.Scientific.wasted_iterations opt.Scientific.rollbacks;
      row "e10"
        ~key:[ jstr "latency" name ]
        [
          jfloat "pess_ms" (pess.Scientific.makespan *. 1e3);
          jfloat "opt_ms" (opt.Scientific.makespan *. 1e3);
          jint "wasted_iterations" opt.Scientific.wasted_iterations;
          jint "rollbacks" opt.Scientific.rollbacks;
        ])
    [ ("lan", Latency.lan); ("man", Latency.man); ("wan", Latency.wan) ]

(* --------------------------------------------------------------- *)

let e11 () =
  header "E11: ablations of the implementation's design choices (DESIGN.md §3)"
    "what each engineering decision buys, on the WAN report workload. The \
     terminal-state cache's effect here is message volume only: the Cancel \
     mechanism retracts stale messages at the source on this workload, and \
     the cache's convergence role shows up in adversarial self-messaging \
     patterns (see the chaos suite) rather than in this table";
  let p = Report.default_params in
  let base_config = Hope_core.Runtime.default_config in
  let run_with config =
    Scenarios.run_report_with_config ~latency:Latency.wan ~config p
  in
  Printf.printf "%-38s %12s %12s %11s\n" "configuration" "time (ms)" "messages"
    "rollbacks";
  List.iter
    (fun (name, config) ->
      let time, messages, rollbacks = run_with config in
      Printf.printf "%-38s %12.2f %12d %11d\n" name (time *. 1e3) messages
        rollbacks;
      row "e11"
        ~key:[ jstr "configuration" name ]
        [
          jfloat "time_ms" (time *. 1e3);
          jint "messages" messages;
          jint "rollbacks" rollbacks;
        ])
    [
      ("default (cache on, colocated AIDs)", base_config);
      ( "terminal-state cache OFF",
        { base_config with Hope_core.Runtime.cache_terminal_states = false } );
      ( "AIDs on the server's node",
        { base_config with Hope_core.Runtime.aid_placement = Hope_core.Runtime.Fixed_node 1 } );
      ( "buffered speculative denies",
        { base_config with Hope_core.Runtime.buffer_speculative_denies = true } );
    ];
  (* GC effectiveness on the same workload. *)
  let swept, retired = Scenarios.run_report_gc ~latency:Latency.wan p in
  Printf.printf
    "\nAID garbage collection after the run: %d of %d AID processes retired (%.0f%%)\n"
    retired swept
    (100.0 *. float_of_int retired /. float_of_int (max 1 swept));
  row "e11-gc" ~key:[] [ jint "swept" swept; jint "retired" retired ]

(* --------------------------------------------------------------- *)

let e12 () =
  header "E12: optimistic concurrency control ([17], §1's classic example)"
    "OCC-via-HOPE halves the per-transaction round trips of two-phase \
     locking when conflicts are rare — and exposes a cost of generality: \
     the store's rollback chain amplifies each abort into a cascade that \
     a dedicated OCC validator would not pay";
  Printf.printf "%-9s %-8s %14s %14s %9s %8s %11s %11s\n" "clients" "keys"
    "2PL (ms)" "OCC (ms)" "speedup" "aborts" "lock-waits" "rollbacks";
  let row clients keys =
    let p = { Occ.default_params with clients; keys } in
    let pess = Occ.run ~mode:`Pessimistic p in
    let opt = Occ.run ~mode:`Optimistic p in
    Printf.printf "%-9d %-8d %14.2f %14.2f %8.2fx %8d %11d %11d\n" clients keys
      (pess.Occ.makespan *. 1e3)
      (opt.Occ.makespan *. 1e3)
      (pess.Occ.makespan /. opt.Occ.makespan)
      opt.Occ.aborts pess.Occ.lock_waits opt.Occ.rollbacks;
    row "e12"
      ~key:[ jint "clients" clients; jint "keys" keys ]
      [
        jfloat "pess_ms" (pess.Occ.makespan *. 1e3);
        jfloat "opt_ms" (opt.Occ.makespan *. 1e3);
        jint "aborts" opt.Occ.aborts;
        jint "lock_waits" pess.Occ.lock_waits;
        jint "rollbacks" opt.Occ.rollbacks;
      ]
  in
  row 1 1024;
  List.iter (fun keys -> row 4 keys) [ 1024; 256; 64; 16; 4 ]

(* --------------------------------------------------------------- *)

let e13 () =
  header "E13: ordering hazards on non-FIFO networks (§3.1's Order assumption)"
    "on a reordering network (jittered latencies, no per-pair FIFO), S3 \
     can overtake S1; the WorryWart's free_of(Order) detects each \
     violation and rollback repairs it — the report still completes \
     correctly, at a measurable repair cost";
  Printf.printf "%-22s %14s %14s %18s %11s\n" "network" "pess (ms)" "opt (ms)"
    "order violations" "rollbacks";
  (* Latency jitter makes this experiment seed-sensitive: report the mean
     over five seeds. *)
  let p = Report.default_params in
  let jittery = Latency.Lognormal { median = 2e-3; sigma = 0.8 } in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let mean f = List.fold_left (fun a s -> a +. f s) 0.0 seeds /. 5.0 in
  List.iter
    (fun (name, fifo) ->
      let pess seed =
        (Report.run ~seed ~latency:jittery ~fifo ~mode:`Pessimistic p)
          .Report.completion_time
      in
      let opt seed = Report.run ~seed ~latency:jittery ~fifo ~mode:`Optimistic p in
      let opt_time s = (opt s).Report.completion_time in
      let violations s = float_of_int (opt s).Report.order_violations in
      let rollbacks s = float_of_int (opt s).Report.rollbacks in
      Printf.printf "%-22s %14.2f %14.2f %18.1f %11.1f\n" name
        (mean pess *. 1e3) (mean opt_time *. 1e3) (mean violations)
        (mean rollbacks);
      row "e13"
        ~key:[ jstr "network" name ]
        [
          jfloat "pess_ms" (mean pess *. 1e3);
          jfloat "opt_ms" (mean opt_time *. 1e3);
          jfloat "order_violations" (mean violations);
          jfloat "rollbacks" (mean rollbacks);
        ])
    [ ("FIFO (TCP-like)", true); ("non-FIFO (UDP-like)", false) ]

(* --------------------------------------------------------------- *)
(* Bechamel micro-benchmarks: real CPU cost of the hot paths.       *)
(* --------------------------------------------------------------- *)

(* bechamel 0.5.0's [minor_allocated] reads [(Gc.quick_stat ()).minor_words],
   which on OCaml 5 only advances at minor collections — workloads that
   allocate less than a minor heap per measurement batch read a flat
   counter and OLS-fit to 0. [Gc.minor_words ()] reads the domain-local
   allocation pointer and is exact, so register our own measure. *)
module Minor_words_exact = struct
  type witness = unit

  let label () = "minor-words-exact"
  let unit () = "mnw"
  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
end

let minor_words_instance =
  Bechamel.Measure.instance
    (module Minor_words_exact)
    (Bechamel.Measure.register (module Minor_words_exact))

(* Run one thunk under bechamel and return (ns/run, minor words/run)
   OLS estimates. *)
let measure_ns_and_words ~name fn =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage fn) in
  let instances = [ Toolkit.Instance.monotonic_clock; minor_words_instance ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
  let estimate instance =
    let analyzed =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance results
    in
    Hashtbl.fold
      (fun _name result acc ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Some est
        | Some _ | None -> acc)
      analyzed None
  in
  (estimate Toolkit.Instance.monotonic_clock, estimate minor_words_instance)

let micro () =
  header "MICRO: real CPU cost of the hot paths (bechamel)"
    "one Test.make per experiment family: the pure machines that every \
     table above exercises, measured in wall-clock nanoseconds and minor \
     words per run";
  let cases =
    [
      ( "e1:report-section-optimistic",
        fun () ->
          ignore
            (Report.run ~mode:`Optimistic
               { Report.default_params with sections = 5 }
              : Report.result) );
      ( "e2:guess-affirm-round",
        fun () -> ignore (Scenarios.run_e2 ~processes:1 ~rounds:5 ()) );
      ("e3:speculation-depth-8", fun () -> ignore (Scenarios.run_e3 ~depth:8 ()));
      ( "e4:ring-4-algorithm-2",
        fun () ->
          ignore
            (Scenarios.run_e4 ~ring:4 ~algorithm:Control.Algorithm_2
               ~event_cap:200_000 ()) );
      ( "e5:pipeline-10-tasks",
        fun () ->
          ignore
            (Pipeline.run ~mode:(Pipeline.Speculative None)
               { Pipeline.default_params with tasks = 10 }
              : Pipeline.result) );
      ( "e7:timewarp-phold",
        fun () ->
          ignore
            (Phold.run_timewarp { Phold.default_params with horizon = 3.0 }
              : Phold.outcome) );
      ( "e8:replication-2x10",
        fun () ->
          ignore
            (Replication.run ~mode:`Optimistic
               { Replication.default_params with replicas = 2; updates = 10 }
              : Replication.result) );
    ]
  in
  List.iter
    (fun (name, fn) ->
      match measure_ns_and_words ~name fn with
      | Some ns, Some words ->
        Printf.printf "%-32s %12.0f ns/run %14.0f mw/run\n" name ns words;
        (* a bechamel OLS fit under a time quota: it wobbles with load *)
        row "micro" ~estimate:true ~key:[ jstr "name" name ]
          [ jfloat "ns_per_run" ns; jfloat "minor_words_per_run" words ]
      | _ -> Printf.printf "%-32s (no estimate)\n" name)
    cases

(* --------------------------------------------------------------- *)
(* TAGGING: the dependency-set data path (hash-consed hybrid sets    *)
(* + History cumulative cache vs the seed's per-send Set.Make fold), *)
(* DOM registration in the AID machine, and one-AID bitset edits.    *)
(* --------------------------------------------------------------- *)

let tagging () =
  header
    "TAGGING: cumulative-tag-set cost per speculative send, DOM cost per \
     Guess, bitset edit cost"
    "every speculative send tags the message with the union of all live \
     IDO sets; the hash-consed sets plus the History cache must cut \
     allocations per tagged send by >=2x at depth 64 versus the previous \
     per-send Set.Make fold; a Guess into an AID costs the same at any \
     DOM size (<=3x from 64 to 4096 registered intervals); and adding or \
     removing one AID of a 4096-AID bitset allocates at most card/8 words";
  let open Hope_types in
  let module History = Hope_core.History in
  let module Tree = Set.Make (struct
    type t = Aid.t

    let compare = Aid.compare
  end) in
  let aid k = Aid.of_proc (Proc_id.of_int (1000 + k)) in
  (* When this group runs after the full experiment suite the major heap
     is large and minor collections dominate both sides equally; compact
     first so the per-send numbers are closer to the standalone run. *)
  Gc.compact ();
  Printf.printf "%-6s %-26s %12s %18s %12s\n" "depth" "implementation"
    "ns/send" "minor words/send" "alloc ratio";
  List.iter
    (fun depth ->
      (* Interval k inherits the whole cumulative set, so its IDO carries
         k+1 AIDs — the shape Runtime.begin_interval builds. The baseline
         reproduces the seed data path exactly: one Set.Make union fold
         over the live IDO sets per send. *)
      let hist = History.create (Proc_id.of_int 0) in
      let cum = ref Aid.Set.empty in
      let tree_cum = ref Tree.empty in
      let tree_idos = ref [] in
      for k = 0 to depth - 1 do
        cum := Aid.Set.add (aid k) !cum;
        tree_cum := Tree.add (aid k) !tree_cum;
        ignore
          (History.push hist ~kind:History.Explicit ~ido:!cum ~now:0.0
            : History.interval);
        tree_idos := !tree_cum :: !tree_idos
      done;
      let tree_sets = !tree_idos in
      let src = Proc_id.of_int 0 and dst = Proc_id.of_int 1 in
      let send_with tags =
        ignore
          (Envelope.make ~id:0 ~src ~dst
             (Envelope.User { value = Value.Int 42; tags })
            : Envelope.t)
      in
      let baseline () =
        (* tag = fold of per-interval tree sets; the envelope itself is
           included so both sides measure a whole tagged send *)
        ignore (List.fold_left Tree.union Tree.empty tree_sets : Tree.t);
        send_with !cum
      in
      let hope () = send_with (History.cumulative_ido hist) in
      let print_one name ns words ratio =
        Printf.printf "%-6d %-26s %12.1f %18.1f %12s\n" depth name ns words
          ratio
      in
      match
        ( measure_ns_and_words ~name:(Printf.sprintf "base-%d" depth) baseline,
          measure_ns_and_words ~name:(Printf.sprintf "hope-%d" depth) hope )
      with
      | (Some bns, Some bw), (Some hns, Some hw) ->
        let ratio = bw /. Float.max hw 1e-3 in
        print_one "Set.Make fold (seed)" bns bw "1.0";
        print_one "hash-consed cache" hns hw (Printf.sprintf "%.1fx" ratio);
        List.iter
          (fun (impl, ns, words) ->
            row "tagging"
              ~key:[ jint "depth" depth; jstr "impl" impl ]
              [
                jfloat "ns_per_send" ns;
                jfloat "minor_words_per_send" words;
                jfloat "alloc_ratio_vs_baseline"
                  (if impl = "setmake_fold" then 1.0 else ratio);
              ])
          [ ("setmake_fold", bns, bw); ("hashconsed_cache", hns, hw) ];
        if depth = 64 then
          gate "tagging" "depth=64 alloc_ratio_vs_baseline" ratio Gate.Ge 2.0
      | _ -> Printf.printf "%-6d (no estimate)\n" depth)
    [ 1; 8; 64 ];
  let stats = Aid_set.stats () in
  Printf.printf "\nunion memo: %d hits, %d computed\n"
    stats.Aid_set.unions_memoized stats.Aid_set.unions_computed;
  row "tagging-memo" ~key:[]
    [
      jint "unions_memoized" stats.Aid_set.unions_memoized;
      jint "unions_computed" stats.Aid_set.unions_computed;
    ];
  (* DOM registration: a Guess into a Hot AID must cost the same whatever
     its DOM already holds. A sample primes [4096 / dom] AIDs with [dom]
     Guesses each (untimed), then times the next [dom / 4] Guesses into
     every one of them: at these power-of-two sizes the registry doubles
     inside that window, so its growth is amortised as it is in a run.
     Timed Guesses name ids no AID has seen, so no memoized union can
     answer them. Words are minor plus direct-major: arrays of 256 words
     or more skip the minor heap. *)
  let module M = Hope_core.Aid_machine in
  let clock = Bechamel.Toolkit.Monotonic_clock.make () in
  let now () = Bechamel.Toolkit.Monotonic_clock.get clock in
  (* an odd multiplier permutes [0, 2^16): ids arrive out of order *)
  let iid owner k =
    Interval_id.make ~owner:(Proc_id.of_int owner) ~seq:((k * 40503) land 0xFFFF)
  in
  let no_reply _ _ _ = () in
  let fresh_owner = ref 0 in
  (* ns, minor words and direct-major words per op of [work ()], which
     performs [ops] ops; young arrays pay their promotion, as large ones
     pay the major heap *)
  let per_op ops work =
    Gc.minor ();
    let _, p0, j0 = Gc.counters () in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    work ();
    let w1 = Gc.minor_words () in
    Gc.minor ();
    let t1 = now () in
    let _, p1, j1 = Gc.counters () in
    let n = float_of_int ops in
    ((t1 -. t0) /. n, (w1 -. w0) /. n, (j1 -. j0 -. (p1 -. p0)) /. n)
  in
  let sample dom =
    let machines = 4096 / dom and window = dom / 4 in
    let ms =
      Array.init machines (fun _ ->
          let m = M.create (aid 0) in
          for k = 0 to dom - 1 do
            M.handle_into m (Wire.Guess { iid = iid 0 k }) ~reply:no_reply
          done;
          m)
    in
    let guesses =
      Array.init machines (fun _ ->
          incr fresh_owner;
          Array.init window (fun k -> Wire.Guess { iid = iid !fresh_owner k }))
    in
    per_op (machines * window) (fun () ->
        Array.iteri
          (fun i m -> Array.iter (fun g -> M.handle_into m g ~reply:no_reply) guesses.(i))
          ms)
  in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  Printf.printf "\n%-6s %-26s %12s %18s %18s\n" "dom" "implementation" "ns/guess"
    "minor words/guess" "major words/guess";
  let ns_at =
    List.map
      (fun dom ->
        let samples = List.init 7 (fun _ -> sample dom) in
        let ns = median (List.map (fun (t, _, _) -> t) samples)
        and minor = median (List.map (fun (_, w, _) -> w) samples)
        and major = median (List.map (fun (_, _, w) -> w) samples) in
        Printf.printf "%-6d %-26s %12.1f %18.1f %18.1f\n" dom "append-only registry" ns
          minor major;
        row "tagging"
          ~key:[ jint "dom" dom; jstr "impl" "dom_registry" ]
          [ jfloat "ns_per_guess" ns; jfloat "alloc_words_per_guess" (minor +. major) ];
        (dom, ns))
      [ 64; 4096 ]
  in
  gate "tagging" "dom=4096 ns_per_guess <= 3 * dom=64 ns_per_guess"
    (List.assoc 4096 ns_at) Gate.Le
    (3.0 *. List.assoc 64 ns_at);
  (* Bitset edits: Replace handling adds and removes single AIDs of IDO
     and UDO sets. A sample holds [card] AIDs at every other index (AIDs
     interleave with user pids), a bitset of about card/31 words, and
     adds then removes an absent AID inside its range, [edits] times; an
     op is one add or one remove. An edit copies those words once, so its
     cost grows with card/31, not with card. Words are minor plus
     direct-major, as for the DOM rows. *)
  let edits = 1024 in
  let edit_sample card =
    let s = Aid.Set.of_list (List.init card (fun k -> aid (2 * k))) in
    let probes = Array.init edits (fun k -> aid ((2 * ((k * 97) mod card)) + 1)) in
    per_op (2 * edits) (fun () ->
        Array.iter (fun x -> ignore (Aid.Set.remove x (Aid.Set.add x s) : Aid.Set.t)) probes)
  in
  Printf.printf "\n%-6s %-26s %12s %18s %18s\n" "card" "implementation" "ns/op"
    "minor words/op" "major words/op";
  List.iter
    (fun card ->
      let samples = List.init 7 (fun _ -> edit_sample card) in
      let ns = median (List.map (fun (t, _, _) -> t) samples)
      and minor = median (List.map (fun (_, w, _) -> w) samples)
      and major = median (List.map (fun (_, _, w) -> w) samples) in
      Printf.printf "%-6d %-26s %12.1f %18.1f %18.1f\n" card "word-level bitset edit" ns
        minor major;
      row "tagging"
        ~key:[ jint "card" card; jstr "impl" "bitset_edit" ]
        [ jfloat "ns_per_op" ns; jfloat "alloc_words_per_op" (minor +. major) ];
      if card = 4096 then
        gate "tagging" "card=4096 alloc_words_per_op <= 512" (minor +. major) Gate.Le
          (float_of_int card /. 8.0))
    [ 64; 4096 ]

(* --------------------------------------------------------------- *)
(* EVENTS: the event-queue spine itself — the seed's boxed binary    *)
(* heap vs the unboxed 4-ary queue the engine now runs on.           *)
(* --------------------------------------------------------------- *)

let events () =
  header "EVENTS: event-queue churn, boxed binary heap vs unboxed 4-ary queue"
    "hold-model churn (pop the minimum, reschedule at a later time) at a \
     fixed pending-set depth; the old heap allocates a node per push and \
     an option per pop, the new queue stores priorities in a bare float \
     array and pops allocation-free; gate: >=1.1x throughput at depth 4096";
  let module Heap = Hope_sim.Heap in
  let module Equeue = Hope_sim.Equeue in
  Gc.compact ();
  (* Deterministic quasi-random reschedule delays; both sides draw the
     same sequence, so the two queues hold identical pending sets. *)
  let deltas =
    Array.init 1024 (fun i -> 0.5 +. (float_of_int ((i * 7919) land 1023) /. 1024.))
  in
  let churn = 64 in
  Printf.printf "%-8s %-22s %12s %16s %10s\n" "depth" "queue" "ns/event"
    "minor words/event" "speedup";
  List.iter
    (fun depth ->
      let h = Heap.create () in
      let q = Equeue.create ~dummy:(-1) () in
      for i = 0 to depth - 1 do
        Heap.push h ~priority:deltas.(i land 1023) i;
        Equeue.push q ~priority:deltas.(i land 1023) i
      done;
      let hi = ref 0 and qi = ref 0 in
      let heap_thunk () =
        for _ = 1 to churn do
          match Heap.pop h with
          | Some (p, _) ->
            incr hi;
            Heap.push h ~priority:(p +. deltas.(!hi land 1023)) !hi
          | None -> assert false
        done
      in
      let queue_thunk () =
        for _ = 1 to churn do
          let p = Equeue.min_prio q in
          let _v = Equeue.pop_min_exn q in
          incr qi;
          Equeue.push q ~priority:(p +. deltas.(!qi land 1023)) !qi
        done
      in
      match
        ( measure_ns_and_words ~name:(Printf.sprintf "heap-%d" depth) heap_thunk,
          measure_ns_and_words
            ~name:(Printf.sprintf "equeue-%d" depth)
            queue_thunk )
      with
      | (Some hns, Some hw), (Some qns, Some qw) ->
        let per x = x /. float_of_int churn in
        let speedup = hns /. Float.max qns 1e-3 in
        Printf.printf "%-8d %-22s %12.1f %16.2f %10s\n" depth
          "binary heap (seed)" (per hns) (per hw) "1.0";
        Printf.printf "%-8d %-22s %12.1f %16.2f %10s\n" depth
          "4-ary unboxed" (per qns) (per qw)
          (Printf.sprintf "%.2fx" speedup);
        List.iter
          (fun (impl, ns, words) ->
            row "events"
              ~key:[ jint "depth" depth; jstr "impl" impl ]
              [
                jfloat "ns_per_event" (per ns);
                jfloat "minor_words_per_event" (per words);
                jfloat "speedup_vs_heap"
                  (if impl = "binary_heap" then 1.0 else speedup);
              ])
          [ ("binary_heap", hns, hw); ("equeue_4ary", qns, qw) ];
        if depth = 4096 then
          gate "events" "depth=4096 speedup_vs_heap" speedup Gate.Ge 1.1
      | _ -> Printf.printf "%-8d (no estimate)\n" depth)
    [ 64; 4096; 65536 ]

(* --------------------------------------------------------------- *)
(* OBS: cost of the live-telemetry stack on the engine hot path.     *)
(* --------------------------------------------------------------- *)

let obs_bench () =
  header "OBS: live-telemetry overhead per engine event"
    "an attached health monitor plus the virtual-time sampler must cost \
     <= 2 minor words per executed engine event over the dark baseline \
     (the tap hands the payload to the monitor without materializing an \
     Event.t); the full event store is reported for scale but not gated \
     — it retains every event by design";
  let p = { Report.default_params with sections = 60 } in
  (* Allocation on the deterministic simulator is almost deterministic;
     the residue (interning tables warming up, hashtable growth carried
     across runs) only ever inflates a run, so min-of-3 is the clean
     estimate. *)
  let measure configure =
    let best = ref infinity in
    let events = ref 0 in
    for _ = 1 to 3 do
      let r = Recorder.create () in
      let eng_ref = ref None in
      let on_setup rt =
        let eng = Hope_proc.Scheduler.engine (Hope_core.Runtime.scheduler rt) in
        eng_ref := Some eng;
        configure r eng
      in
      let w0 = Gc.minor_words () in
      ignore
        (Report.run ~obs:r ~latency:Latency.wan ~on_setup ~mode:`Optimistic p
          : Report.result);
      let w1 = Gc.minor_words () in
      (match !eng_ref with
      | Some eng -> events := Engine.events_processed eng
      | None -> failwith "obs bench: workload never installed a runtime");
      best := Float.min !best (w1 -. w0)
    done;
    (!best, !events)
  in
  Gc.compact ();
  let configs =
    [
      ("disabled", fun _ _ -> ());
      ( "monitor+sampler",
        fun r eng ->
          let tele = Telemetry.create ~stride:1e-3 ~recorder:r () in
          Telemetry.install tele eng );
      ("event store", fun r _ -> Recorder.enable r);
    ]
  in
  Printf.printf "%-18s %14s %10s %12s %14s\n" "configuration" "minor words"
    "events" "mw/event" "overhead/evt";
  let results =
    List.map
      (fun (name, configure) ->
        let words, events = measure configure in
        (name, words, events))
      configs
  in
  let base_words =
    match results with ("disabled", w, _) :: _ -> w | _ -> assert false
  in
  List.iter
    (fun (name, words, events) ->
      let per = words /. float_of_int (max 1 events) in
      let over = (words -. base_words) /. float_of_int (max 1 events) in
      if name = "monitor+sampler" then
        gate "obs" "monitor+sampler overhead_mw_per_event" over Gate.Le 2.0;
      Printf.printf "%-18s %14.0f %10d %12.2f %14.2f\n" name words events per
        over;
      row "obs"
        ~key:[ jstr "config" name ]
        [
          jfloat "minor_words" words;
          jint "events" events;
          jfloat "minor_words_per_event" per;
          jfloat "overhead_mw_per_event" over;
        ])
    results

(* --------------------------------------------------------------- *)
(* GOV / E14: the governor under adversarial load (PR 6).           *)
(* --------------------------------------------------------------- *)

module Adversary = Hope_gov.Adversary

let gov () =
  header "E14 (gov): governor-on vs governor-off under adversarial load"
    "under the injected Algorithm-1 bounce the governor's churn-driven \
     cycle cut commits every interval where the ungoverned run livelocks; \
     under hostile denials, forged rollbacks, and flash crowds it keeps \
     the run legal while gating guesses, stalling sends, or cutting \
     cycles as policy demands; with 64 AIDs gated, the tick's throttled \
     count costs the same at 64 and 512 throttle cells (<=3x), and a \
     sampler stride does no per-instrument name lookup";
  Printf.printf "%-16s %-10s %8s %6s %7s %6s %7s %5s %5s %6s\n" "scenario"
    "governor" "events" "final" "rolled" "gated" "stalls" "cuts" "peak"
    "legal";
  List.iter
    (fun sc ->
      List.iter
        (fun governed ->
          let o = Adversary.run ~governed sc in
          Printf.printf "%-16s %-10s %8d %6d %7d %6d %7d %5d %5d %6b\n"
            o.Adversary.scenario
            (if governed then "on" else "off")
            o.Adversary.events o.Adversary.finalized o.Adversary.rolled_back
            o.Adversary.gated o.Adversary.send_stalls o.Adversary.forced_cuts
            o.Adversary.peak_open o.Adversary.legal;
          row "gov"
            ~key:[ jstr "scenario" o.Adversary.scenario; jbool "governed" governed ]
            [
              jint "events" o.Adversary.events;
              jint "guesses" o.Adversary.guesses;
              jint "finalized" o.Adversary.finalized;
              jint "rolled_back" o.Adversary.rolled_back;
              jint "gated" o.Adversary.gated;
              jint "send_stalls" o.Adversary.send_stalls;
              jint "forced_cuts" o.Adversary.forced_cuts;
              jint "peak_open" o.Adversary.peak_open;
              jint "compactions" o.Adversary.compactions;
              jint "arrivals_reclaimed" o.Adversary.arrivals_reclaimed;
              jbool "quiesced" o.Adversary.quiesced;
              jbool "legal" o.Adversary.legal;
            ])
        [ false; true ])
    Adversary.all;
  (* The governor's tick, once per sampler stride: the throttled count,
     which must cost per gated AID, not per AID ever tracked, and the
     sampler's registry read, which must not look up instrument names. *)
  let module Throttle = Hope_gov.Throttle in
  let clock = Bechamel.Toolkit.Monotonic_clock.make () in
  let now () = Bechamel.Toolkit.Monotonic_clock.get clock in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  (* Governed traffic as it comes: a replica tracks up to 421 AIDs
     (occ-hybrid-skew) and gates up to 119 at once (PHOLD, horizon 15).
     Every cell trips at 0 and has released by 1 s, when [gated] cells
     trip again; an untimed tick unlists the released ones. The timed
     ticks then span 4 ms of virtual time, inside the 27.7 ms hold of the
     re-tripped cells. *)
  let ticks = 4096 and gated = 64 in
  let tick_sample cells =
    let t = Throttle.create () in
    for key = 0 to cells - 1 do
      Throttle.bump t ~now:0.0 ~key 1.0
    done;
    for key = 0 to gated - 1 do
      Throttle.bump t ~now:1.0 ~key 1.0
    done;
    ignore (Throttle.throttled_count t ~now:1.0 : int);
    let t0 = now () in
    for k = 1 to ticks do
      ignore (Throttle.throttled_count t ~now:(1.0 +. (float_of_int k *. 1e-6)) : int)
    done;
    let ns = (now () -. t0) /. float_of_int ticks in
    if Throttle.throttled_count t ~now:1.004 <> gated then
      failwith "gov bench: wrong throttled count";
    ns
  in
  Printf.printf "\n%-6s %-26s %12s\n" "cells" "throttled_count" "ns/tick";
  let ns_at =
    List.map
      (fun cells ->
        let ns = median (List.init 7 (fun _ -> tick_sample cells)) in
        Printf.printf "%-6d %-26s %12.1f\n" cells (Printf.sprintf "%d gated" gated) ns;
        row "gov"
          ~key:[ jint "cells" cells; jint "gated" gated; jstr "impl" "throttle_tick" ]
          [ jfloat "ns_per_tick" ns ];
        (cells, ns))
      [ 64; 512 ]
  in
  gate "gov" "gated=64 cells=512 ns_per_tick <= 3 * cells=64 ns_per_tick"
    (List.assoc 512 ns_at) Gate.Le
    (3.0 *. List.assoc 64 ns_at);
  (* The sampler's stride on a registry shaped like occ-hybrid-skew's: 57
     counters and 7 gauges, besides the telemetry's own 11 sources. *)
  let counters = 57 and gauges = 7 and samples = 10_000 in
  let eng = Engine.create () in
  let tele = Telemetry.create ~recorder:(Engine.obs eng) () in
  Telemetry.install tele eng;
  let reg = Engine.metrics eng in
  for i = 1 to counters do
    Metrics.add (Metrics.counter reg (Printf.sprintf "bench.counter_%02d" i)) i
  done;
  for i = 1 to gauges do
    Metrics.set_gauge (Metrics.gauge reg (Printf.sprintf "bench.gauge_%d" i)) 0.5
  done;
  Telemetry.sample_now tele;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = now () in
  for _ = 1 to samples do
    Telemetry.sample_now tele
  done;
  let ns = (now () -. t0) /. float_of_int samples in
  let words = (Gc.minor_words () -. w0) /. float_of_int samples in
  Printf.printf "\n%-9s %-7s %12s %18s\n" "counters" "gauges" "ns/sample" "minor words/sample";
  Printf.printf "%-9d %-7d %12.1f %18.1f\n" counters gauges ns words;
  row "gov"
    ~key:[ jint "counters" counters; jint "gauges" gauges; jstr "impl" "sampler" ]
    [ jfloat "ns_per_sample" ns; jfloat "minor_words_per_sample" words ]

(* --------------------------------------------------------------- *)
(* E15 (rollback): incremental undo-journal storage vs the seed's    *)
(* eager per-interval tables (PR 7).                                 *)
(* --------------------------------------------------------------- *)

let rollback_bench () =
  header "E15 (rollback): journal suffix walk vs eager full-mailbox scan"
    "rollback and finalize must cost proportional to the records the \
     rolled (or released) intervals own: >=2x fewer minor words per \
     rolled-back interval at depth 64 than the eager storage the journal \
     replaced (Interval_id.Set over a full mailbox scan plus Hashtbl \
     churn), and a finalize-heavy 10k-message stream must keep resident \
     arrivals bounded by open speculation";
  let open Hope_types in
  let module Journal = Hope_proc.Journal in
  let module A = struct
    (* stand-in for the scheduler's arrival record: only the claim field
       matters to either storage scheme *)
    type arrival = { mutable owner : Interval_id.t option }
  end in
  Gc.compact ();
  (* Both sides store and undo the same speculative shape: [depth] nested
     intervals, each claiming [claims_per] arrivals out of a
     [resident]-entry mailbox and recording [sends_per] outgoing sends.
     One cycle = open everything, then undo everything — by rollback
     (journal suffix walk vs rolled-id set + full mailbox scan + send-list
     retrieval) or by finalize oldest-first (segment release vs the
     forget_sends/forget_checkpoint pair of Hashtbl removes). *)
  let resident = 256 in
  let claims_per = 2 and sends_per = 2 in
  Printf.printf "%-6s %-9s %-22s %12s %16s %12s\n" "depth" "path"
    "implementation" "ns/interval" "mw/interval" "alloc ratio";
  List.iter
    (fun depth ->
      let d = float_of_int depth in
      let iids =
        Array.init depth (fun k ->
            Interval_id.make ~owner:(Proc_id.of_int 7) ~seq:(k + 1))
      in
      let rolled = Array.to_list iids (* oldest first *) in
      let owner_opts = Array.map (fun iid -> Some iid) iids in
      (* -- journal side ------------------------------------------- *)
      let mailbox_j = Array.init resident (fun _ -> { A.owner = None }) in
      let j = Journal.create ~dummy:{ A.owner = None } ~dummy_ck:() () in
      let fill_journal () =
        for k = 0 to depth - 1 do
          Journal.open_segment j ~iid:iids.(k) ~ck:();
          for i = 0 to claims_per - 1 do
            let a = mailbox_j.((k * claims_per) + i) in
            a.A.owner <- owner_opts.(k);
            Journal.push_consume j a
          done;
          for i = 0 to sends_per - 1 do
            Journal.push_send j ~msg_id:((k * sends_per) + i) ~dst:1
          done
        done
      in
      let journal_rollback () =
        fill_journal ();
        ignore
          (Journal.rollback_to j iids.(0)
             ~consume:(fun a -> a.A.owner <- None)
             ~send:(fun ~msg_id:_ ~dst:_ -> ())
            : (unit * int) option)
      in
      let journal_finalize () =
        fill_journal ();
        Array.iter
          (fun iid ->
            ignore
              (Journal.release_oldest j iid ~consume:(fun a ->
                   a.A.owner <- None)
                : bool))
          iids
      in
      (* -- eager side (the storage scheme the journal replaced) ---- *)
      let mailbox_e = Array.init resident (fun _ -> { A.owner = None }) in
      let ckpts : (Interval_id.t, unit) Hashtbl.t = Hashtbl.create 64 in
      let sends : (Interval_id.t, (int * int) list) Hashtbl.t =
        Hashtbl.create 64
      in
      let fill_eager () =
        for k = 0 to depth - 1 do
          Hashtbl.replace ckpts iids.(k) ();
          for i = 0 to claims_per - 1 do
            mailbox_e.((k * claims_per) + i).A.owner <- owner_opts.(k)
          done;
          for i = 0 to sends_per - 1 do
            let existing =
              try Hashtbl.find sends iids.(k) with Not_found -> []
            in
            Hashtbl.replace sends iids.(k)
              ((((k * sends_per) + i), 1) :: existing)
          done
        done
      in
      let eager_rollback () =
        fill_eager ();
        let rolled_set = Interval_id.Set.of_list rolled in
        Array.iter
          (fun a ->
            match a.A.owner with
            | Some iid when Interval_id.Set.mem iid rolled_set ->
              a.A.owner <- None
            | Some _ | None -> ())
          mailbox_e;
        List.iter
          (fun iid ->
            (match Hashtbl.find_opt sends iid with
            | None -> ()
            | Some outgoing ->
              Hashtbl.remove sends iid;
              List.iter (fun (_msg_id, _dst) -> ()) (List.rev outgoing));
            Hashtbl.remove ckpts iid)
          rolled
      in
      let eager_finalize () =
        fill_eager ();
        List.iter
          (fun iid ->
            Hashtbl.remove sends iid;
            Hashtbl.remove ckpts iid)
          rolled
      in
      let per w = Float.max 0.0 w /. d in
      let emit path (jns, jw) (ens, ew) =
        let ratio = per ew /. Float.max (per jw) 1e-3 in
        Printf.printf "%-6d %-9s %-22s %12.1f %16.2f %12s\n" depth path
          "eager tables (seed)" (ens /. d) (per ew) "1.0";
        Printf.printf "%-6d %-9s %-22s %12.1f %16.2f %12s\n" depth path
          "undo journal" (jns /. d) (per jw)
          (Printf.sprintf "%.1fx" ratio);
        List.iter
          (fun (impl, ns, w) ->
            row "rollback"
              ~key:[ jint "depth" depth; jstr "path" path; jstr "impl" impl ]
              [
                jfloat "ns_per_interval" (ns /. d);
                jfloat "minor_words_per_interval" (per w);
                jfloat "alloc_ratio_vs_eager"
                  (if impl = "eager_tables" then 1.0 else ratio);
              ])
          [ ("eager_tables", ens, ew); ("undo_journal", jns, jw) ];
        if depth = 64 && path = "rollback" then
          gate "rollback" "depth=64 rollback alloc_ratio_vs_eager" ratio Gate.Ge
            2.0
      in
      match
        ( measure_ns_and_words
            ~name:(Printf.sprintf "jr-%d" depth)
            journal_rollback,
          measure_ns_and_words
            ~name:(Printf.sprintf "er-%d" depth)
            eager_rollback,
          measure_ns_and_words
            ~name:(Printf.sprintf "jf-%d" depth)
            journal_finalize,
          measure_ns_and_words
            ~name:(Printf.sprintf "ef-%d" depth)
            eager_finalize )
      with
      | ( (Some jr_ns, Some jr_w),
          (Some er_ns, Some er_w),
          (Some jf_ns, Some jf_w),
          (Some ef_ns, Some ef_w) ) ->
        emit "rollback" (jr_ns, jr_w) (er_ns, er_w);
        emit "finalize" (jf_ns, jf_w) (ef_ns, ef_w)
      | _ -> Printf.printf "%-6d (no estimate)\n" depth)
    [ 1; 8; 64 ];
  (* Residency under a finalize-heavy stream: without epoch compaction
     the mailbox would end at ~10k resident arrivals; with it the bound
     is the compaction threshold once speculation drains. *)
  let c = Scenarios.run_compaction ~messages:10_000 ~burst:50 () in
  Printf.printf
    "\nresidency: %d messages (%d consumed): final resident=%d peak=%d \
     (peak open=%d), %d compactions reclaimed %d arrivals, bounded=%b\n"
    c.Scenarios.messages c.Scenarios.consumed c.Scenarios.resident_final
    c.Scenarios.peak_resident c.Scenarios.peak_open c.Scenarios.compactions
    c.Scenarios.reclaimed c.Scenarios.bounded;
  row "rollback-residency"
    ~key:[ jint "messages" c.Scenarios.messages ]
    [
      jint "consumed" c.Scenarios.consumed;
      jint "resident_final" c.Scenarios.resident_final;
      jint "peak_resident" c.Scenarios.peak_resident;
      jint "peak_open" c.Scenarios.peak_open;
      jint "compactions" c.Scenarios.compactions;
      jint "arrivals_reclaimed" c.Scenarios.reclaimed;
    ];
  gate "rollback" "residency bounded by open speculation (1 = every round)"
    (if c.Scenarios.bounded then 1.0 else 0.0)
    Gate.Eq 1.0

(* --------------------------------------------------------------- *)

let hybrid_bench () =
  header
    "E16: hybrid optimistic/pessimistic execution (DESIGN.md §10, contention \
     sweep)"
    "per-AID escalation to queued acquisition collapses the hot-key retry \
     storm: hybrid beats pure OCC makespan at high skew and matches 2PL \
     within 10% at low skew, where escalation stays idle";
  Printf.printf "%-8s %-6s %12s %12s %12s | %8s %8s %9s %9s %13s\n" "clients"
    "skew" "2PL (ms)" "OCC (ms)" "hybrid (ms)" "aborts" "h-aborts" "h-rolls"
    "escalated" "acquire-waits";
  let point clients skew =
    (* Thinks and store CPU are scaled up from E12 so wasted optimistic
       work is expensive in the two currencies speculation burns: client
       re-think on retry, and shared store cycles per validation. *)
    let p =
      {
        Occ.default_params with
        clients;
        skew;
        think_time = 2e-3;
        store_cost = 0.5e-3;
      }
    in
    let pess = Occ.run ~mode:`Pessimistic p in
    let opt = Occ.run ~mode:`Optimistic p in
    let hyb = Occ.run ~mode:`Hybrid p in
    let ms (o : Occ.result) = o.Occ.makespan *. 1e3 in
    Printf.printf "%-8d %-6.1f %12.2f %12.2f %12.2f | %8d %8d %9d %9d %13d\n"
      clients skew (ms pess) (ms opt) (ms hyb) opt.Occ.aborts hyb.Occ.aborts
      hyb.Occ.rollbacks hyb.Occ.escalations hyb.Occ.acquire_waits;
    row "hybrid"
      ~key:[ jint "clients" clients; jfloat "skew" skew ]
      [
        jfloat "pess_ms" (ms pess);
        jfloat "opt_ms" (ms opt);
        jfloat "hybrid_ms" (ms hyb);
        jint "opt_aborts" opt.Occ.aborts;
        jint "hybrid_aborts" hyb.Occ.aborts;
        jint "hybrid_rollbacks" hyb.Occ.rollbacks;
        jint "escalations" hyb.Occ.escalations;
        jint "acquire_waits" hyb.Occ.acquire_waits;
      ];
    if clients = 8 && skew = 2.0 then
      gate "hybrid" "clients=8 skew=2 hybrid_ms < opt_ms" (ms hyb) Gate.Lt (ms opt);
    if clients = 4 && skew = 0.0 then
      gate "hybrid" "clients=4 skew=0 hybrid_ms <= 1.10 * pess_ms" (ms hyb) Gate.Le
        (1.10 *. ms pess)
  in
  List.iter
    (fun clients -> List.iter (fun skew -> point clients skew) [ 0.0; 1.2; 2.0 ])
    [ 4; 8 ]

(* --------------------------------------------------------------- *)

let parallel_bench () =
  header
    "E17: sharded multicore engine (Time Warp between OCaml 5 domains)"
    "the sharded executor commits the identical event set — same commit \
     digest, same committed count — at every domain count, and with \
     per-event CPU grain the 4-domain run clears 1.5x the 1-domain event \
     rate on a machine with >= 4 cores";
  let cores = Domain.recommended_domain_count () in
  let p =
    {
      Phold.default_params with
      n_lps = 16;
      jobs = 64;
      remote_prob = 0.5;
      horizon = 40.0;
    }
  in
  let grain = 2000 in
  Printf.printf "cores=%d  lps=%d jobs=%d horizon=%.0f grain=%d\n\n" cores
    p.Phold.n_lps p.Phold.jobs p.Phold.horizon grain;
  Printf.printf "%-8s %10s %10s %11s %9s %11s %13s %8s\n" "domains" "events"
    "processed" "rollbacks" "gvt" "wall (ms)" "events/sec" "speedup";
  let clock = Bechamel.Toolkit.Monotonic_clock.make () in
  (* rate, digest and committed count of the 1-domain reference run *)
  let base = ref (0.0, 0, 0) in
  List.iter
    (fun domains ->
      let t0 = Bechamel.Toolkit.Monotonic_clock.get clock in
      let o, r = Phold.run_parallel ~domains ~grain p in
      let t1 = Bechamel.Toolkit.Monotonic_clock.get clock in
      let wall_ns = t1 -. t0 in
      let events_per_sec = float_of_int o.Phold.handled_total /. (wall_ns *. 1e-9) in
      let digest = Hope_shard.Shard.commits_digest r in
      if domains = 1 then base := (events_per_sec, digest, o.Phold.handled_total);
      let base_rate, base_digest, base_events = !base in
      let speedup = events_per_sec /. base_rate in
      Printf.printf "%-8d %10d %10d %11d %9d %11.2f %13.0f %7.2fx\n" domains
        o.Phold.handled_total o.Phold.processed o.Phold.rollbacks
        r.Hope_shard.Shard.gvt_rounds (wall_ns *. 1e-6) events_per_sec speedup;
      row "parallel"
        ~key:
          [ jint "domains" domains; jint "lps" p.Phold.n_lps; jint "jobs" p.Phold.jobs;
            jint "grain" grain ]
        [
          jstr "trace_digest" (string_of_int digest);
          jint "cores" cores;
          jint "events" o.Phold.handled_total;
          jint "rollbacks" o.Phold.rollbacks;
          jfloat "wall_ns" wall_ns;
          jfloat "events_per_sec" events_per_sec;
        ];
      if domains > 1 then begin
        gate "parallel"
          (Printf.sprintf "domains=%d trace_digest matches 1 domain (1 = yes)" domains)
          (if digest = base_digest then 1.0 else 0.0)
          Gate.Eq 1.0;
        gate "parallel"
          (Printf.sprintf "domains=%d events = 1-domain events" domains)
          (float_of_int o.Phold.handled_total)
          Gate.Eq (float_of_int base_events)
      end;
      (* the speedup cannot physically exist on fewer than 4 cores *)
      if domains = 4 then
        gate ~fatal:(cores >= 4) "parallel" "domains=4 speedup vs 1 domain"
          speedup Gate.Ge 1.5)
    [ 1; 2; 4 ]

(* --------------------------------------------------------------- *)
(* OBS-PARALLEL: cost of the shard-aware telemetry stack (PR 10).   *)
(* --------------------------------------------------------------- *)

let obs_parallel_bench () =
  header "OBS-PARALLEL: shard-aware telemetry overhead at 4 domains"
    "absorbing a sharded run into the telemetry stack (per-shard labeled \
     registries plus GVT-epoch time series and health diagnostics) must \
     cost <= 2 minor words per processed event over the dark run — the \
     same per-event budget the sequential tap pays in OBS; the \
     provenance merge into the event store is reported for scale but not \
     gated — it retains every merged commit by design";
  let domains = 4 in
  let p =
    {
      Phold.default_params with
      n_lps = 16;
      jobs = 64;
      remote_prob = 0.5;
      horizon = 40.0;
    }
  in
  Gc.compact ();
  (* One deterministic sharded run; the observability passes under test
     all happen post-join on the calling domain (which also ran shard 0),
     so [Gc.minor_words] deltas around each pass are exact. *)
  let w0 = Gc.minor_words () in
  let _o, r = Phold.run_parallel ~domains p in
  let dark_words = Gc.minor_words () -. w0 in
  let shard0_events =
    Metrics.count
      (Metrics.counter
         (Engine.metrics r.Hope_shard.Shard.engines.(0))
         "shard.events")
  in
  (* Same denominator as the sequential OBS gate: every processed engine
     event (committed or later rolled back), summed across shards — the
     post-run absorb and merge cover all shards' data, so the budget is
     per event of work the whole run did. *)
  let events = r.Hope_shard.Shard.processed in
  let per w = w /. float_of_int (max 1 events) in
  (* Allocation residue (hashtable growth, interning warm-up) only ever
     inflates a pass, so min-of-3 is the clean estimate — same policy as
     the OBS group. *)
  let measure f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let a = Gc.minor_words () in
      f ();
      let b = Gc.minor_words () in
      best := Float.min !best (b -. a)
    done;
    !best
  in
  let absorb_words =
    measure (fun () ->
        let tele = Telemetry.create ~recorder:(Recorder.create ()) () in
        Telemetry.absorb_shards tele ~engines:r.Hope_shard.Shard.engines
          ~samples:r.Hope_shard.Shard.samples)
  in
  let merge_words =
    measure (fun () ->
        let store = Recorder.create () in
        Recorder.enable store;
        Hope_shard.Shard.merge_into store r)
  in
  Printf.printf "domains=%d  processed events=%d (shard 0 ran %d of them)\n\n"
    domains events shard0_events;
  Printf.printf "%-22s %14s %16s\n" "pass" "minor words" "mw/event";
  List.iter
    (fun (name, words) ->
      Printf.printf "%-22s %14.0f %16.2f\n" name words (per words);
      (* cross-domain scheduling makes the dark run's rollback churn,
         and so its words, vary from run to run *)
      row "obs-parallel" ~estimate:true
        ~key:[ jstr "config" name; jint "domains" domains ]
        [
          jfloat "minor_words" words;
          jint "events" events;
          jfloat "minor_words_per_event" (per words);
        ])
    [
      ("dark run (shard 0)", dark_words);
      ("telemetry absorb", absorb_words);
      ("provenance merge", merge_words);
    ];
  gate "obs-parallel" "domains=4 telemetry absorb overhead_mw_per_event"
    (per absorb_words) Gate.Le 2.0

(* --------------------------------------------------------------- *)

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e12", e12);
    ("e13", e13);
    ("micro", micro);
    ("tagging", tagging);
    ("events", events);
    ("obs", obs_bench);
    ("gov", gov);
    ("rollback", rollback_bench);
    ("hybrid", hybrid_bench);
    ("parallel", parallel_bench);
    ("obs-parallel", obs_parallel_bench);
  ]

let () =
  let rec parse names = function
    | [] -> List.rev names
    | "--trace" :: file :: rest ->
      trace_file := Some file;
      parse names rest
    | [ "--trace" ] ->
      Printf.eprintf "--trace requires a file argument\n";
      exit 1
    | "--trace-format" :: fmt :: rest ->
      (match Obs.format_of_string fmt with
      | Ok f ->
        trace_format := f;
        parse names rest
      | Error msg ->
        Printf.eprintf "--trace-format: %s\n" msg;
        exit 1)
    | [ "--trace-format" ] ->
      Printf.eprintf "--trace-format requires an argument (%s)\n"
        (String.concat "|" (List.map Obs.format_name Obs.all_formats));
      exit 1
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse names rest
    | [ "--json" ] ->
      Printf.eprintf "--json requires a file argument\n";
      exit 1
    | name :: rest -> parse (name :: names) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S (have: %s)\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    requested;
  if !gate_rows <> [] then begin
    header "GATES" "every claim stated above, as value op bound; bench/compare.exe \
      fails on a fatal gate that does not hold";
    List.iter
      (fun g -> Printf.printf "%-7s %s\n" (Gate.verdict g) (Gate.to_string g))
      (List.rev !gate_rows)
  end;
  (match (!trace_file, !last_recorder) with
  | Some file, Some r ->
    (try Obs.export_file !trace_format ~file (Recorder.events r)
     with Sys_error msg ->
       Printf.eprintf "--trace: cannot write trace: %s\n" msg;
       exit 1);
    Printf.printf "trace (%s, %d events) written to %s\n"
      (Obs.format_name !trace_format)
      (Recorder.size r) file
  | Some file, None ->
    Printf.eprintf "--trace %s: no instrumented experiment was run\n" file;
    exit 1
  | None, _ -> ());
  (match !json_file with
  | Some file ->
    let doc =
      Json_out.Obj
        [
          ("schema", Json_out.Str "hope-bench/2");
          ("experiments", Json_out.List (List.map (fun n -> Json_out.Str n) requested));
          ("rows", Json_out.List (List.rev !json_rows));
          ("gates", Json_out.List (List.rev_map Gate.to_json !gate_rows));
        ]
    in
    (try Json_out.write_file ~file doc
     with Sys_error msg ->
       Printf.eprintf "--json: cannot write results: %s\n" msg;
       exit 1);
    Printf.printf "json results (%d rows) written to %s\n"
      (List.length !json_rows) file
  | None -> ());
  print_newline ()
