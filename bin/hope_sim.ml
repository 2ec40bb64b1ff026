(* hope-sim: command-line driver for the HOPE workloads.

   Every experiment in bench/main.ml can be re-run here with custom
   parameters, e.g.

     hope-sim report --latency wan --page-size 10 --mode optimistic
     hope-sim pipeline --accuracy 0.8 --window 4
     hope-sim replication --conflict-rate 0.1 --mode pessimistic
     hope-sim phold --engine hope --jobs 16 --remote 0.9

   plus a shared observability surface on every workload: --trace FILE
   (post-hoc event-stream export, "-" for stdout), --metrics FILE
   (OpenMetrics snapshot of the live time series), --watch (periodic
   progress line), --health (exit nonzero on monitor diagnostics) and
   --check (run the Invariant checks after quiescence). *)

open Cmdliner
module Report = Hope_workloads.Report
module Pipeline = Hope_workloads.Pipeline
module Replication = Hope_workloads.Replication
module Phold = Hope_workloads.Phold
module Recovery = Hope_workloads.Recovery
module Scientific = Hope_workloads.Scientific
module Occ = Hope_workloads.Occ
module Latency = Hope_net.Latency
module Telemetry = Hope_sim.Telemetry
module Monitor = Hope_obs.Monitor
module Policy = Hope_gov.Policy
module Governor = Hope_gov.Governor
module Adversary = Hope_gov.Adversary

let latency_conv =
  let parse = function
    | "local" -> Ok Latency.local
    | "lan" -> Ok Latency.lan
    | "man" -> Ok Latency.man
    | "wan" -> Ok Latency.wan
    | s -> (
      match float_of_string_opt s with
      | Some d when d > 0.0 -> Ok (Latency.Constant d)
      | Some _ | None ->
        Error (`Msg (Printf.sprintf "unknown latency %S (local|lan|man|wan|<seconds>)" s)))
  in
  Arg.conv (parse, fun ppf l -> Latency.pp ppf l)

let latency_arg =
  Arg.(
    value
    & opt latency_conv Latency.wan
    & info [ "latency" ] ~docv:"MODEL" ~doc:"One-way latency: local, lan, man, wan, or seconds.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

(* Shared observability flags: every workload accepts the post-hoc trace
   capture of PR 1 plus the live-telemetry surface (time-series metrics,
   watch line, health monitor, invariant checks). *)

type obs_opts = {
  trace_file : string option;
  trace_format : Hope_obs.Obs.format;
  metrics_file : string option;
  watch : float option;
  health : bool;
  check : bool;
  stride : float;
  monitor : Monitor.config;
  governor : Policy.t option;
}

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Capture the speculation-event stream and write it to $(docv) \
           after the run ($(b,-) writes to stdout; see --trace-format).")

let trace_format_arg =
  let parse s =
    match Hope_obs.Obs.format_of_string s with
    | Ok f -> Ok f
    | Error m -> Error (`Msg m)
  in
  let format_conv =
    Arg.conv
      (parse, fun ppf f -> Format.pp_print_string ppf (Hope_obs.Obs.format_name f))
  in
  Arg.(
    value
    & opt format_conv Hope_obs.Obs.Chrome
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:
          "Trace export format: chrome (Perfetto / chrome://tracing JSON), \
           graphml (causal DAG), summary (text report), flame (collapsed \
           stacks for speedscope / inferno), or text (one line per event).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Sample the live time series during the run and write an \
           OpenMetrics/Prometheus text snapshot to $(docv) afterwards \
           ($(b,-) writes to stdout).")

let watch_arg =
  Arg.(
    value
    & opt ~vopt:(Some 0.1) (some float) None
    & info [ "watch" ] ~docv:"VSECONDS"
        ~doc:
          "Print a progress line to stderr roughly every $(docv) of \
           virtual time (default 0.1 when given without a value, as \
           $(b,--watch)).")

let health_arg =
  Arg.(
    value & flag
    & info [ "health" ]
        ~doc:
          "Run the online speculation health monitor (bounce livelock, \
           cascade runaway, window growth, stalled intervals) and exit \
           nonzero if it reports any diagnostic.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "After quiescence, run the Hope_core.Invariant checks \
           (wait-freedom, Theorem 5.1, AID finality, quiescence) and \
           exit nonzero on authoritative violations.")

let stride_arg =
  Arg.(
    value
    & opt float 1e-3
    & info [ "sample-stride" ] ~docv:"VSECONDS"
        ~doc:"Virtual-time period of the telemetry sampler (default 1ms).")

(* Monitor thresholds, overridable per run: the defaults are tuned for
   the bench workloads, and an experiment hunting one pathology wants
   its detector hair-triggered without recompiling. *)

let monitor_config_term =
  let d = Monitor.default_config in
  let bounce_flips_arg =
    Arg.(
      value
      & opt int d.Monitor.bounce_flips
      & info [ "bounce-flips" ] ~docv:"N"
          ~doc:
            "Health monitor: state transitions on one AID before flagging \
             deny/re-guess ping-pong.")
  in
  let replace_churn_arg =
    Arg.(
      value
      & opt int d.Monitor.replace_churn
      & info [ "replace-churn" ] ~docv:"N"
          ~doc:
            "Health monitor: Replace resolutions on one AID before flagging \
             an Algorithm-1 bounce livelock (needs $(b,--health)'s deep \
             monitoring).")
  in
  let cascade_limit_arg =
    Arg.(
      value
      & opt int d.Monitor.cascade_limit
      & info [ "cascade-limit" ] ~docv:"N"
          ~doc:
            "Health monitor: intervals rolled by one cascade before flagging \
             a runaway.")
  in
  let window_limit_arg =
    Arg.(
      value
      & opt int d.Monitor.window_limit
      & info [ "window-limit" ] ~docv:"N"
          ~doc:
            "Health monitor: live intervals on one process before flagging \
             window growth.")
  in
  let stall_after_arg =
    Arg.(
      value
      & opt float d.Monitor.stall_after
      & info [ "stall-after" ] ~docv:"VSECONDS"
          ~doc:
            "Health monitor: virtual seconds an interval may stay open \
             before being flagged as stalled.")
  in
  let gvt_stall_events_arg =
    Arg.(
      value
      & opt int d.Monitor.gvt_stall_events
      & info [ "gvt-stall-events" ] ~docv:"N"
          ~doc:
            "Health monitor (parallel engine): events a shard may process \
             between samples without GVT advancing before flagging a GVT \
             stall.")
  in
  let imbalance_ratio_arg =
    Arg.(
      value
      & opt float d.Monitor.imbalance_ratio
      & info [ "imbalance-ratio" ] ~docv:"RATIO"
          ~doc:
            "Health monitor (parallel engine): fastest/slowest shard \
             events-or-lvt-lead ratio that counts as skew; sustained over \
             consecutive GVT epochs it is flagged as shard imbalance.")
  in
  let backpressure_spins_arg =
    Arg.(
      value
      & opt int d.Monitor.backpressure_spins
      & info [ "backpressure-spins" ] ~docv:"N"
          ~doc:
            "Health monitor (parallel engine): full-ring producer spins \
             between samples before flagging mailbox backpressure.")
  in
  let annihilation_limit_arg =
    Arg.(
      value
      & opt int d.Monitor.annihilation_limit
      & info [ "annihilation-limit" ] ~docv:"N"
          ~doc:
            "Health monitor (parallel engine): anti-message annihilations \
             between samples before flagging an annihilation storm.")
  in
  let mk bounce_flips replace_churn cascade_limit window_limit stall_after
      gvt_stall_events imbalance_ratio backpressure_spins annihilation_limit =
    {
      Monitor.bounce_flips;
      replace_churn;
      cascade_limit;
      window_limit;
      stall_after;
      gvt_stall_events;
      imbalance_ratio;
      imbalance_epochs = d.Monitor.imbalance_epochs;
      backpressure_spins;
      annihilation_limit;
    }
  in
  Term.(
    const mk $ bounce_flips_arg $ replace_churn_arg $ cascade_limit_arg
    $ window_limit_arg $ stall_after_arg $ gvt_stall_events_arg
    $ imbalance_ratio_arg $ backpressure_spins_arg $ annihilation_limit_arg)

let governor_conv =
  let parse s =
    match Policy.of_string s with Ok p -> Ok p | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf p.Policy.name)

let governor_arg =
  Arg.(
    value
    & opt ~vopt:(Some Policy.default) (some governor_conv) None
    & info [ "governor" ] ~docv:"PROFILE"
        ~doc:
          "Install the speculation governor: per-AID guess throttling, \
           churn-driven cycle cuts, and history-window send back-pressure, \
           fed by the health monitor. $(docv) is default, aggressive, or \
           conservative (bare $(b,--governor) means default). Implies live \
           telemetry with deep monitoring.")

let obs_opts_term =
  let mk trace_file trace_format metrics_file watch health check stride monitor
      governor =
    {
      trace_file;
      trace_format;
      metrics_file;
      watch;
      health;
      check;
      stride;
      monitor;
      governor;
    }
  in
  Term.(
    const mk $ trace_file_arg $ trace_format_arg $ metrics_arg $ watch_arg
    $ health_arg $ check_arg $ stride_arg $ monitor_config_term $ governor_arg)

(* Deferred failures: post-run surfaces (--health, --check) must not cut
   off the workload's own result line, so they accumulate here and the
   command exits nonzero at the very end. *)
let failures = ref []

let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let exit_if_failed () =
  match List.rev !failures with
  | [] -> ()
  | fs ->
    List.iter (fun m -> Printf.eprintf "hope-sim: %s\n" m) fs;
    exit 1

let watch_printer wstride =
  let last = ref neg_infinity in
  fun eng tele ->
    let now = Hope_sim.Engine.now eng in
    if now -. !last >= wstride then begin
      last := now;
      let mon = Telemetry.monitor tele in
      Printf.eprintf
        "[watch] t=%.6fs events=%d open=%d peak=%d live-aids=%d cascades=%d \
         wasted=%.6fs diags=%d\n\
         %!"
        now
        (Hope_sim.Engine.events_processed eng)
        (Monitor.open_intervals mon)
        (Monitor.peak_open_intervals mon)
        (Monitor.live_aids mon) (Monitor.cascades mon)
        (Monitor.wasted_vtime mon)
        (List.length (Monitor.diagnostics mon))
    end

(* Run [f] against a recorder that stores events exactly when --trace
   asked for a file, with live telemetry attached when --metrics /
   --watch / --health asked for it; export and report afterwards. [f]
   receives [~on_setup], which the workload calls with the installed
   runtime — that is where the sampler hooks in and where --check finds
   its runtime. *)
let with_obs opts f =
  let obs = Hope_obs.Recorder.create () in
  if Option.is_some opts.trace_file then Hope_obs.Recorder.enable obs;
  let live =
    Option.is_some opts.metrics_file || Option.is_some opts.watch || opts.health
    || Option.is_some opts.governor
  in
  let tele =
    if live then
      Some
        (Telemetry.create ~config:opts.monitor
           ~deep:(opts.health || Option.is_some opts.governor)
           ~stride:opts.stride ~recorder:obs ())
    else None
  in
  (match (tele, opts.watch) with
  | Some tele, Some wstride -> Telemetry.set_on_sample tele (watch_printer wstride)
  | _ -> ());
  let rt_ref = ref None in
  let gov_ref = ref None in
  let on_setup rt =
    rt_ref := Some rt;
    Option.iter
      (fun tele ->
        Telemetry.install tele
          (Hope_proc.Scheduler.engine (Hope_core.Runtime.scheduler rt));
        Option.iter
          (fun policy -> gov_ref := Some (Governor.install ~policy rt ~tele))
          opts.governor)
      tele
  in
  let result = f ~obs ~tele ~on_setup in
  let absorbed = match tele with Some t -> Telemetry.has_shards t | None -> false in
  (match (!gov_ref, opts.governor) with
  | Some g, _ -> Format.printf "%a@." Governor.pp_summary g
  | None, Some _ ->
    Printf.eprintf
      "hope-sim: note: --governor saw no HOPE runtime (this engine does not \
       expose one), so no governor was installed\n"
  | None, None -> ());
  Option.iter
    (fun file ->
      (try Hope_obs.Obs.export_file opts.trace_format ~file (Hope_obs.Recorder.events obs)
       with Sys_error msg ->
         Printf.eprintf "hope-sim: cannot write trace: %s\n" msg;
         exit 1);
      if file <> "-" then
        Printf.printf "trace (%s, %d events) written to %s\n"
          (Hope_obs.Obs.format_name opts.trace_format)
          (Hope_obs.Recorder.size obs) file)
    opts.trace_file;
  if live && !rt_ref = None && not absorbed then
    Printf.eprintf
      "hope-sim: note: live telemetry saw no HOPE runtime (this engine does \
       not expose one), so time series and stall checks are empty\n";
  Option.iter
    (fun file ->
      let tele = Option.get tele in
      (try Telemetry.write_openmetrics tele ~file
       with Sys_error msg ->
         Printf.eprintf "hope-sim: cannot write metrics: %s\n" msg;
         exit 1);
      if file <> "-" then
        Printf.printf "metrics (%d samples, %d series) written to %s\n"
          (Hope_obs.Timeseries.samples (Telemetry.series tele))
          (List.length (Hope_obs.Timeseries.all (Telemetry.series tele)))
          file)
    opts.metrics_file;
  if opts.health then begin
    let mon = Telemetry.monitor (Option.get tele) in
    match Monitor.diagnostics mon with
    | [] -> Printf.printf "health: ok\n"
    | ds ->
      List.iter
        (fun d -> Format.eprintf "health: %a@." Monitor.pp_diagnostic d)
        ds;
      fail "health: %d diagnostic(s)" (List.length ds)
  end;
  if opts.check then begin
    match !rt_ref with
    | None ->
      fail "--check: this engine exposes no HOPE runtime to check"
    | Some rt ->
      List.iter
        (fun (name, chk, authoritative) ->
          match chk rt with
          | [] -> Printf.printf "check %-12s ok\n" name
          | vs ->
            List.iter
              (fun v ->
                Format.eprintf "check %s: %a@." name
                  Hope_core.Invariant.pp_violation v)
              vs;
            if authoritative then
              fail "check %s: %d violation(s)" name (List.length vs)
            else
              Printf.printf
                "check %-12s %d informational flag(s) (legitimate re-affirms \
                 are possible; DESIGN \xc2\xa73.2)\n"
                name (List.length vs))
        Hope_core.Invariant.all_named
  end;
  result

(* ----------------------------- report ----------------------------- *)

let report_cmd =
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("pessimistic", `Pessimistic); ("optimistic", `Optimistic) ]) `Optimistic
      & info [ "mode" ] ~docv:"MODE" ~doc:"pessimistic (Figure 1) or optimistic (Figure 2).")
  in
  let sections_arg =
    Arg.(value & opt int 40 & info [ "sections" ] ~doc:"Report sections.")
  in
  let page_arg =
    Arg.(value & opt int 20 & info [ "page-size" ] ~doc:"Lines per page (sets accuracy).")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Print the speculation report (per-interval fates) after the run.")
  in
  let run latency seed mode sections page_size explain opts =
    let p = { Report.default_params with sections; page_size } in
    let on_quiescence rt =
      if explain then
        Format.printf "%a@." Hope_core.Explain.pp (Hope_core.Explain.of_runtime rt)
    in
    let r =
      with_obs opts (fun ~obs ~tele:_ ~on_setup ->
          Report.run ~seed ~obs ~latency ~mode ~on_quiescence ~on_setup p)
    in
    Printf.printf
      "report: completion=%.3f ms rollbacks=%d messages=%d guesses=%d (accuracy %.0f%%)\n"
      (r.Report.completion_time *. 1e3)
      r.rollbacks r.messages r.guesses
      (100.0 *. Report.accuracy p);
    exit_if_failed ()
  in
  Cmd.v
    (Cmd.info "report" ~doc:"The §3.1 page-printing report (Figures 1-2).")
    Term.(
      const run $ latency_arg $ seed_arg $ mode_arg $ sections_arg $ page_arg
      $ explain_arg $ obs_opts_term)

(* ----------------------------- pipeline --------------------------- *)

let pipeline_cmd =
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("pessimistic", `P); ("speculative", `S) ]) `S
      & info [ "mode" ] ~doc:"pessimistic or speculative.")
  in
  let window_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~doc:"Bound on outstanding assumptions (default unbounded).")
  in
  let tasks_arg = Arg.(value & opt int 50 & info [ "tasks" ] ~doc:"Task count.") in
  let accuracy_arg =
    Arg.(value & opt float 0.9 & info [ "accuracy" ] ~doc:"Validation success probability.")
  in
  let run latency seed mode window tasks accuracy opts =
    let p = { Pipeline.default_params with tasks; accuracy } in
    let mode =
      match mode with `P -> Pipeline.Pessimistic | `S -> Pipeline.Speculative window
    in
    let r =
      with_obs opts (fun ~obs ~tele:_ ~on_setup ->
          Pipeline.run ~seed ~obs ~latency ~mode ~on_setup p)
    in
    Printf.printf "pipeline: completion=%.3f ms rollbacks=%d denials=%d messages=%d\n"
      (r.Pipeline.completion_time *. 1e3)
      r.rollbacks r.denials r.messages;
    exit_if_failed ()
  in
  Cmd.v
    (Cmd.info "pipeline" ~doc:"Speculative task pipeline (experiments E5/E6).")
    Term.(
      const run $ latency_arg $ seed_arg $ mode_arg $ window_arg $ tasks_arg
      $ accuracy_arg $ obs_opts_term)

(* ----------------------------- replication ------------------------ *)

let replication_cmd =
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("pessimistic", `Pessimistic); ("optimistic", `Optimistic) ]) `Optimistic
      & info [ "mode" ] ~doc:"pessimistic (primary-copy) or optimistic.")
  in
  let conflict_arg =
    Arg.(value & opt float 0.05 & info [ "conflict-rate" ] ~doc:"Conflict probability.")
  in
  let replicas_arg =
    Arg.(value & opt int 4 & info [ "replicas" ] ~doc:"Replica count.")
  in
  let updates_arg =
    Arg.(value & opt int 25 & info [ "updates" ] ~doc:"Updates per replica.")
  in
  let run latency seed mode conflict_rate replicas updates opts =
    let p = { Replication.default_params with conflict_rate; replicas; updates } in
    let r =
      with_obs opts (fun ~obs ~tele:_ ~on_setup ->
          Replication.run ~seed ~obs ~latency ~mode ~on_setup p)
    in
    Printf.printf
      "replication: makespan=%.3f ms throughput=%.0f/s rollbacks=%d conflicts=%d\n"
      (r.Replication.makespan *. 1e3)
      r.throughput r.rollbacks r.conflicts;
    exit_if_failed ()
  in
  Cmd.v
    (Cmd.info "replication" ~doc:"Optimistic replication (experiment E8).")
    Term.(
      const run $ latency_arg $ seed_arg $ mode_arg $ conflict_arg $ replicas_arg
      $ updates_arg $ obs_opts_term)

(* ----------------------------- phold ------------------------------ *)

let phold_cmd =
  let engines =
    [ ("sequential", `Seq); ("timewarp", `Tw); ("hope", `Hope); ("parallel", `Par) ]
  in
  let engine_arg =
    Arg.(
      value
      & opt (enum engines) `Tw
      & info [ "engine" ]
          ~doc:
            "sequential, timewarp, hope, or parallel (sharded Time Warp \
             across OCaml 5 domains; see --domains).")
  in
  let lps_arg = Arg.(value & opt int 4 & info [ "lps" ] ~doc:"Logical processes.") in
  let jobs_arg = Arg.(value & opt int 8 & info [ "jobs" ] ~doc:"Job population.") in
  let remote_arg =
    Arg.(value & opt float 0.5 & info [ "remote" ] ~doc:"Remote-hop probability.")
  in
  let horizon_arg =
    Arg.(value & opt float 10.0 & info [ "horizon" ] ~doc:"Virtual end time.")
  in
  let domains_arg =
    Arg.(
      value
      & opt int 1
      & info [ "domains" ]
          ~doc:
            "OCaml domains for --engine parallel (deterministic mode: fixed \
             hash-based shard assignment, GVT-epoch merge — the merged trace \
             is byte-identical at any count).")
  in
  let grain_arg =
    Arg.(
      value
      & opt int 0
      & info [ "grain" ]
          ~doc:
            "Synthetic per-event CPU weight (integer-mix iterations) for \
             parallel scaling runs.")
  in
  let run seed engine n_lps jobs remote_prob horizon domains grain opts =
    let p = { Phold.default_params with n_lps; jobs; remote_prob; horizon } in
    let engine = if domains > 1 && engine <> `Par then `Par else engine in
    (* The engine x flag support matrix: each observability flag, whether
       it was given, and the engines that honor it. Fail fast on a flag
       the selected engine cannot honor, printing the matrix — a silent
       empty export is worse than an error. *)
    let support =
      [
        ("--trace", Option.is_some opts.trace_file, [ `Hope; `Par ]);
        ("--metrics", Option.is_some opts.metrics_file, [ `Hope; `Par ]);
        ("--watch", Option.is_some opts.watch, [ `Hope; `Par ]);
        ("--health", opts.health, [ `Hope; `Par ]);
        ("--check", opts.check, [ `Hope ]);
        ("--governor", Option.is_some opts.governor, [ `Hope ]);
      ]
    in
    (match
       List.filter_map
         (fun (flag, on, ok) ->
           if on && not (List.mem engine ok) then Some flag else None)
         support
     with
    | [] -> ()
    | bad ->
      let name e = fst (List.find (fun (_, e') -> e' = e) engines) in
      Printf.eprintf
        "hope-sim: %s is not supported with --engine %s\nsupported combinations:\n"
        (String.concat " " bad) (name engine);
      List.iter
        (fun ok ->
          let flags =
            List.filter_map (fun (f, _, ok') -> if ok' = ok then Some f else None) support
          in
          Printf.eprintf "  %-36s %s\n" (String.concat " " flags)
            (String.concat ", " (List.map name ok)))
        (List.fold_left
           (fun rows (_, _, ok) -> if List.mem ok rows then rows else rows @ [ ok ])
           [] support);
      exit 1);
    let o =
      with_obs opts (fun ~obs ~tele ~on_setup ->
          match engine with
          | `Seq -> Phold.run_sequential p
          | `Tw -> Phold.run_timewarp ~seed p
          | `Hope -> Phold.run_hope ~seed ~obs ~on_setup p
          | `Par ->
            let o, r = Phold.run_parallel ~domains ~seed ~grain p in
            (* the deterministic merged trace: commit records in their
               domain-count-independent order *)
            if Hope_obs.Recorder.enabled obs then
              Hope_shard.Shard.merge_into obs r;
            (* the per-run (non-deterministic) side: per-shard labeled
               instruments, GVT-epoch trajectories, parallel health
               detectors *)
            Option.iter
              (fun tele ->
                Telemetry.absorb_shards tele
                  ~engines:r.Hope_shard.Shard.engines ~samples:r.samples;
                Option.iter
                  (fun _wstride ->
                    (* a sharded run has no live sampler to ride; replay
                       the GVT epochs post-merge instead *)
                    let mon = Telemetry.monitor tele in
                    let by_gvt = Hashtbl.create 32 in
                    let order = ref [] in
                    List.iter
                      (fun (s : Monitor.shard_sample) ->
                        (match Hashtbl.find_opt by_gvt s.sh_gvt with
                        | None ->
                          order := s.sh_gvt :: !order;
                          Hashtbl.add by_gvt s.sh_gvt (ref [ s ])
                        | Some l -> l := s :: !l))
                      r.samples;
                    List.iter
                      (fun gvt ->
                        let ss = !(Hashtbl.find by_gvt gvt) in
                        let events =
                          List.fold_left (fun a s -> a + s.Monitor.sh_events) 0 ss
                        in
                        let wasted =
                          List.fold_left (fun a s -> a + s.Monitor.sh_rolled) 0 ss
                        in
                        let lag =
                          List.fold_left
                            (fun a s -> Float.max a (s.Monitor.sh_lvt -. gvt))
                            0.0 ss
                        in
                        Printf.eprintf
                          "[watch] gvt=%.6fs shards=%d events=%d wasted=%d \
                           lag=%.6fs diags=%d\n\
                           %!"
                          gvt (List.length ss) events wasted lag
                          (List.length (Monitor.diagnostics mon)))
                      (List.rev !order))
                  opts.watch)
              tele;
            o)
    in
    Printf.printf
      "phold: events=%d executed=%d rollbacks=%d messages=%d physical=%.3f ms checksum0=%d\n"
      o.Phold.handled_total o.processed o.rollbacks o.messages
      (o.physical_time *. 1e3)
      o.checksums.(0);
    exit_if_failed ()
  in
  Cmd.v
    (Cmd.info "phold" ~doc:"PHOLD discrete-event simulation (experiment E7).")
    Term.(
      const run $ seed_arg $ engine_arg $ lps_arg $ jobs_arg $ remote_arg
      $ horizon_arg $ domains_arg $ grain_arg $ obs_opts_term)

(* ----------------------------- recovery --------------------------- *)

let recovery_cmd =
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("pessimistic", `Pessimistic); ("optimistic", `Optimistic) ]) `Optimistic
      & info [ "mode" ] ~doc:"pessimistic (log-then-deliver) or optimistic.")
  in
  let crash_arg =
    Arg.(value & opt float 0.05 & info [ "crash-rate" ] ~doc:"Logging failure probability.")
  in
  let messages_arg =
    Arg.(value & opt int 30 & info [ "messages" ] ~doc:"Messages in the stream.")
  in
  let run latency seed mode crash_rate messages opts =
    let p = { Recovery.default_params with crash_rate; messages } in
    let r =
      with_obs opts (fun ~obs ~tele:_ ~on_setup ->
          Recovery.run ~seed ~obs ~latency ~mode ~on_setup p)
    in
    Printf.printf "recovery: makespan=%.3f ms rollbacks=%d crashes=%d\n"
      (r.Recovery.makespan *. 1e3)
      r.rollbacks r.crashes;
    exit_if_failed ()
  in
  Cmd.v
    (Cmd.info "recovery" ~doc:"Optimistic message-logging recovery (experiment E9).")
    Term.(
      const run $ latency_arg $ seed_arg $ mode_arg $ crash_arg $ messages_arg
      $ obs_opts_term)

(* ----------------------------- scientific ------------------------- *)

let scientific_cmd =
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("pessimistic", `Pessimistic); ("optimistic", `Optimistic) ]) `Optimistic
      & info [ "mode" ] ~doc:"pessimistic (barrier) or optimistic.")
  in
  let workers_arg = Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Worker count.") in
  let converge_arg =
    Arg.(value & opt int 12 & info [ "converge-at" ] ~doc:"Iteration that converges.")
  in
  let run latency seed mode workers converge_at opts =
    let p = { Scientific.default_params with workers; converge_at } in
    let r =
      with_obs opts (fun ~obs ~tele:_ ~on_setup ->
          Scientific.run ~seed ~obs ~latency ~mode ~on_setup p)
    in
    Printf.printf
      "scientific: makespan=%.3f ms wasted-iterations=%d rollbacks=%d\n"
      (r.Scientific.makespan *. 1e3)
      r.wasted_iterations r.rollbacks;
    exit_if_failed ()
  in
  Cmd.v
    (Cmd.info "scientific" ~doc:"Optimistic convergence testing (experiment E10).")
    Term.(
      const run $ latency_arg $ seed_arg $ mode_arg $ workers_arg $ converge_arg
      $ obs_opts_term)

(* ----------------------------- occ -------------------------------- *)

let occ_cmd =
  let mode_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("2pl", `Pessimistic); ("occ", `Optimistic); ("hybrid", `Hybrid) ])
          `Optimistic
      & info [ "mode" ]
          ~doc:
            "2pl (locking), occ (optimistic), or hybrid (optimistic with \
             governor-driven per-key escalation to queued acquisition — \
             experiment E16).")
  in
  let clients_arg = Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Client count.") in
  let keys_arg =
    Arg.(value & opt int 64 & info [ "keys" ] ~doc:"Key-space size (contention knob).")
  in
  let txns_arg =
    Arg.(value & opt int 15 & info [ "transactions" ] ~doc:"Transactions per client.")
  in
  let skew_arg =
    Arg.(
      value & opt float 0.0
      & info [ "skew" ]
          ~doc:
            "Zipfian key-popularity exponent (0 = uniform; higher values \
             concentrate traffic on few hot keys).")
  in
  let think_arg =
    Arg.(
      value & opt float Occ.default_params.Occ.think_time
      & info [ "think" ] ~docv:"SECONDS"
          ~doc:
            "Client CPU between snapshot and commit — the cost an \
             optimistic retry re-pays.")
  in
  let store_cost_arg =
    Arg.(
      value & opt float Occ.default_params.Occ.store_cost
      & info [ "store-cost" ] ~docv:"SECONDS"
          ~doc:
            "Store CPU per request — the shared resource every wasted \
             validation burns.")
  in
  let run latency seed mode clients keys transactions skew think_time store_cost
      opts =
    let p =
      {
        Occ.default_params with
        clients;
        keys;
        transactions;
        skew;
        think_time;
        store_cost;
      }
    in
    (* Hybrid needs a governor. Installing it here puts it on the one
       telemetry [with_obs] builds, so --metrics, --watch and --health see
       the run; left to [Occ.run], it would bring a second telemetry that
       takes the recorder's tap and the engine's sampler. *)
    let opts =
      if mode = `Hybrid && opts.governor = None then
        { opts with governor = Some Policy.hybrid }
      else opts
    in
    let r =
      with_obs opts (fun ~obs ~tele:_ ~on_setup ->
          Occ.run ~seed ~obs ~latency ~mode ~on_setup p)
    in
    Printf.printf
      "occ: makespan=%.3f ms committed=%d aborts=%d lock-waits=%d rollbacks=%d \
       escalations=%d acquire-waits=%d\n"
      (r.Occ.makespan *. 1e3)
      r.committed r.aborts r.lock_waits r.rollbacks r.escalations
      r.acquire_waits;
    exit_if_failed ()
  in
  Cmd.v
    (Cmd.info "occ" ~doc:"Optimistic concurrency control vs 2PL (experiment E12/E16).")
    Term.(
      const run $ latency_arg $ seed_arg $ mode_arg $ clients_arg $ keys_arg
      $ txns_arg $ skew_arg $ think_arg $ store_cost_arg $ obs_opts_term)

(* ----------------------------- chaos ------------------------------ *)

let chaos_cmd =
  let adversary_conv =
    let parse s =
      match Adversary.scenario_of_string s with
      | Ok sc -> Ok sc
      | Error m -> Error (`Msg m)
    in
    Arg.conv
      (parse, fun ppf sc -> Format.pp_print_string ppf (Adversary.scenario_name sc))
  in
  let adversary_arg =
    Arg.(
      required
      & opt (some adversary_conv) None
      & info [ "adversary" ] ~docv:"SCENARIO"
          ~doc:
            "Adversarial scenario: bounce (Figure 13's mutual speculative \
             affirms under Algorithm 1), hostile-oracle (deny everything), \
             corruption (forged Rollback messages mid-run), flash-crowd \
             (load spike onto a slow validator), compaction-stress \
             (mass retraction churning one consumer's mailbox), or \
             contention-storm (zipfian clients hammer one guard AID under \
             a deny-everything oracle; escalation to queued acquisition \
             clears it — run with --governor hybrid), or \
             cross-shard-straggler (bursty off-shard deliveries keep \
             undercutting a consumer's virtual time; every straggler must \
             roll back cleanly into a legal configuration, governed or \
             not).")
  in
  let max_events_arg =
    Arg.(
      value
      & opt int 200_000
      & info [ "max-events" ] ~docv:"N"
          ~doc:"Event budget (the ungoverned bounce stops only on this).")
  in
  let expect_arg =
    Arg.(
      value
      & opt (some (enum [ ("healthy", `Healthy); ("diagnostic", `Diagnostic) ])) None
      & info [ "expect" ] ~docv:"WHAT"
          ~doc:
            "Exit nonzero unless the outcome matches: $(b,healthy) (run \
             quiesced into a legal configuration with no bounce diagnostic) \
             or $(b,diagnostic) (the health monitor flagged at least one \
             pathology). CI's chaos job is built on this.")
  in
  let run seed adversary governor max_events expect =
    let governed = Option.is_some governor in
    let policy = Option.value governor ~default:Policy.default in
    let o = Adversary.run ~seed ~policy ~max_events ~governed adversary in
    Format.printf "%a@." Adversary.pp_outcome o;
    (match expect with
    | None -> ()
    | Some `Healthy ->
      if not (o.Adversary.quiesced && o.Adversary.legal) then
        fail "expected healthy: run did not quiesce into a legal configuration";
      if o.Adversary.bounce_flagged then
        fail "expected healthy: bounce-livelock diagnostic tripped"
    | Some `Diagnostic ->
      if o.Adversary.diagnostics = 0 then
        fail "expected a diagnostic: the health monitor stayed silent");
    exit_if_failed ()
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Adversarial scenarios (hostile oracle, forged rollbacks, flash \
          crowds, bounce livelock), governed or not.")
    Term.(
      const run $ seed_arg $ adversary_arg $ governor_arg $ max_events_arg
      $ expect_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "drive the HOPE optimistic-programming workloads" in
  let info = Cmd.info "hope-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            report_cmd;
            pipeline_cmd;
            replication_cmd;
            phold_cmd;
            recovery_cmd;
            scientific_cmd;
            occ_cmd;
            chaos_cmd;
          ]))
