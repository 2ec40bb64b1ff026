(* Tests of the observability subsystem (lib/obs): span pairing under
   rollback, cascade-depth analytics, byte-for-byte deterministic Chrome
   export, GraphML well-formedness, the time-series rings, the online
   health monitor, and the OpenMetrics / flamegraph exporters. *)

open Hope_types
module Program = Hope_proc.Program
module Scheduler = Hope_proc.Scheduler
module Engine = Hope_sim.Engine
module Telemetry = Hope_sim.Telemetry
module Recorder = Hope_obs.Recorder
module Event = Hope_obs.Event
module Span = Hope_obs.Span
module Analytics = Hope_obs.Analytics
module Monitor = Hope_obs.Monitor
module Timeseries = Hope_obs.Timeseries
module Obs = Hope_obs.Obs
open Program.Syntax
open Test_support.Util

(* The canonical cascade scenario: the worker registers three AIDs with a
   definite resolver (sends happen before any guess, so they are never
   retracted), then opens three nested assumptions. The resolver denies
   the innermost dependency's root — the earliest interval — so all three
   intervals are discarded by one rollback; the re-execution resumes the
   denied guess with false and re-opens (and finalizes) the other two. *)
let spawn_cascade w ~node =
  let resolver =
    Scheduler.spawn w.sched ~node ~name:"resolver"
      (let* env = Program.recv () in
       let aids = List.map Value.to_aid (Value.to_list (Envelope.value env)) in
       let* () = Program.compute 0.05 in
       match aids with
       | x1 :: rest ->
         let* () = Program.deny x1 in
         Program.iter_list Program.affirm rest
       | [] -> Program.return ())
  in
  let _worker =
    Scheduler.spawn w.sched ~name:"worker"
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
       Program.return ())
  in
  ()

let run_cascade ?(seed = 42) ?latency ?(node = 0) () =
  let w = make_world ~seed ?latency () in
  let obs = Engine.obs w.engine in
  Recorder.enable obs;
  spawn_cascade w ~node;
  quiesce w;
  check_all_terminated w;
  check_invariants w;
  Recorder.events obs

(* ------------------- span open/close pairing ---------------------- *)

let test_span_pairing () =
  let events = run_cascade () in
  let spans = Span.of_events events in
  (* First run opens 3 nested intervals; the re-execution resumes the
     denied guess with false (no interval) and re-opens the other two. *)
  Alcotest.(check int) "five spans" 5 (List.length spans);
  List.iter
    (fun (s : Span.t) ->
      (match s.Span.close with
      | Span.Still_open -> Alcotest.failf "span left open"
      | Span.Finalized | Span.Rolled_back _ -> ());
      match s.Span.closed_at with
      | None -> Alcotest.failf "closed span without a close time"
      | Some c ->
        if c < s.Span.opened_at then
          Alcotest.failf "span closes before it opens")
    spans;
  let rolled =
    List.filter
      (fun (s : Span.t) ->
        match s.Span.close with Span.Rolled_back _ -> true | _ -> false)
      spans
  in
  let finalized =
    List.filter
      (fun (s : Span.t) -> s.Span.close = Span.Finalized)
      spans
  in
  Alcotest.(check int) "three rolled back" 3 (List.length rolled);
  Alcotest.(check int) "two finalized" 2 (List.length finalized);
  (* Every discarded span records the size of the cascade that took it. *)
  List.iter
    (fun (s : Span.t) ->
      Alcotest.(check int) "cascade size on rolled span" 3 s.Span.cascade)
    rolled;
  (* Nesting: the first execution's spans sit at depths 1, 2, 3. *)
  let depths =
    List.map (fun (s : Span.t) -> s.Span.depth) rolled |> List.sort compare
  in
  Alcotest.(check (list int)) "nested depths" [ 1; 2; 3 ] depths

(* ------------------- cascade-depth analytics ---------------------- *)

let test_cascade_analytics () =
  let events = run_cascade () in
  let a = Analytics.analyse events in
  Alcotest.(check int) "intervals opened" 5 a.Analytics.intervals_opened;
  Alcotest.(check int) "rolled back" 3 a.Analytics.rolled_back;
  Alcotest.(check int) "finalized" 2 a.Analytics.finalized;
  Alcotest.(check int) "none left open" 0 a.Analytics.still_open;
  Alcotest.(check int) "one cascade" 1 a.Analytics.cascades;
  Alcotest.(check int) "three-deep cascade" 3 a.Analytics.max_cascade;
  Alcotest.(check (list (pair int int)))
    "cascade histogram" [ (3, 1) ] a.Analytics.cascade_hist;
  Alcotest.(check int) "max nesting depth" 3 a.Analytics.max_depth;
  if a.Analytics.wasted_ratio <= 0.0 || a.Analytics.wasted_ratio >= 1.0 then
    Alcotest.failf "wasted ratio out of range: %f" a.Analytics.wasted_ratio;
  match a.Analytics.critical_path with
  | None -> Alcotest.failf "no critical path on a run with intervals"
  | Some cp ->
    Alcotest.(check int) "critical path depth" 3 cp.Analytics.path_depth;
    Alcotest.(check int) "critical path length" 3 (List.length cp.Analytics.path)

(* ------------------- deterministic Chrome export ------------------ *)

let test_chrome_determinism () =
  let j1 = Obs.export_string Obs.Chrome (run_cascade ()) in
  let j2 = Obs.export_string Obs.Chrome (run_cascade ()) in
  Alcotest.(check string) "byte-identical across runs" j1 j2;
  (* Shape: a single JSON object wrapping a traceEvents array of span
     ("X") and instant ("i") records. *)
  Alcotest.(check bool) "opens a trace object" true
    (String.length j1 > 16 && String.sub j1 0 16 = "{\"traceEvents\":[");
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has complete events" true (contains "\"ph\":\"X\"" j1);
  Alcotest.(check bool) "has instant events" true (contains "\"ph\":\"i\"" j1);
  (* With the resolver on a remote node and a jittered link, the seed
     reaches the latencies: different seeds must produce different
     captures (the export is a function of the run, not a constant). *)
  let jitter = Hope_net.Latency.Lognormal { median = 2e-3; sigma = 0.5 } in
  let j3 =
    Obs.export_string Obs.Chrome (run_cascade ~latency:jitter ~node:1 ())
  in
  let j4 =
    Obs.export_string Obs.Chrome
      (run_cascade ~seed:7 ~latency:jitter ~node:1 ())
  in
  Alcotest.(check bool) "seed changes the trace" false (String.equal j3 j4)

(* ------------------- GraphML well-formedness ---------------------- *)

let count_substring needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go acc i =
    if i + n > h then acc
    else if String.sub hay i n = needle then go (acc + 1) (i + 1)
    else go acc (i + 1)
  in
  go 0 0

let test_graphml_wellformed () =
  let g = Obs.export_string Obs.Graphml (run_cascade ()) in
  Alcotest.(check bool) "xml declaration" true
    (String.sub g 0 5 = "<?xml");
  Alcotest.(check int) "one graphml element" 1 (count_substring "<graphml " g);
  Alcotest.(check int) "graphml closed" 1 (count_substring "</graphml>" g);
  Alcotest.(check int) "one graph element" 1 (count_substring "<graph " g);
  Alcotest.(check int) "graph closed" 1 (count_substring "</graph>" g);
  let nodes = count_substring "<node " g and node_ends = count_substring "</node>" g in
  let edges = count_substring "<edge " g and edge_ends = count_substring "</edge>" g in
  Alcotest.(check int) "node tags balanced" nodes node_ends;
  Alcotest.(check int) "edge tags balanced" edges edge_ends;
  (* 5 interval nodes + 3 AID nodes. *)
  Alcotest.(check int) "eight nodes" 8 nodes;
  if edges = 0 then Alcotest.failf "no edges in the causal DAG";
  Alcotest.(check int) "data tags balanced" (count_substring "<data " g)
    (count_substring "</data>" g);
  (* The denial shows up as rolled-back edges from the denied AID. *)
  Alcotest.(check int) "three rolled-back edges" 3
    (count_substring ">rolled-back</data>" g);
  (* Determinism holds for this exporter too. *)
  Alcotest.(check string) "byte-identical across runs" g
    (Obs.export_string Obs.Graphml (run_cascade ()))

(* ------------------- recorder & facade basics --------------------- *)

let test_recorder_disabled_is_noop () =
  let r = Recorder.create () in
  Recorder.emit r ~time:1.0 ~proc:(Proc_id.of_int 0)
    (Event.Sim_stop { reason = "test" });
  Alcotest.(check int) "nothing captured while disabled" 0 (Recorder.size r);
  Recorder.enable r;
  Recorder.emit r ~time:2.0 ~proc:(Proc_id.of_int 0)
    (Event.Sim_stop { reason = "test" });
  Alcotest.(check int) "captured once enabled" 1 (Recorder.size r)

let test_format_names () =
  List.iter
    (fun f ->
      match Obs.format_of_string (Obs.format_name f) with
      | Ok f' when f' = f -> ()
      | Ok _ | Error _ -> Alcotest.failf "format name does not round-trip")
    Obs.all_formats;
  match Obs.format_of_string "protobuf" with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "unknown format accepted"

let test_summary_mentions_cascade () =
  let s = Obs.export_string Obs.Summary (run_cascade ()) in
  let contains needle hay = count_substring needle hay > 0 in
  Alcotest.(check bool) "counts rollback cascades" true
    (contains "rollback-cascade" s);
  Alcotest.(check bool) "reports max cascade depth" true
    (contains "(max depth" s)

(* ------------------- time-series rings ---------------------------- *)

let test_timeseries_ring () =
  let ts = Timeseries.create ~capacity:4 ~stride:1.0 () in
  let s = Timeseries.series ts "hope_test_ring" in
  for i = 1 to 10 do
    Timeseries.record s ~time:(float_of_int i) (float_of_int (i * i))
  done;
  Alcotest.(check int) "length capped at capacity" 4 (Timeseries.length s);
  Alcotest.(check int) "total counts overwritten points" 10 (Timeseries.total s);
  (* A full ring keeps the newest points, read back oldest-first. *)
  List.iteri
    (fun k i ->
      let t, v = Timeseries.nth s k in
      Alcotest.(check (float 0.0)) "nth time" (float_of_int i) t;
      Alcotest.(check (float 0.0)) "nth value" (float_of_int (i * i)) v)
    [ 7; 8; 9; 10 ];
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "to_list matches nth"
    (List.init 4 (Timeseries.nth s))
    (Timeseries.to_list s);
  (match Timeseries.nth s 4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "out-of-range nth accepted");
  (* Sources are read exactly once per sample; re-registering a name
     replaces the thunk rather than forking the series. *)
  let calls = ref 0 in
  Timeseries.add_source ts "hope_test_src"
    (fun () ->
      incr calls;
      1.0);
  Timeseries.sample ts ~time:11.0;
  Timeseries.sample ts ~time:12.0;
  Alcotest.(check int) "source read once per sample" 2 !calls;
  Alcotest.(check int) "samples counted" 2 (Timeseries.samples ts);
  let src = Timeseries.series ts "hope_test_src" in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "sampled points" [ (11.0, 1.0); (12.0, 1.0) ]
    (Timeseries.to_list src)

(* ------------------- online health monitor ------------------------ *)

let replay_into m events =
  List.iter
    (fun (e : Event.t) ->
      Monitor.observe m ~time:e.Event.time ~proc:e.Event.proc e.Event.payload)
    events

(* The monitor's fold of the cascade run: five intervals, three rolled
   back by one cascade, every AID resolved. *)
let test_monitor_folds_cascade_run () =
  let events = run_cascade () in
  let m = Monitor.create () in
  replay_into m events;
  Alcotest.(check int) "intervals opened" 5 (Monitor.intervals_opened m);
  Alcotest.(check int) "finalized" 2 (Monitor.intervals_finalized m);
  Alcotest.(check int) "rolled back" 3 (Monitor.intervals_rolled_back m);
  Alcotest.(check int) "none left open" 0 (Monitor.open_intervals m);
  Alcotest.(check int) "one cascade" 1 (Monitor.cascades m);
  Alcotest.(check int) "three-deep cascade" 3 (Monitor.max_cascade m);
  Alcotest.(check int) "peak open" 3 (Monitor.peak_open_intervals m);
  Alcotest.(check int) "aids created" 3 (Monitor.aids_created m);
  Alcotest.(check int) "all aids definite at the end" 0 (Monitor.live_aids m);
  if Monitor.wasted_vtime m <= 0.0 then
    Alcotest.failf "cascade run recorded no wasted vtime";
  if Monitor.committed_vtime m <= 0.0 then
    Alcotest.failf "finalized intervals recorded no committed vtime";
  Alcotest.(check bool) "healthy under default thresholds" true
    (Monitor.healthy m);
  Alcotest.(check int) "diagnostics_count matches the list"
    (List.length (Monitor.diagnostics m))
    (Monitor.diagnostics_count m)

let test_monitor_cascade_runaway () =
  let events = run_cascade () in
  let config = { Monitor.default_config with cascade_limit = 2 } in
  let m = Monitor.create ~config () in
  replay_into m events;
  Alcotest.(check bool) "unhealthy" false (Monitor.healthy m);
  match
    List.filter
      (function Monitor.Cascade_runaway _ -> true | _ -> false)
      (Monitor.diagnostics m)
  with
  | [ Monitor.Cascade_runaway { size; at; _ } ] ->
    Alcotest.(check int) "flagged cascade size" 3 size;
    if at <= 0.0 then Alcotest.failf "diagnostic carries no timestamp"
  | ds -> Alcotest.failf "expected one cascade-runaway, got %d" (List.length ds)

let test_monitor_stall_check () =
  let m = Monitor.create () in
  let proc = Proc_id.of_int 0 in
  Monitor.observe m ~time:1.0 ~proc
    (Event.Interval_open
       {
         iid = Interval_id.make ~owner:proc ~seq:1;
         kind = Event.Explicit;
         ido = Aid.Set.empty;
       });
  Monitor.check_stalls m ~now:2.0;
  Alcotest.(check bool) "young interval not flagged" true (Monitor.healthy m);
  Monitor.check_stalls m ~now:100.0;
  (match Monitor.diagnostics m with
  | [ Monitor.Stalled_interval { open_for; _ } ] ->
    Alcotest.(check (float 1e-9)) "open_for" 99.0 open_for
  | _ -> Alcotest.failf "expected exactly one stalled-interval diagnostic");
  (* Flagged at most once, even if it stays open. *)
  Monitor.check_stalls m ~now:200.0;
  Alcotest.(check int) "no re-flag" 1 (Monitor.diagnostics_count m)

(* ------------------- OpenMetrics export --------------------------- *)

let run_telemetry ?(seed = 42) () =
  let w = make_world ~seed () in
  let tele = Telemetry.create ~stride:1e-2 ~recorder:(Engine.obs w.engine) () in
  Telemetry.install tele w.engine;
  spawn_cascade w ~node:0;
  quiesce w;
  check_all_terminated w;
  (tele, w)

let test_openmetrics_determinism () =
  let tele1, _ = run_telemetry () in
  let m1 = Telemetry.openmetrics tele1 in
  let tele2, _ = run_telemetry () in
  let m2 = Telemetry.openmetrics tele2 in
  Alcotest.(check string) "byte-identical across runs" m1 m2;
  let contains needle hay = count_substring needle hay > 0 in
  let n = String.length m1 in
  Alcotest.(check bool) "ends with the EOF marker" true
    (n >= 6 && String.sub m1 (n - 6) 6 = "# EOF\n");
  Alcotest.(check bool) "monitor gauges exported" true
    (contains "# TYPE hope_monitor_cascades gauge" m1);
  Alcotest.(check bool) "engine series exported" true
    (contains "hope_engine_events_executed" m1);
  Alcotest.(check bool) "registry counters exported as counters" true
    (contains "_total" m1)

let test_monitor_via_telemetry () =
  (* The tap wiring end to end: the monitor attached by Telemetry.create
     sees the run without the recorder's event store being enabled. *)
  let tele, w = run_telemetry () in
  let m = Telemetry.monitor tele in
  Alcotest.(check bool) "store stayed off" true
    (Recorder.events (Engine.obs w.engine) = []);
  Alcotest.(check int) "monitor saw the cascade" 1 (Monitor.cascades m);
  Alcotest.(check int) "monitor saw all intervals" 5 (Monitor.intervals_opened m)

(* ------------------- flamegraph export ---------------------------- *)

let test_flame_determinism () =
  let f1 = Obs.export_string Obs.Flame (run_cascade ()) in
  let f2 = Obs.export_string Obs.Flame (run_cascade ()) in
  Alcotest.(check string) "byte-identical across runs" f1 f2;
  let contains needle hay = count_substring needle hay > 0 in
  Alcotest.(check bool) "has committed stacks" true (contains "committed;" f1);
  Alcotest.(check bool) "has wasted stacks" true (contains "wasted;" f1);
  (* Collapsed-stack shape: every line is "frame;frame;... <count>". *)
  List.iter
    (fun line ->
      if line <> "" then
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "line without a sample count: %s" line
        | Some i -> (
          let count = String.sub line (i + 1) (String.length line - i - 1) in
          match int_of_string_opt count with
          | Some n when n > 0 -> ()
          | _ -> Alcotest.failf "bad sample count %S in %s" count line))
    (String.split_on_char '\n' f1)

(* ------------------- exporter exhaustiveness ---------------------- *)

(* Every payload constructor must survive every exporter: a new event
   type that an exporter drops or mis-buckets shows up here, not in a
   confused trace three PRs later. [Event.samples] carries exactly one
   payload per constructor, so the length check fails the moment a
   constructor is added without a sample. *)
let test_exporter_exhaustiveness () =
  Alcotest.(check int) "one sample per constructor" 20
    (List.length Event.samples);
  let events =
    List.mapi
      (fun i payload ->
        {
          Event.seq = i;
          time = 0.1 *. float_of_int (i + 1);
          proc = Proc_id.of_int 1;
          payload;
        })
      Event.samples
  in
  let contains needle hay = count_substring needle hay > 0 in
  List.iter
    (fun fmt ->
      if String.length (Obs.export_string fmt events) = 0 then
        Alcotest.failf "%s export dropped the stream" (Obs.format_name fmt))
    Obs.all_formats;
  (* chrome: the committed cross-shard message yields a flow arrow *)
  let chrome = Obs.export_string Obs.Chrome events in
  Alcotest.(check bool) "chrome flow start" true
    (contains "\"ph\":\"s\"" chrome);
  Alcotest.(check bool) "chrome flow finish binds enclosing slice" true
    (contains "\"bp\":\"e\"" chrome);
  (* graphml: the commit becomes a provenance node *)
  let graphml = Obs.export_string Obs.Graphml events in
  Alcotest.(check bool) "graphml commit node" true
    (contains "<node id=\"c:0\">" graphml);
  (* flame: shard events land as virtual-time-weighted frames *)
  let flame = Obs.export_string Obs.Flame events in
  Alcotest.(check bool) "flame shard transit" true
    (contains "shard-transit" flame);
  Alcotest.(check bool) "flame shard rollback" true
    (contains "shard-rollback" flame);
  (* summary: the per-type census names every constructor *)
  let summary = Obs.export_string Obs.Summary events in
  List.iter
    (fun payload ->
      let name = Event.type_name payload in
      if not (contains name summary) then
        Alcotest.failf "summary drops %s" name)
    Event.samples;
  (* analytics: the shard pass fired and attributed the straggler *)
  let a = Analytics.analyse events in
  match a.Analytics.shard with
  | None -> Alcotest.failf "analytics missed the shard events"
  | Some s ->
    Alcotest.(check int) "commits" 1 s.Analytics.shard_commits;
    Alcotest.(check int) "stragglers" 1 s.Analytics.shard_stragglers;
    Alcotest.(check int) "wasted" 2 s.Analytics.shard_wasted_events;
    Alcotest.(check int) "compactions" 1 s.Analytics.shard_compactions;
    Alcotest.(check (list (pair (triple int int (float 1e-9)) int)))
      "attribution table"
      [ ((0, 3, 1.5), 2) ]
      s.Analytics.shard_attribution

(* ------------------- labeled OpenMetrics -------------------------- *)

let find_pos sub hay =
  let n = String.length hay and m = String.length sub in
  let rec go i =
    if i + m > n then Alcotest.failf "missing %S in exposition" sub
    else if String.sub hay i m = sub then i
    else go (i + 1)
  in
  go 0

let test_openmetrics_labels () =
  let module Om = Hope_obs.Export_openmetrics in
  let instruments =
    [
      Om.Counter { name = "shard.events"; labels = [ ("shard", "10") ]; value = 20 };
      Om.Counter { name = "shard.events"; labels = []; value = 33 };
      Om.Counter { name = "shard.events"; labels = [ ("shard", "2") ]; value = 13 };
      Om.Gauge { name = "hope.gvt_lag"; labels = []; value = 0.25 };
    ]
  in
  let out = Om.to_string ~instruments () in
  (* one family: labeled and unlabeled entries share a single header *)
  Alcotest.(check int) "one HELP line" 1
    (count_substring "# HELP shard_events_total" out);
  Alcotest.(check int) "one TYPE line" 1
    (count_substring "# TYPE shard_events_total counter" out);
  (* entry order: unlabeled aggregate first, then shard labels compared
     numerically (2 before 10, not lexicographic) *)
  let p_agg = find_pos "shard_events_total 33" out in
  let p2 = find_pos "shard_events_total{shard=\"2\"} 13" out in
  let p10 = find_pos "shard_events_total{shard=\"10\"} 20" out in
  Alcotest.(check bool) "aggregate before labeled" true (p_agg < p2);
  Alcotest.(check bool) "numeric label order" true (p2 < p10);
  Alcotest.(check int) "gauge rendered" 1
    (count_substring "hope_gvt_lag 0.25" out);
  (* byte-determinism of the rendering itself *)
  Alcotest.(check string) "render is a pure function" out
    (Om.to_string ~instruments ())

(* ------------------- parallel health detectors -------------------- *)

let mk_sample ?(gvt = 0.0) ?(lvt = 0.0) ?(events = 0) ?(stragglers = 0)
    ?(rolled = 0) ?(depth = 0) ?(annih = 0) ?(spins = 0) ?(occ = 0) ?(peak = 0)
    shard =
  {
    Monitor.sh_shard = shard;
    sh_gvt = gvt;
    sh_lvt = lvt;
    sh_events = events;
    sh_stragglers = stragglers;
    sh_rolled = rolled;
    sh_rollback_depth = depth;
    sh_annihilations = annih;
    sh_full_spins = spins;
    sh_mailbox_occ = occ;
    sh_mailbox_peak = peak;
  }

let shard_diags m =
  List.filter
    (function
      | Monitor.Gvt_stall _ | Monitor.Shard_imbalance _
      | Monitor.Mailbox_backpressure _ | Monitor.Annihilation_storm _ ->
        true
      | _ -> false)
    (Monitor.diagnostics m)

let test_monitor_gvt_stall () =
  let m = Monitor.create () in
  Monitor.observe_shards m
    [
      mk_sample ~gvt:1.0 ~lvt:1.0 ~events:100 0;
      mk_sample ~gvt:1.0 ~lvt:2.5 ~events:5100 0;
      (* still stalled: must not re-flag the same shard *)
      mk_sample ~gvt:1.0 ~lvt:3.0 ~events:10200 0;
    ];
  (match shard_diags m with
  | [ Monitor.Gvt_stall { shard = 0; events; gvt; _ } ] ->
    Alcotest.(check int) "events while frozen" 5000 events;
    Alcotest.(check (float 1e-9)) "frozen gvt" 1.0 gvt
  | ds -> Alcotest.failf "expected one gvt-stall, got %d diags" (List.length ds));
  (* healthy: same event rate but GVT keeps moving *)
  let h = Monitor.create () in
  Monitor.observe_shards h
    [
      mk_sample ~gvt:1.0 ~lvt:1.0 ~events:100 0;
      mk_sample ~gvt:2.0 ~lvt:2.5 ~events:5100 0;
      mk_sample ~gvt:3.0 ~lvt:3.5 ~events:10200 0;
    ];
  Alcotest.(check int) "healthy run unflagged" 0 (List.length (shard_diags h))

let test_monitor_shard_imbalance () =
  let epoch g k =
    [
      mk_sample ~gvt:g ~lvt:(g +. 0.5) ~events:(400 * k) 0;
      mk_sample ~gvt:g ~lvt:(g +. 0.1) ~events:(10 * k) 1;
    ]
  in
  let m = Monitor.create () in
  Monitor.observe_shards m (List.concat [ epoch 1.0 1; epoch 2.0 2; epoch 3.0 3 ]);
  (match shard_diags m with
  | [ Monitor.Shard_imbalance { fast = 0; slow = 1; ratio; epochs = 3; _ } ] ->
    if ratio < Monitor.default_config.Monitor.imbalance_ratio then
      Alcotest.failf "flagged ratio %.1f below threshold" ratio
  | ds ->
    Alcotest.failf "expected one shard-imbalance, got %d diags" (List.length ds));
  (* flagged once even if the skew persists *)
  Monitor.observe_shards m (epoch 4.0 4);
  Alcotest.(check int) "no re-flag" 1 (List.length (shard_diags m));
  (* healthy: balanced shards under the same load *)
  let h = Monitor.create () in
  let balanced g k =
    [
      mk_sample ~gvt:g ~lvt:(g +. 0.2) ~events:(400 * k) 0;
      mk_sample ~gvt:g ~lvt:(g +. 0.3) ~events:(380 * k) 1;
    ]
  in
  Monitor.observe_shards h
    (List.concat [ balanced 1.0 1; balanced 2.0 2; balanced 3.0 3 ]);
  Alcotest.(check int) "balanced run unflagged" 0 (List.length (shard_diags h));
  (* two shards sampled at float-distinct GVTs inside one virtual
     microsecond share one epoch, as in the export, so their skew counts *)
  let split g k =
    [
      mk_sample ~gvt:g ~lvt:(g +. 0.5) ~events:(400 * k) 0;
      mk_sample ~gvt:(g +. 2e-7) ~lvt:(g +. 0.1) ~events:(10 * k) 1;
    ]
  in
  let u = Monitor.create () in
  Monitor.observe_shards u (List.concat [ split 1.0 1; split 2.0 2; split 3.0 3 ]);
  (match shard_diags u with
  | [ Monitor.Shard_imbalance { fast = 0; slow = 1; epochs = 3; at; _ } ] ->
    Alcotest.(check (float 1e-9)) "one epoch per microsecond" 3.0 at
  | ds ->
    Alcotest.failf "expected one sub-microsecond imbalance, got %d diags"
      (List.length ds));
  Alcotest.(check (float 1e-9)) "widest epoch lag" 0.5 (Monitor.gvt_lag u);
  (* on a tie in events the first-seen shard is named *)
  let t =
    Monitor.create
      ~config:{ Monitor.default_config with Monitor.imbalance_epochs = 1 }
      ()
  in
  Monitor.observe_shards t
    [
      mk_sample ~gvt:1.0 ~lvt:1.5 ~events:400 0;
      mk_sample ~gvt:1.0 ~lvt:1.1 ~events:10 1;
      mk_sample ~gvt:1.0 ~lvt:1.5 ~events:400 2;
      mk_sample ~gvt:1.0 ~lvt:1.1 ~events:10 3;
    ];
  match shard_diags t with
  | [ Monitor.Shard_imbalance { fast = 0; slow = 1; _ } ] -> ()
  | ds -> Alcotest.failf "expected shards 0 over 1, got %d diags" (List.length ds)

let test_monitor_backpressure_and_storm () =
  let m = Monitor.create () in
  Monitor.observe_shards m
    [
      mk_sample ~gvt:1.0 ~events:100 ~spins:0 ~annih:0 0;
      mk_sample ~gvt:2.0 ~events:200 ~spins:5000 ~annih:600 0;
    ];
  let spins, storms =
    List.partition
      (function Monitor.Mailbox_backpressure _ -> true | _ -> false)
      (shard_diags m)
  in
  (match spins with
  | [ Monitor.Mailbox_backpressure { shard = 0; spins; _ } ] ->
    Alcotest.(check int) "spin delta" 5000 spins
  | _ -> Alcotest.failf "expected one mailbox-backpressure diagnostic");
  (match storms with
  | [ Monitor.Annihilation_storm { shard = 0; annihilations; _ } ] ->
    Alcotest.(check int) "annihilation delta" 600 annihilations
  | _ -> Alcotest.failf "expected one annihilation-storm diagnostic");
  (* healthy deltas under both thresholds *)
  let h = Monitor.create () in
  Monitor.observe_shards h
    [
      mk_sample ~gvt:1.0 ~events:100 0;
      mk_sample ~gvt:2.0 ~events:200 ~spins:100 ~annih:50 0;
    ];
  Alcotest.(check int) "healthy run unflagged" 0 (List.length (shard_diags h))

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          test "open/close pairing under rollback" test_span_pairing;
          test "cascade analytics" test_cascade_analytics;
        ] );
      ( "exports",
        [
          test "chrome export is deterministic" test_chrome_determinism;
          test "graphml is well-formed" test_graphml_wellformed;
          test "summary reports cascades" test_summary_mentions_cascade;
          test "openmetrics is deterministic" test_openmetrics_determinism;
          test "flamegraph is deterministic" test_flame_determinism;
          test "every constructor survives every exporter"
            test_exporter_exhaustiveness;
          test "labeled openmetrics families" test_openmetrics_labels;
        ] );
      ( "shard-health",
        [
          test "gvt-stall diagnostic" test_monitor_gvt_stall;
          test "shard-imbalance diagnostic" test_monitor_shard_imbalance;
          test "backpressure and annihilation-storm diagnostics"
            test_monitor_backpressure_and_storm;
        ] );
      ( "telemetry",
        [
          test "ring buffers wrap and read oldest-first" test_timeseries_ring;
          test "monitor folds the cascade run" test_monitor_folds_cascade_run;
          test "cascade-runaway diagnostic" test_monitor_cascade_runaway;
          test "stalled-interval diagnostic" test_monitor_stall_check;
          test "monitor rides the tap without the store"
            test_monitor_via_telemetry;
        ] );
      ( "recorder",
        [
          test "disabled recorder is a no-op" test_recorder_disabled_is_noop;
          test "format names round-trip" test_format_names;
        ] );
    ]
