(* One workload, measured from the outside. Every run of the workload —
   one replica at one seed — happens in a fresh child process: the
   libraries keep process-global caches (the Aid_set union memo), so a
   run in a warm process would reuse the unions of the previous run at
   the same seed and report a cost no real run pays. The measuring
   process spawns one untimed warm-up run, the timed reps, then (with
   [trace]) one traced run at the base seed, and runs the layer probes
   itself. *)

type timed = Reps of int | Seconds of float

type plan = {
  size : Workloads.size;
  seed : int;
  timed : timed;
  trace : bool;  (** run the traced rep and the probes *)
}

type result = {
  workload : Workloads.t;
  plan : plan;
  attempted : int;
  failed : int;
  committed : int;
  e2e : (string * float list) list;
      (** samples of each applicable end-to-end metric *)
  layers : (string * float) list;
      (** each applicable per-layer metric; empty without [trace] *)
}

let now = Unix.gettimeofday

(* ---------------------------------------------------------------- *)
(* One run, in this process                                          *)

(* Minor words allocated so far by every domain, exact: the minor
   collection folds this domain's partial minor heap into the count, and
   the counts of joined domains are already folded in. *)
let words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let floats kvs = Json.Assoc (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

(* Set up and run one replica; the measurement as one JSON object.
   Set-up is timed around [prepare] alone, so the cost of starting the
   process is not part of it. *)
let run_once (w : Workloads.t) size ~seed ~traced =
  let t0 = now () in
  let p = w.prepare size ~seed in
  let setup_s = now () -. t0 in
  Gc.full_major ();
  let w0 = words () in
  let t1 = now () in
  let o = p.rep ~traced in
  let t2 = now () in
  let w1 = words () in
  Json.Assoc
    [
      ("setup_s", Json.Float setup_s);
      ("seconds", Json.Float (t2 -. t1));
      ("words", Json.Float (w1 -. w0));
      ("top_heap_words", Json.Int (Gc.quick_stat ()).Gc.top_heap_words);
      ("reference_vs", Json.float_or_null p.reference_vs);
      ("committed", Json.Int o.committed);
      ("makespan_vs", Json.Float o.makespan_vs);
      ("model_s", Json.Float o.model_s);
      ("fingerprint", Json.String o.fingerprint);
      ("counts", floats o.counts);
      ("traced", floats o.traced);
    ]

(* ---------------------------------------------------------------- *)
(* Runs in child processes                                           *)

type run = {
  outcome : Workloads.outcome;
  setup_s : float;  (** host seconds of set-up: input generation plus oracle *)
  seconds : float;  (** host seconds of the run itself *)
  words : float;  (** minor words of the run, every domain *)
  heap_mb : float;  (** the process's major-heap high-water mark *)
  reference_vs : float option;  (** pessimistic makespan *)
}

let run_of_json j =
  let num k = Option.value (Json.to_float_opt (Json.member k j)) ~default:nan in
  let assoc k =
    match Json.member k j with
    | Json.Assoc kvs -> List.map (fun (k, v) -> (k, Option.value (Json.to_float_opt v) ~default:nan)) kvs
    | _ -> []
  in
  {
    outcome =
      {
        Workloads.committed = int_of_float (num "committed");
        makespan_vs = num "makespan_vs";
        counts = assoc "counts";
        traced = assoc "traced";
        model_s = num "model_s";
        fingerprint = Option.value (Json.to_string_opt (Json.member "fingerprint" j)) ~default:"";
      };
    setup_s = num "setup_s";
    seconds = num "seconds";
    words = num "words";
    heap_mb = num "top_heap_words" *. float_of_int (Sys.word_size / 8) /. 1e6;
    reference_vs = Json.to_float_opt (Json.member "reference_vs" j);
  }

(* Run this executable with [args] in a child process and return the
   JSON on the last line of its stdout. Raises [Failure] if the child
   fails or prints no result. *)
let child_json args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, List.rev (String.split_on_char '\n' (String.trim out))) with
  | Unix.WEXITED 0, line :: _ -> (
    try Json.of_string line with Json.Parse_error msg -> failwith ("malformed result: " ^ msg))
  | _ -> failwith "the child process failed"

let spawn (w : Workloads.t) size ~seed ~traced =
  let args =
    [ "--run-once"; w.name; "--seed"; string_of_int seed ]
    @ (if traced then [ "--traced" ] else [])
    @ match size with Workloads.Small -> [ "--small" ] | Workloads.Full -> []
  in
  match child_json args with
  | j -> run_of_json j
  | exception Failure msg ->
    failwith (Printf.sprintf "%s: the run at seed %d failed: %s" w.name seed msg)

(* A rep: every replica of the workload, one after another. Throughput
   and allocation are totals over the replicas; heap and the pessimistic
   makespan are the replicas' means, like the makespan in [outcome]. *)
type rep = {
  runs : run list;  (** replica order: the first is at the base seed *)
  outcome : Workloads.outcome;
  seconds : float;
  words : float;
  heap_mb : float;
  reference_vs : float option;
}

let run_rep w size seeds =
  let runs = List.map (fun seed -> spawn w size ~seed ~traced:false) seeds in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  let mean f = sum f /. float_of_int (List.length runs) in
  {
    runs;
    outcome = Workloads.combine (List.map (fun (r : run) -> r.outcome) runs);
    seconds = sum (fun r -> r.seconds);
    words = sum (fun r -> r.words);
    heap_mb = mean (fun r -> r.heap_mb);
    reference_vs =
      Option.map
        (fun _ -> mean (fun r -> Option.value r.reference_vs ~default:nan))
        (List.hd runs).reference_vs;
  }

(* ---------------------------------------------------------------- *)
(* A workload                                                        *)

(* Per-layer metrics: registry counts (median over the timed reps), the
   traced run's metrics, and the probes. *)
let layer_metrics (w : Workloads.t) plan ~(traced : run option) reps =
  let first = List.hd reps in
  let counts =
    List.map
      (fun (name, _) ->
        (name, Stats.median (List.map (fun r -> List.assoc name r.outcome.counts) reps)))
      first.outcome.counts
  in
  let traced =
    match traced with
    | None -> []
    | Some t ->
      (* the traced run is at the base seed, the first replica of a rep *)
      let untraced = Stats.median (List.map (fun r -> (List.hd r.runs).seconds) reps) in
      let domain_s = float_of_int w.domains *. t.seconds in
      t.outcome.traced
      @ [
          ("obs.store_overhead_pct", 100.0 *. ((t.seconds /. untraced) -. 1.0));
          ("shard.model_time_share", t.outcome.model_s /. domain_s);
          ( "shard.executor_ns_per_commit",
            (domain_s -. t.outcome.model_s) *. 1e9 /. float_of_int t.outcome.committed );
        ]
  in
  let budget =
    match plan.size with Workloads.Full -> Probes.full | Workloads.Small -> Probes.quick
  in
  let v name = Option.value (List.assoc_opt name counts) ~default:0.0 in
  let probes =
    Probes.run budget ~latency:w.latency
      ~committed:(List.hd first.runs).outcome.committed v
  in
  List.filter
    (fun (name, _) ->
      List.exists
        (fun (m : Spec.metric) -> m.name = name && Spec.applies m w.name)
        Spec.per_layer)
    (counts @ traced @ probes)

let run (w : Workloads.t) plan =
  let seeds = Workloads.replica_seeds w plan.size ~seed:plan.seed in
  let attempted = ref 0 and failed = ref 0 in
  let attempt what f =
    incr attempted;
    match f () with
    | r -> Some r
    | exception Failure msg ->
      incr failed;
      Printf.eprintf "%s: %s failed: %s\n%!" w.name what msg;
      None
  in
  (* Every rep must reproduce the first timed rep's fingerprint. *)
  let reference = ref None in
  let timed_rep () =
    let r = run_rep w plan.size seeds in
    (match !reference with
    | None -> reference := Some r.outcome.fingerprint
    | Some f when f = r.outcome.fingerprint -> ()
    | Some f ->
      failwith
        (Printf.sprintf "it differs from the first timed rep:\n  %s\n  %s"
           r.outcome.fingerprint f));
    r
  in
  ignore (attempt "the warm-up" (fun () -> run_rep w plan.size [ List.hd seeds ]));
  let start = now () in
  let rec loop n acc =
    let more =
      match plan.timed with
      | Reps k -> n < k
      | Seconds s -> n = 0 || now () -. start < s
    in
    if not more then List.rev acc
    else
      let what = Printf.sprintf "rep %d" (n + 1) in
      match attempt what timed_rep with
      | Some r -> loop (n + 1) (r :: acc)
      | None -> loop (n + 1) acc
  in
  let reps = loop 0 [] in
  if reps = [] then failwith (w.name ^ ": every timed rep failed");
  let committed = (List.hd reps).outcome.committed in
  let c = float_of_int committed in
  let each f = List.map f reps in
  let makespans = each (fun r -> r.outcome.makespan_vs) in
  let layers =
    if not plan.trace then []
    else
      let traced =
        attempt "the traced run" (fun () ->
            let t = spawn w plan.size ~seed:plan.seed ~traced:true in
            let base = (List.hd (List.hd reps).runs).outcome.fingerprint in
            if t.outcome.fingerprint <> base then
              failwith "it differs from the untraced run at the same seed";
            t)
      in
      layer_metrics w plan ~traced reps
  in
  let e2e =
    [
      ("committed_per_s", each (fun r -> c /. r.seconds));
      ("minor_words_per_commit", each (fun r -> r.words /. c));
      ("peak_heap_mb", each (fun r -> r.heap_mb));
      ("makespan_vs", makespans);
    ]
    @ (match (List.hd reps).reference_vs with
      | Some p -> [ ("speedup_vs_pessimistic", List.map (fun m -> p /. m) makespans) ]
      | None -> [])
    @ [
        ("setup_s", List.concat_map (fun r -> List.map (fun (x : run) -> x.setup_s) r.runs) reps);
        ("error_rate", [ float_of_int !failed /. float_of_int !attempted ]);
      ]
  in
  { workload = w; plan; attempted = !attempted; failed = !failed; committed; e2e; layers }

(* ---------------------------------------------------------------- *)
(* Output                                                            *)

let size_name = function Workloads.Full -> "full" | Workloads.Small -> "small"

let summary samples =
  let q1, q3 = Stats.quartiles samples in
  (Stats.median samples, q1, q3)

(* The result line of a single-workload run: the gated end-to-end
   metrics, or with [trace] every per-layer metric (0 where n/a). *)
let result_line r =
  let metric name unit_ value =
    (name, Json.Assoc [ ("value", Json.Float value); ("unit", Json.String unit_) ])
  in
  let metrics =
    if r.plan.trace then
      List.map
        (fun (m : Spec.metric) ->
          metric m.name m.unit_ (Option.value (List.assoc_opt m.name r.layers) ~default:0.0))
        Spec.per_layer
    else
      List.map
        (fun name ->
          let m = Spec.find_e2e name in
          let med, _, _ = summary (List.assoc name r.e2e) in
          metric name m.unit_ med)
        Spec.gated
  in
  Json.Assoc
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Assoc metrics);
    ]

(* The full record of a run, as the suite's result files hold it. *)
let to_json r =
  let w = r.workload in
  let e2e =
    List.map
      (fun (m : Spec.metric) ->
        ( m.name,
          match List.assoc_opt m.name r.e2e with
          | None -> Json.Null
          | Some samples ->
            let med, q1, q3 = summary samples in
            Json.Assoc
              [
                ("unit", Json.String m.unit_);
                ("median", Json.Float med);
                ("q1", Json.Float q1);
                ("q3", Json.Float q3);
                ("n", Json.Int (List.length samples));
                ("samples", Json.List (List.map (fun x -> Json.Float x) samples));
              ] ))
      Spec.end_to_end
  in
  let layers =
    List.map
      (fun (m : Spec.metric) ->
        ( m.name,
          Json.Assoc
            [
              ("unit", Json.String m.unit_);
              ("value", Json.float_or_null (List.assoc_opt m.name r.layers));
            ] ))
      Spec.per_layer
  in
  Json.Assoc
    [
      ("workload", Json.String w.name);
      ("why", Json.String w.why);
      ("committed_unit", Json.String w.committed_unit);
      ("params", Json.Assoc (w.params r.plan.size));
      ("seed", Json.Int r.plan.seed);
      ( "replica_seeds",
        Json.List
          (List.map
             (fun s -> Json.Int s)
             (Workloads.replica_seeds w r.plan.size ~seed:r.plan.seed)) );
      ("size", Json.String (size_name r.plan.size));
      ("committed", Json.Int r.committed);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("end_to_end", Json.Assoc e2e);
      ("per_layer", Json.Assoc layers);
    ]
