(* Tests for the sharded multicore engine: the SPSC mailbox ring, the
   shard context, telemetry's merge of per-shard registries, and the
   sharded Time Warp executor's determinism contract (same commit set and
   byte-identical merged trace at any domain count). *)

module Mailbox = Hope_shard.Mailbox
module Shard = Hope_shard.Shard
module Context = Hope_sim.Context
module Rng = Hope_sim.Rng
module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Telemetry = Hope_sim.Telemetry
module Recorder = Hope_obs.Recorder
module Obs = Hope_obs.Obs
module Phold = Hope_workloads.Phold

let test name f = Alcotest.test_case name `Quick f

(* ----------------------------- Mailbox ---------------------------- *)

let test_mailbox_fifo_wraparound () =
  let m = Mailbox.create ~capacity:4 ~dummy:(-1) () in
  Alcotest.(check int) "power-of-two capacity" 4 (Mailbox.capacity m);
  Alcotest.(check bool) "starts empty" true (Mailbox.is_empty m);
  (* many push/pop cycles so the cursors lap the ring repeatedly *)
  let next = ref 0 in
  for round = 1 to 50 do
    let burst = 1 + (round mod 4) in
    for _ = 1 to burst do
      Alcotest.(check bool) "push accepted" true (Mailbox.try_push m !next);
      incr next
    done;
    Alcotest.(check int) "length" burst (Mailbox.length m);
    let expect_base = !next - burst in
    for k = 0 to burst - 1 do
      match Mailbox.pop m with
      | Some v -> Alcotest.(check int) "FIFO across wraps" (expect_base + k) v
      | None -> Alcotest.fail "unexpected empty"
    done
  done;
  Alcotest.(check (option int)) "drained" None (Mailbox.pop m);
  (* full ring refuses; pop frees exactly one slot *)
  for i = 0 to 3 do
    Alcotest.(check bool) "fill" true (Mailbox.try_push m i)
  done;
  Alcotest.(check bool) "full refuses" false (Mailbox.try_push m 99);
  Alcotest.(check (option int)) "head out" (Some 0) (Mailbox.pop m);
  Alcotest.(check bool) "slot freed" true (Mailbox.try_push m 4);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Mailbox.create: capacity must be positive") (fun () ->
      ignore (Mailbox.create ~capacity:0 ~dummy:0 ()))

let test_mailbox_cross_domain () =
  (* A real producer domain against the calling consumer domain, with a
     ring far smaller than the stream so back-pressure engages. *)
  let n = 20_000 in
  let m = Mailbox.create ~capacity:64 ~dummy:(-1) () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Mailbox.push m i ~while_waiting:Domain.cpu_relax
        done)
  in
  let received = ref 0 and in_order = ref true in
  while !received < n do
    match Mailbox.pop m with
    | Some v ->
      if v <> !received then in_order := false;
      incr received
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check bool) "sequence preserved across domains" true !in_order;
  Alcotest.(check bool) "empty after drain" true (Mailbox.is_empty m)

(* ----------------------------- Context ---------------------------- *)

let test_context_owner_and_streams () =
  Alcotest.(check int) "owner" 2 (Context.owner ~shards:4 6);
  Alcotest.(check int) "single shard owns all" 0 (Context.owner ~shards:1 6);
  (* per-shard RNG streams: deterministic in (seed, shard_id), pairwise
     distinct across shards *)
  let stream shard_id =
    let ctx = Context.make ~seed:7 ~shards:4 ~shard_id () in
    List.init 8 (fun _ -> Rng.bits64 (Context.rng ctx))
  in
  let streams = List.init 4 stream in
  List.iteri
    (fun i si ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d stream reproducible" i)
        true
        (si = stream i);
      List.iteri
        (fun j sj ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "shards %d/%d streams differ" i j)
              true (si <> sj))
        streams)
    streams;
  Alcotest.check_raises "bad shard_id"
    (Invalid_argument "Context.make: shard_id out of range") (fun () ->
      ignore (Context.make ~shards:2 ~shard_id:2 ()))

(* ------------------------- Telemetry merge ------------------------ *)

let test_telemetry_multi_engine_install () =
  let e1 = Engine.create ~seed:1 () and e2 = Engine.create ~seed:2 () in
  Metrics.add (Metrics.counter (Engine.metrics e1) "shard.events") 3;
  Metrics.add (Metrics.counter (Engine.metrics e2) "shard.events") 4;
  let fams tele =
    List.filter_map
      (function
        | Hope_obs.Export_openmetrics.Counter { name; labels = []; value }
          when name = "shard.events" ->
          Some value
        | _ -> None)
      (Telemetry.instruments tele)
  in
  (* idempotent: installing one engine twice counts it once *)
  let live = Telemetry.create ~recorder:(Recorder.create ()) () in
  Telemetry.install live e1;
  Telemetry.install live e1;
  Alcotest.(check (list int)) "one live engine, counted once" [ 3 ] (fams live);
  (* a sharded run's registries merge into one unlabeled family *)
  let tele = Telemetry.create ~recorder:(Recorder.create ()) () in
  Telemetry.absorb_shards tele ~engines:[| e1; e2 |] ~samples:[];
  Alcotest.(check (list int)) "one merged family, summed" [ 7 ] (fams tele);
  (* the rendered exposition also carries the family exactly once *)
  let om = Telemetry.openmetrics tele in
  let occurrences sub =
    let n = String.length om and m = String.length sub in
    let rec go i acc =
      if i + m > n then acc
      else if String.sub om i m = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one TYPE line" 1
    (occurrences "# TYPE shard_events_total counter");
  Alcotest.(check int) "one sample line" 1 (occurrences "shard_events_total 7")

(* ------------------------ Sharded executor ------------------------ *)

let small_params =
  { Phold.default_params with n_lps = 5; jobs = 12; horizon = 6.0 }

let test_shard_matches_sequential () =
  let seq = Phold.run_sequential small_params in
  List.iter
    (fun domains ->
      let o, r = Phold.run_parallel ~domains small_params in
      Alcotest.(check (array int))
        (Printf.sprintf "checksums at %d domains" domains)
        seq.Phold.checksums o.Phold.checksums;
      Alcotest.(check int)
        (Printf.sprintf "committed events at %d domains" domains)
        seq.Phold.handled_total o.Phold.handled_total;
      Alcotest.(check int)
        "commit records = committed events" o.Phold.handled_total
        r.Shard.committed;
      Alcotest.(check int) "domains recorded" domains r.Shard.domains)
    [ 1; 2; 4 ]

let test_shard_digest_stable_across_domains () =
  let digest domains =
    let _, r = Phold.run_parallel ~domains small_params in
    Shard.commits_digest r
  in
  let d1 = digest 1 in
  Alcotest.(check int) "2 domains" d1 (digest 2);
  Alcotest.(check int) "4 domains" d1 (digest 4);
  Alcotest.(check int) "3 domains" d1 (digest 3)

let merged_trace domains =
  let obs = Recorder.create () in
  Recorder.enable obs;
  let _, r = Phold.run_parallel ~domains small_params in
  Shard.merge_into obs r;
  Obs.export_string Obs.Chrome (Recorder.events obs)

let test_merged_trace_byte_identical () =
  let t1 = merged_trace 1 in
  Alcotest.(check bool) "trace non-trivial" true (String.length t1 > 100);
  Alcotest.(check string) "2 domains" t1 (merged_trace 2);
  Alcotest.(check string) "4 domains" t1 (merged_trace 4)

(* ------------------- cross-shard rollback provenance --------------- *)

let count_substring needle hay =
  let n = String.length hay and m = String.length needle in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub hay i m = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* The provenance artifacts (GraphML commit DAG, Chrome flow events)
   derive only from the merged commit stream, so they inherit its
   determinism contract: byte-identical at any domain count. *)
let provenance_exports domains =
  let obs = Recorder.create () in
  Recorder.enable obs;
  let _, r = Phold.run_parallel ~domains small_params in
  Shard.merge_into obs r;
  let events = Recorder.events obs in
  (Obs.export_string Obs.Graphml events, Obs.export_string Obs.Chrome events)

let test_provenance_byte_identical () =
  let g1, c1 = provenance_exports 1 in
  Alcotest.(check bool) "commit nodes present" true
    (count_substring "<node id=\"c:0\">" g1 > 0);
  Alcotest.(check bool) "caused-by edges present" true
    (count_substring ">caused-by<" g1 > 0);
  Alcotest.(check bool) "flow starts present" true
    (count_substring "\"ph\":\"s\"" c1 > 0);
  Alcotest.(check bool) "flow finishes present" true
    (count_substring "\"bp\":\"e\"" c1 > 0);
  let g2, c2 = provenance_exports 2 in
  let g4, c4 = provenance_exports 4 in
  Alcotest.(check string) "graphml at 2 domains" g1 g2;
  Alcotest.(check string) "graphml at 4 domains" g1 g4;
  Alcotest.(check string) "chrome at 2 domains" c1 c2;
  Alcotest.(check string) "chrome at 4 domains" c1 c4

(* ------------------- labeled shard telemetry ---------------------- *)

let shard_openmetrics ~domains =
  let obs = Recorder.create () in
  let tele = Telemetry.create ~recorder:obs () in
  let _, r = Phold.run_parallel ~domains small_params in
  Shard.merge_into obs r;
  Telemetry.absorb_shards tele ~engines:r.Shard.engines ~samples:r.Shard.samples;
  (Telemetry.openmetrics tele, r)

let test_labeled_export_per_shard () =
  let om, r = shard_openmetrics ~domains:4 in
  Alcotest.(check bool) "telemetry knows it absorbed shards" true
    (Telemetry.has_shards (Telemetry.create ~recorder:(Recorder.create ()) ())
     = false);
  (* every shard contributes a labeled entry under one family header *)
  Alcotest.(check int) "one events family" 1
    (count_substring "# TYPE shard_events_total counter" om);
  for shard = 0 to 3 do
    if
      count_substring
        (Printf.sprintf "shard_events_total{shard=\"%d\"}" shard)
        om
      = 0
    then Alcotest.failf "no labeled entry for shard %d" shard
  done;
  (* the unlabeled aggregate coexists with the labels and equals the
     executor's own total *)
  Alcotest.(check int) "aggregate events" 1
    (count_substring
       (Printf.sprintf "shard_events_total %d" r.Shard.processed)
       om);
  (* GVT trajectory series landed *)
  Alcotest.(check bool) "gvt series" true (count_substring "hope_gvt " om > 0);
  Alcotest.(check bool) "per-shard lvt series" true
    (count_substring "hope_shard_lvt{shard=\"0\"}" om > 0)

let test_labeled_export_deterministic () =
  (* domains = 1 runs the whole executor on the calling domain, so even
     the per-run side is reproducible — byte-identical export. *)
  let om1, _ = shard_openmetrics ~domains:1 in
  let om2, _ = shard_openmetrics ~domains:1 in
  Alcotest.(check string) "byte-identical at 1 domain" om1 om2

(* ------------------- wasted-event attribution --------------------- *)

let qcheck_attribution_sums =
  QCheck.Test.make
    ~name:
      "shard: wasted-event attribution sums to the executor's rolled-back \
       total at any domain count"
    ~count:12
    QCheck.(
      quad (int_range 1 6) (int_range 1 10) (int_range 0 100) small_int)
    (fun (n_lps, jobs, remote_pct, seed) ->
      let p =
        {
          Phold.default_params with
          n_lps;
          jobs;
          remote_prob = float_of_int remote_pct /. 100.;
          horizon = 4.0;
        }
      in
      List.for_all
        (fun domains ->
          let _, r = Phold.run_parallel ~domains ~seed p in
          let attributed =
            List.fold_left (fun acc (_, n) -> acc + n) 0 r.Shard.wasted_by_root
          in
          (* every undone execution is attributed to exactly one root *)
          attributed = r.Shard.rolled_back
          && List.for_all (fun (_, n) -> n > 0) r.Shard.wasted_by_root
          (* roots identify real shards (or -1 for local/seed causes) *)
          && List.for_all
               (fun ((pr : Shard.provenance), _) ->
                 pr.Shard.p_shard >= -1 && pr.Shard.p_shard < domains)
               r.Shard.wasted_by_root)
        [ 1; 2; 4 ])

let qcheck_shard_deterministic =
  QCheck.Test.make
    ~name:
      "shard: random phold commits the sequential event set with an \
       identical merge at 2 and 4 domains"
    ~count:12
    QCheck.(
      quad (int_range 1 6) (int_range 1 10) (int_range 0 100) small_int)
    (fun (n_lps, jobs, remote_pct, seed) ->
      let p =
        {
          Phold.default_params with
          n_lps;
          jobs;
          remote_prob = float_of_int remote_pct /. 100.;
          horizon = 4.0;
        }
      in
      let seq = Phold.run_sequential p in
      let runs =
        List.map
          (fun domains ->
            let obs = Recorder.create () in
            Recorder.enable obs;
            let o, r = Phold.run_parallel ~domains ~seed p in
            Shard.merge_into obs r;
            (o, r, Obs.export_string Obs.Chrome (Recorder.events obs)))
          [ 1; 2; 4 ]
      in
      match runs with
      | [ (o1, r1, t1); (o2, r2, t2); (o4, r4, t4) ] ->
        o1.Phold.checksums = seq.Phold.checksums
        && o2.Phold.checksums = seq.Phold.checksums
        && o4.Phold.checksums = seq.Phold.checksums
        && o1.Phold.handled_total = seq.Phold.handled_total
        && Shard.commits_digest r1 = Shard.commits_digest r2
        && Shard.commits_digest r1 = Shard.commits_digest r4
        && t1 = t2 && t1 = t4
      | _ -> false)

let () =
  Alcotest.run "shard"
    [
      ( "mailbox",
        [
          test "FIFO across wraparound, full/empty edges"
            test_mailbox_fifo_wraparound;
          test "cross-domain SPSC under back-pressure" test_mailbox_cross_domain;
        ] );
      ( "context",
        [ test "owner map and per-shard rng streams" test_context_owner_and_streams ] );
      ( "telemetry",
        [ test "multi-engine install merges, idempotently" test_telemetry_multi_engine_install ] );
      ( "executor",
        [
          test "matches the sequential reference at 1/2/4 domains"
            test_shard_matches_sequential;
          test "commit digest is domain-count independent"
            test_shard_digest_stable_across_domains;
          test "merged chrome trace is byte-identical"
            test_merged_trace_byte_identical;
          QCheck_alcotest.to_alcotest qcheck_shard_deterministic;
        ] );
      ( "observability",
        [
          test "provenance exports are byte-identical across domains"
            test_provenance_byte_identical;
          test "labeled per-shard openmetrics families"
            test_labeled_export_per_shard;
          test "labeled export deterministic at 1 domain"
            test_labeled_export_deterministic;
          QCheck_alcotest.to_alcotest qcheck_attribution_sums;
        ] );
    ]
