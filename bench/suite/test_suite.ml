(* Tests for the reference suite: its statistics helpers, its input
   generation, its command line, and a shrunk end-to-end run of every
   workload checked against BENCHMARK.json.

   Run as: test_suite.exe HOPE_BENCH_EXE BENCHMARK_JSON *)

open Hope_suite

let exe =
  let e = Sys.argv.(1) in
  if Filename.is_relative e then Filename.concat (Sys.getcwd ()) e else e

let spec_file = Sys.argv.(2)
let feq = Alcotest.float 1e-12

(* Run hope_bench; returns (exit code, stdout). stderr passes through. *)
let hope_bench args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, out)
  | _ -> Alcotest.fail "hope_bench was killed"

let last_line out =
  match List.rev (String.split_on_char '\n' (String.trim out)) with
  | l :: _ -> Json.of_string l
  | [] -> Alcotest.fail "no output"

let names key json =
  List.map
    (fun m ->
      match Json.member "name" m with Json.String s -> s | _ -> Alcotest.fail "no name")
    (Json.to_list (Json.member key json))

(* ---------------------------------------------------------------- *)

let test_median () =
  Alcotest.check feq "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check feq "single" 7.0 (Stats.median [ 7.0 ])

(* Expected values from Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let check name data (q1, q3) =
    let a, b = Stats.quartiles data in
    Alcotest.check feq (name ^ " q1") q1 a;
    Alcotest.check feq (name ^ " q3") q3 b
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 8.25);
  check "unsorted 9" [ 9.; 1.; 8.; 2.; 7.; 3.; 6.; 4.; 5. ] (2.5, 7.5);
  check "two points" [ 1.0; 2.0 ] (0.75, 2.25);
  check "one point" [ 5.0 ] (5.0, 5.0)

let test_inputs_deterministic () =
  let p = Workloads.parallel_params Workloads.Full in
  let a = Workloads.parallel_inputs p ~seed:42 in
  Alcotest.(check bool) "same seed, same inputs" true (a = Workloads.parallel_inputs p ~seed:42);
  Alcotest.(check bool) "other seed, other inputs" false (a = Workloads.parallel_inputs p ~seed:7);
  Alcotest.(check int) "one event per job" p.jobs (List.length a)

let test_bad_input () =
  let exits_2 what args =
    let code, out = hope_bench args in
    Alcotest.(check int) (what ^ " exits 2") 2 code;
    Alcotest.(check string) (what ^ " prints no result") "" out
  in
  exits_2 "unknown workload" [ "--workload"; "nope"; "--reps"; "1" ];
  exits_2 "--reps 0" [ "--workload"; Spec.phold_hope; "--reps"; "0" ];
  exits_2 "--trace 2" [ "--workload"; Spec.phold_hope; "--trace"; "2" ];
  exits_2 "unreadable agree file" [ "agree"; "missing-a.json"; "missing-b.json" ];
  Out_channel.with_open_bin "not-a-result.json" (fun oc ->
      output_string oc "{\"schema\": \"other\"}");
  exits_2 "mismatched agree file" [ "agree"; "not-a-result.json"; "not-a-result.json" ]

(* The result line of a single-workload run names exactly the metrics
   BENCHMARK.json declares, with the same units. *)
let test_result_line_matches_spec () =
  let spec = Json.read_file spec_file in
  List.iter
    (fun (trace, key) ->
      let code, out =
        hope_bench
          [ "--workload"; Spec.phold_hope; "--small"; "--reps"; "1"; "--trace"; trace ]
      in
      Alcotest.(check int) "exit" 0 code;
      let r = last_line out in
      Alcotest.(check bool) "correct" true (Json.member "correct" r = Json.Bool true);
      let metrics =
        match Json.member "metrics" r with Json.Assoc kvs -> kvs | _ -> []
      in
      Alcotest.(check (list string)) key (names key spec) (List.map fst metrics);
      List.iter
        (fun m ->
          let name = Json.member "name" m in
          let name = match name with Json.String s -> s | _ -> "" in
          Alcotest.(check bool)
            (name ^ " unit")
            true
            (Json.member "unit" m = Json.member "unit" (List.assoc name metrics)))
        (Json.to_list (Json.member key spec)))
    [ ("0", "end_to_end"); ("1", "per_layer") ]

(* BENCHMARK.json's per-layer list is the suite's catalogue. *)
let test_catalogue_matches_spec () =
  let spec = Json.read_file spec_file in
  let catalogue =
    List.map
      (fun (m : Spec.metric) -> (m.name, m.unit_, Spec.better_name m.better))
      Spec.per_layer
  in
  let declared =
    List.map
      (fun m ->
        let s k = match Json.member k m with Json.String s -> s | _ -> "" in
        (s "name", s "unit", s "better"))
      (Json.to_list (Json.member "per_layer" spec))
  in
  Alcotest.(check (list (triple string string string))) "per_layer" catalogue declared;
  Alcotest.(check (list string))
    "workloads" Spec.workloads (names "workloads" spec)

(* Every workload, shrunk, one timed rep, through the suite command. *)
let smoke_file = "smoke.json"

let test_smoke () =
  let code, _ = hope_bench [ "--small"; "--reps"; "1"; "--json"; smoke_file ] in
  Alcotest.(check int) "exit" 0 code;
  let spec = Json.read_file spec_file in
  let doc = Json.read_file smoke_file in
  let runs = Json.to_list (Json.member "workloads" doc) in
  Alcotest.(check int) "workloads" (List.length Spec.workloads) (List.length runs);
  List.iter
    (fun r ->
      let e2e = Json.member "end_to_end" r in
      let rate = Json.member "median" (Json.member "error_rate" e2e) in
      Alcotest.(check bool) "error_rate 0" true (Json.to_float_opt rate = Some 0.0);
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (name ^ " measured") true
            (Json.to_float_opt (Json.member "median" (Json.member name e2e)) <> None))
        (names "end_to_end" spec);
      match Json.member "per_layer" r with
      | Json.Assoc layers ->
        Alcotest.(check (list string)) "per_layer" (names "per_layer" spec) (List.map fst layers);
        List.iter
          (fun (name, v) ->
            match Json.member "value" v with
            | Json.Null -> ()
            | x ->
              Alcotest.(check bool)
                (name ^ " finite") true
                (Option.fold ~none:false ~some:Float.is_finite (Json.to_float_opt x)))
          layers
      | _ -> Alcotest.fail "no per_layer")
    runs

let test_agree () =
  let code, _ = hope_bench [ "agree"; smoke_file; smoke_file; "--spec"; spec_file ] in
  Alcotest.(check int) "a file agrees with itself" 0 code;
  (* A copy of the smoke run with [f] applied to every median of
     [metric]. *)
  let adjusted metric f =
    let rec go = function
      | Json.Assoc kvs ->
        Json.Assoc
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | k, Json.Assoc m when k = metric ->
                 ( k,
                   Json.Assoc
                     (List.map
                        (function
                          | "median", Json.Float x -> ("median", Json.Float (f x)) | kv -> kv)
                        m) )
               | _ -> (k, go v))
             kvs)
      | Json.List l -> Json.List (List.map go l)
      | v -> v
    in
    Json.write_file "adjusted.json" (go (Json.read_file smoke_file));
    fst (hope_bench [ "agree"; smoke_file; "adjusted.json"; "--spec"; spec_file ])
  in
  Alcotest.(check int)
    "a doubled median disagrees" 1
    (adjusted "committed_per_s" (fun x -> 2.0 *. x));
  Alcotest.(check int)
    "set-up may move by 0.02 s" 0
    (adjusted "setup_s" (fun x -> x +. (0.9 *. Spec.setup_floor_s)));
  (match Json.read_file smoke_file with
  | Json.Assoc kvs ->
    Json.write_file "reseeded.json"
      (Json.Assoc (List.map (function "seed", _ -> ("seed", Json.Int 7) | kv -> kv) kvs))
  | _ -> Alcotest.fail "result file is not an object");
  let code, _ = hope_bench [ "agree"; smoke_file; "reseeded.json"; "--spec"; spec_file ] in
  Alcotest.(check int) "runs at another seed are mismatched" 2 code

let () =
  let test name f = Alcotest.test_case name `Quick f in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "hope_bench"
    [
      ( "stats",
        [
          test "median of odd and even samples" test_median;
          test "quartiles match Python statistics.quantiles" test_quartiles;
        ] );
      ("inputs", [ test "phold-parallel inputs follow the seed" test_inputs_deterministic ]);
      ( "cli",
        [
          test "bad input exits 2 without a result" test_bad_input;
          test "result line names BENCHMARK.json's metrics" test_result_line_matches_spec;
          test "per-layer catalogue matches BENCHMARK.json" test_catalogue_matches_spec;
        ] );
      ( "smoke",
        [
          test "every workload shrunk, one rep, error_rate 0" test_smoke;
          test "agree accepts itself and bounds each median" test_agree;
        ] );
    ]
