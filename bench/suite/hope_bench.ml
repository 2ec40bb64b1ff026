(* hope_bench: the end-to-end reference suite.

     hope_bench [--seed N] [--reps N] [--json FILE] [--small]
       Runs the four workloads one after another, each in its own child
       process: 1 warm-up run, N timed reps (default 9), 1 traced run,
       then the layer probes. Prints every metric with its unit and
       writes the results as JSON. Exits 1 if any rep failed.

     hope_bench --workload NAME [--seed N] (--reps N | --seconds S)
                [--trace 0|1] [--small] [--record]
       Measures one workload and prints one JSON result line: the gated
       end-to-end metrics, or with --trace 1 the per-layer ones. With
       --record the line is instead the full record the suite collects.

     hope_bench agree A.json B.json [--spec BENCHMARK.json]
       Compares two result files. Exits 1 if any end-to-end median differs
       by more than its bound (set-up time may always move by 0.02 s).

     hope_bench --run-once NAME [--seed N] [--traced] [--small]
       Sets up and runs the workload once at exactly this seed, printing
       the measurement as JSON. The measuring process runs every rep's
       runs this way, each in a fresh process.

   Bad input exits 2 with a message. *)

open Hope_suite

let schema = "hope-bench-suite/1"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("hope_bench: " ^ msg);
      exit 2)
    fmt

let int_arg flag s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> die "%s expects an integer, got %S" flag s

(* ---------------------------------------------------------------- *)
(* Printing                                                          *)

let print_result json =
  let str k = Option.value (Json.to_string_opt (Json.member k json)) ~default:"?" in
  let num v = Option.value (Json.to_float_opt v) ~default:nan in
  Printf.printf "\n== %s  (%s; committed unit: %s)\n" (str "workload") (str "why")
    (str "committed_unit");
  Printf.printf "   attempted %.0f reps, failed %.0f\n"
    (num (Json.member "attempted" json))
    (num (Json.member "failed" json));
  List.iter
    (fun (m : Spec.metric) ->
      match Json.member m.name (Json.member "end_to_end" json) with
      | Json.Null -> Printf.printf "   %-28s %14s\n" m.name "n/a"
      | s ->
        let f k = num (Json.member k s) in
        Printf.printf "   %-28s %14.6g %-6s  [q1 %.6g, q3 %.6g, n=%.0f]\n" m.name
          (f "median") m.unit_ (f "q1") (f "q3") (f "n"))
    Spec.end_to_end;
  List.iter
    (fun (m : Spec.metric) ->
      match Json.member "value" (Json.member m.name (Json.member "per_layer" json)) with
      | Json.Null -> Printf.printf "   %-36s %14s\n" m.name "n/a"
      | v -> Printf.printf "   %-36s %14.6g %s\n" m.name (num v) m.unit_)
    Spec.per_layer

(* ---------------------------------------------------------------- *)
(* Suite: every workload measured by a child process of its own      *)

let run_child ~seed ~reps ~small name =
  let args =
    [ "--workload"; name; "--seed"; string_of_int seed; "--reps"; string_of_int reps ]
    @ [ "--trace"; "1"; "--record" ]
    @ if small then [ "--small" ] else []
  in
  try Runner.child_json args
  with Failure msg ->
    prerr_endline ("hope_bench: workload " ^ name ^ " did not produce a result: " ^ msg);
    exit 1

let suite ~seed ~reps ~small ~json_file =
  let cores = Domain.recommended_domain_count () in
  Printf.printf "hope_bench: seed %d, %d reps, %d cores, OCaml %s\n%!" seed reps cores
    Sys.ocaml_version;
  let results =
    List.map
      (fun name ->
        let r = run_child ~seed ~reps ~small name in
        print_result r;
        r)
      Spec.workloads
  in
  let failed =
    List.exists
      (fun r -> Json.to_float_opt (Json.member "failed" r) <> Some 0.0)
      results
  in
  let doc =
    Json.Assoc
      [
        ("schema", Json.String schema);
        ("seed", Json.Int seed);
        ("reps", Json.Int reps);
        ("size", Json.String (if small then "small" else "full"));
        ("cores", Json.Int cores);
        ("ocaml", Json.String Sys.ocaml_version);
        ("workloads", Json.List results);
        ("metrics", Spec.catalogue_json ());
      ]
  in
  (match json_file with
  | Some file -> (
    try
      Json.write_file file doc;
      Printf.printf "\nresults written to %s\n" file
    with Sys_error msg -> die "cannot write %s: %s" file msg)
  | None -> ());
  if failed then begin
    prerr_endline "hope_bench: some reps failed";
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* agree                                                             *)

let load file =
  match Json.read_file file with
  | json ->
    if Json.member "schema" json <> Json.String schema then
      die "%s is not a %s result file" file schema;
    json
  | exception Sys_error msg -> die "cannot read %s" msg
  | exception Json.Parse_error msg -> die "%s: invalid JSON: %s" file msg

(* The bound of each gated metric, from BENCHMARK.json. *)
let bounds spec_file =
  let spec =
    try Json.read_file spec_file with
    | Sys_error msg -> die "cannot read %s" msg
    | Json.Parse_error msg -> die "%s: invalid JSON: %s" spec_file msg
  in
  List.filter_map
    (fun m ->
      match (Json.member "name" m, Json.to_float_opt (Json.member "bound" m)) with
      | Json.String name, Some b -> Some (name, b)
      | _ -> None)
    (Json.to_list (Json.member "end_to_end" spec))
  @ Spec.local_bounds

let agree a_file b_file spec_file =
  let a = load a_file and b = load b_file in
  let bounds = bounds spec_file in
  List.iter
    (fun k ->
      if Json.member k a <> Json.member k b then
        die "%s and %s differ in %s; they are not runs of the same suite" a_file
          b_file k)
    [ "seed"; "size" ];
  let by_name json =
    List.map
      (fun w -> (Option.value (Json.to_string_opt (Json.member "workload" w)) ~default:"", w))
      (Json.to_list (Json.member "workloads" json))
  in
  let wa = by_name a and wb = by_name b in
  if List.map fst wa <> List.map fst wb then
    die "%s and %s hold different workloads" a_file b_file;
  let disagree = ref 0 in
  Printf.printf "%-16s %-24s %14s %9s %14s %9s %9s %7s\n" "workload" "metric" "A median"
    "A IQR%" "B median" "B IQR%" "delta%" "bound%";
  List.iter
    (fun (name, ra) ->
      let rb = List.assoc name wb in
      List.iter
        (fun (m : Spec.metric) ->
          let get r k = Json.to_float_opt (Json.member k (Json.member m.name (Json.member "end_to_end" r))) in
          match (get ra "median", get rb "median") with
          | None, None -> ()
          | Some ma, Some mb ->
            let iqr r med =
              match (get r "q1", get r "q3") with
              | Some q1, Some q3 when med <> 0.0 -> 100.0 *. (q3 -. q1) /. Float.abs med
              | _ -> 0.0
            in
            let bound =
              match List.assoc_opt m.name bounds with
              | Some b -> b
              | None -> die "no bound for %s in %s" m.name spec_file
            in
            let delta =
              if ma = mb then 0.0
              else if ma = 0.0 then infinity
              else Float.abs (mb -. ma) /. Float.abs ma
            in
            let allowed =
              let share = bound *. Float.abs ma in
              if m.name = "setup_s" then Float.max share Spec.setup_floor_s else share
            in
            let ok = Float.abs (mb -. ma) <= allowed in
            if not ok then incr disagree;
            Printf.printf "%-16s %-24s %14.6g %9.2f %14.6g %9.2f %9.3f %7.2f %s\n" name
              m.name ma (iqr ra ma) mb (iqr rb mb) (100.0 *. delta) (100.0 *. bound)
              (if ok then "ok" else "DIFFERS")
          | _ -> die "%s: %s is n/a in only one file" name m.name)
        Spec.end_to_end)
    wa;
  if !disagree > 0 then begin
    Printf.printf "\n%d metric(s) differ by more than their bound\n" !disagree;
    exit 1
  end
  else print_endline "\nall medians agree within their bounds"

(* ---------------------------------------------------------------- *)
(* Command line                                                      *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | "agree" :: rest -> (
    let rec parse files spec = function
      | [] -> (List.rev files, spec)
      | "--spec" :: f :: rest -> parse files f rest
      | [ "--spec" ] -> die "--spec expects a file"
      | f :: rest -> parse (f :: files) spec rest
    in
    match parse [] "BENCHMARK.json" rest with
    | [ a; b ], spec -> agree a b spec
    | _ -> die "usage: hope_bench agree A.json B.json [--spec BENCHMARK.json]")
  | _ ->
    let seed = ref Spec.default_seed
    and reps = ref None
    and seconds = ref None
    and trace = ref false
    and workload = ref None
    and json_file = ref None
    and small = ref false
    and record = ref false
    and run_once = ref None
    and traced = ref false in
    let known v =
      if not (List.mem v Spec.workloads) then
        die "unknown workload %S (have: %s)" v (String.concat ", " Spec.workloads);
      v
    in
    let rec parse = function
      | [] -> ()
      | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        parse rest
      | "--reps" :: v :: rest ->
        let n = int_arg "--reps" v in
        if n < 1 then die "--reps must be at least 1, got %d" n;
        reps := Some n;
        parse rest
      | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := Some s
        | _ -> die "--seconds expects a positive number, got %S" v);
        parse rest
      | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> die "--trace expects 0 or 1, got %S" v);
        parse rest
      | "--workload" :: v :: rest ->
        workload := Some (known v);
        parse rest
      | "--run-once" :: v :: rest ->
        run_once := Some (known v);
        parse rest
      | "--traced" :: rest ->
        traced := true;
        parse rest
      | "--json" :: v :: rest ->
        json_file := Some v;
        parse rest
      | "--small" :: rest ->
        small := true;
        parse rest
      | "--record" :: rest ->
        record := true;
        parse rest
      | [ flag ] when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        die "%s expects a value" flag
      | a :: _ -> die "unexpected argument %S" a
    in
    parse args;
    let size = if !small then Workloads.Small else Workloads.Full in
    let workload_of name = Option.get (Workloads.find name) in
    match (!run_once, !workload) with
    | Some name, _ -> (
      match Runner.run_once (workload_of name) size ~seed:!seed ~traced:!traced with
      | json -> print_endline (Json.to_string json)
      | exception e ->
        prerr_endline ("hope_bench: " ^ Printexc.to_string e);
        exit 1)
    | None, None ->
      if !seconds <> None then die "--seconds needs --workload";
      suite ~seed:!seed
        ~reps:(Option.value !reps ~default:Spec.default_reps)
        ~small:!small ~json_file:!json_file
    | None, Some name ->
      if !json_file <> None then die "--json writes the suite's results; drop --workload";
      let w = workload_of name in
      let timed =
        match (!reps, !seconds) with
        | Some _, Some _ -> die "give --reps or --seconds, not both"
        | Some n, None -> Runner.Reps n
        | None, Some s -> Runner.Seconds s
        | None, None -> Runner.Reps Spec.default_reps
      in
      let plan = { Runner.size; seed = !seed; timed; trace = !trace || !record } in
      let r =
        try Runner.run w plan
        with Failure msg ->
          prerr_endline ("hope_bench: " ^ msg);
          exit 1
      in
      print_endline
        (Json.to_string (if !record then Runner.to_json r else Runner.result_line r))
