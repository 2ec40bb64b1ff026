(* Feeds synthetic hope-bench snapshots through compare.exe and checks its
   exit status: 0 clean, 1 regression, 2 malformed input.

     dune test bench        (runs: test_compare.exe PATH/TO/compare.exe) *)

let compare_exe = ref ""

(* [gate_json] and [row_json] take their numbers as JSON text, so a test
   can write null where a finite number belongs. *)
let gate_json ?(experiment = "g") ?(fatal = true) name value op bound =
  Printf.sprintf
    {|{"experiment": %S, "gate": %S, "value": %s, "op": %S, "bound": %s, "fatal": %b}|}
    experiment name value op bound fatal

let row_json ?(estimate = false) ?group experiment key metrics =
  let obj kvs =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs) ^ "}"
  in
  Printf.sprintf {|{"experiment": %S, "group": %S, "key": %s, "metrics": %s%s}|}
    experiment
    (Option.value group ~default:experiment)
    (obj key) (obj metrics)
    (if estimate then {|, "estimate": true|} else "")

let snapshot ?(schema = "hope-bench/2") ?(experiments = [ "g" ]) ?(rows = [])
    ?(gates = []) () =
  Printf.sprintf {|{"schema": %S, "experiments": [%s], "rows": [%s], "gates": [%s]}|}
    schema
    (String.concat ", " (List.map (Printf.sprintf "%S") experiments))
    (String.concat ", " rows) (String.concat ", " gates)

(* Runs compare.exe on two snapshot texts; returns (exit code, output). *)
let run old_text new_text =
  let write text =
    let file = Filename.temp_file "snapshot" ".json" in
    Out_channel.with_open_bin file (fun oc -> output_string oc text);
    file
  in
  let old_file = write old_text and new_file = write new_text in
  let out = Filename.temp_file "compare" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s %s > %s 2>&1" (Filename.quote !compare_exe)
         (Filename.quote old_file) (Filename.quote new_file) (Filename.quote out))
  in
  let output = In_channel.with_open_bin out In_channel.input_all in
  List.iter Sys.remove [ old_file; new_file; out ];
  (code, output)

let exits ?(old_text = snapshot ()) code new_text =
  let got, output = run old_text new_text in
  if got <> code then
    Alcotest.failf "expected exit %d, got %d; output:\n%s" code got output;
  output

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let gate_only ?fatal value op bound =
  snapshot ~gates:[ gate_json ?fatal "claim" value op bound ] ()

let test_ops () =
  List.iter
    (fun (op, right, wrong) ->
      ignore (exits 0 (gate_only right op "2"));
      ignore (exits 1 (gate_only wrong op "2")))
    [ ("<=", "2", "2.5"); (">=", "2", "1.5"); ("<", "1.5", "2"); ("=", "2", "2.5") ]

let test_not_fatal () =
  List.iter
    (fun (op, wrong) -> ignore (exits 0 (gate_only ~fatal:false wrong op "2")))
    [ ("<=", "3"); (">=", "1"); ("<", "2"); ("=", "1") ]

let test_words_rule () =
  let snap ?estimate ?(key = [ ("k", "1") ]) words =
    snapshot ~rows:[ row_json ?estimate "g" key [ ("minor_words", words) ] ] ()
  in
  let old_text = snap "100" in
  ignore (exits ~old_text 1 (snap "111"));  (* +11%, +11 words *)
  ignore (exits ~old_text 0 (snap "109"));  (* +9% *)
  ignore (exits ~old_text 0 (snap ~estimate:true "200"));
  (* a row the baseline lacks is not compared *)
  ignore
    (exits ~old_text 0
       (snapshot
          ~rows:
            [
              row_json "g" [ ("k", "1") ] [ ("minor_words", "100") ];
              row_json "g" [ ("k", "2") ] [ ("minor_words", "200") ];
            ]
          ()));
  let old_text = snap "10" in
  ignore (exits ~old_text 0 (snap "17"));  (* +70% but only +7 words *)
  ignore (exits ~old_text 1 (snap "19"))

let test_missing_gate () =
  let old_text = gate_only "1" "<=" "2" in
  let output = exits ~old_text 1 (snapshot ()) in
  Alcotest.(check bool) "names the gate" true (contains output "g/claim");
  (* the group did not run: its gates cannot be missing *)
  ignore (exits ~old_text 0 (snapshot ~experiments:[ "other" ] ()))

let test_missing_row () =
  let old_text =
    snapshot
      ~rows:
        [
          row_json "g" [ ("k", "1") ] [ ("minor_words", "100") ];
          row_json ~estimate:true "g" [ ("k", "2") ] [ ("minor_words", "100") ];
        ]
      ()
  in
  (* renamed: k=1 is gone, and its words guard with it *)
  let output =
    exits ~old_text 1
      (snapshot ~rows:[ row_json "g" [ ("k", "3") ] [ ("minor_words", "100") ] ] ())
  in
  Alcotest.(check bool) "names the row" true (contains output "g k=1");
  Alcotest.(check bool) "not the estimate row" false (contains output "g k=2");
  (* the group did not run: its rows cannot be missing *)
  ignore (exits ~old_text 0 (snapshot ~experiments:[ "other" ] ()));
  (* a row named apart from the group that emits it is checked by its group *)
  let old_text =
    snapshot ~rows:[ row_json ~group:"g" "g-residency" [] [ ("minor_words", "1") ] ] ()
  in
  let output = exits ~old_text 1 (snapshot ()) in
  Alcotest.(check bool) "names the renamed row" true (contains output "g-residency");
  ignore (exits ~old_text 0 (snapshot ~experiments:[ "g-residency" ] ()))

let test_malformed () =
  let names_row output =
    Alcotest.(check bool) "names the row" true (contains output "g/claim")
  in
  names_row (exits 2 (gate_only "1" "=<" "2"));
  names_row (exits 2 (gate_only "null" "<=" "2"));
  names_row (exits 2 (gate_only "1" "<=" "null"));
  let v1 = {|{"schema": "hope-bench/1", "experiments": [], "rows": []}|} in
  let output = exits ~old_text:v1 2 (snapshot ()) in
  Alcotest.(check bool) "says hope-bench/1" true (contains output "hope-bench/1");
  let no_group =
    snapshot ~rows:[ {|{"experiment": "g", "key": {}, "metrics": {}}|} ] ()
  in
  let output = exits ~old_text:no_group 2 (snapshot ()) in
  Alcotest.(check bool) "names the group field" true (contains output {|"group"|})

(* A snapshot whose row keys drifted (impl spelled undo-journal, skew
   renamed) while the depth-64 rollback ratio fell to 0.5x and hybrid ran
   2x slower than OCC. Before gate rows, compare found the claims by
   matching row keys, missed both, and exited 0. *)
let test_key_drift () =
  let old_text =
    snapshot ~experiments:[ "rollback"; "hybrid" ]
      ~rows:
        [
          row_json "rollback"
            [ ("depth", "64"); ("path", {|"rollback"|}); ("impl", {|"undo_journal"|}) ]
            [ ("minor_words_per_interval", "2"); ("alloc_ratio_vs_eager", "60") ];
          row_json "hybrid" [ ("clients", "8"); ("skew", "2.0") ]
            [ ("hybrid_ms", "837"); ("opt_ms", "1279") ];
        ]
      ~gates:
        [
          gate_json ~experiment:"rollback" "depth=64 rollback alloc_ratio_vs_eager" "60" ">=" "2";
          gate_json ~experiment:"hybrid" "clients=8 skew=2 hybrid_ms < opt_ms" "837" "<" "1279";
        ]
      ()
  in
  let new_text =
    snapshot ~experiments:[ "rollback"; "hybrid" ]
      ~rows:
        [
          row_json "rollback"
            [ ("depth", "64"); ("path", {|"rollback"|}); ("impl", {|"undo-journal"|}) ]
            [ ("minor_words_per_interval", "120"); ("alloc_ratio_vs_eager", "0.5") ];
          row_json "hybrid" [ ("clients", "8"); ("zipf", "2.0") ]
            [ ("hybrid_ms", "2558"); ("opt_ms", "1279") ];
        ]
      ~gates:
        [
          gate_json ~experiment:"rollback" "depth=64 rollback alloc_ratio_vs_eager" "0.5" ">=" "2";
          gate_json ~experiment:"hybrid" "clients=8 skew=2 hybrid_ms < opt_ms" "2558" "<" "1279";
        ]
      ()
  in
  ignore (exits ~old_text 1 new_text)

let () =
  compare_exe :=
    if Filename.is_relative Sys.argv.(1) then Filename.concat (Sys.getcwd ()) Sys.argv.(1)
    else Sys.argv.(1);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "compare"
    [
      ( "gates",
        [
          Alcotest.test_case "each op passes and fails on its side" `Quick test_ops;
          Alcotest.test_case "fatal=false never fails" `Quick test_not_fatal;
          Alcotest.test_case "missing gate is a regression" `Quick test_missing_gate;
          Alcotest.test_case "missing row is a regression" `Quick test_missing_row;
          Alcotest.test_case "malformed input exits 2" `Quick test_malformed;
          Alcotest.test_case "key drift cannot hide a failing claim" `Quick test_key_drift;
        ] );
      ("words", [ Alcotest.test_case "relative words rule" `Quick test_words_rule ]);
    ]
