(* Compare a new hope-bench/2 snapshot (bench/main.exe --json) against the
   committed baseline and flag regressions:

     dune exec bench/compare.exe -- bench/snapshots/baseline.json NEW.json

   Two rules, neither of which knows any bench group by name:

   - gates: every gate row in the new snapshot is evaluated as
     [value op bound]; a failing fatal gate is a regression. A gate that
     the baseline has, for a group the new snapshot ran (its
     "experiments" list), but that the new snapshot lacks is a
     regression too — a renamed or dropped claim fails loudly.
   - words: rows are matched on experiment plus their explicit "key"
     object. On each matched row not marked "estimate", an exact
     minor-words metric (named minor_words... or overhead_mw...) that
     grows by more than 10% and by more than 8 words is a regression.
     Estimate rows (a statistical fit, a multi-domain run) are skipped;
     their claims belong in gate rows.

   Exit status: 0 clean, 1 regression(s), 2 usage or malformed input
   (including an unknown gate op, a non-finite gate side, or a
   hope-bench/1 file). *)

let rel_gate = 0.10
let abs_gate_words = 8.0

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

type row = {
  key : string;  (* experiment + key fields, rendered stably *)
  estimate : bool;
  metrics : (string * float) list;
}

type snapshot = {
  experiments : string list;
  rows : row list;
  gates : Gate.t list;
}

let row_of_json file = function
  | Json_out.Obj kvs ->
    let obj k =
      match List.assoc_opt k kvs with
      | Some (Json_out.Obj o) -> o
      | _ -> die "%s: row without a %S object" file k
    in
    let experiment =
      match List.assoc_opt "experiment" kvs with
      | Some (Json_out.Str s) -> s
      | _ -> die "%s: row without an \"experiment\" field" file
    in
    let key =
      List.sort compare (obj "key")
      |> List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (String.trim (Json_out.to_string v)))
      |> String.concat ""
    in
    {
      key = experiment ^ key;
      estimate = List.assoc_opt "estimate" kvs = Some (Json_out.Bool true);
      metrics =
        List.filter_map
          (function
            | k, Json_out.Int i -> Some (k, float_of_int i)
            | k, Json_out.Float f -> Some (k, f)
            | _ -> None)
          (obj "metrics");
    }
  | _ -> die "%s: non-object row in \"rows\"" file

let load file =
  let kvs =
    match Json_out.read_file file with
    | Ok (Json_out.Obj kvs) -> kvs
    | Ok _ -> die "%s: top level is not an object" file
    | Error msg -> die "%s: parse error: %s" file msg
    | exception Sys_error msg -> die "%s" msg
  in
  (match List.assoc_opt "schema" kvs with
  | Some (Json_out.Str "hope-bench/2") -> ()
  | Some (Json_out.Str "hope-bench/1") ->
    die
      "%s: hope-bench/1 snapshot: it has no gate rows and no explicit row \
       keys; regenerate it with bench/main.exe --json (hope-bench/2)"
      file
  | Some (Json_out.Str other) ->
    die "%s: unsupported schema %S (want hope-bench/2)" file other
  | _ -> die "%s: missing \"schema\" field" file);
  let list k =
    match List.assoc_opt k kvs with
    | Some (Json_out.List l) -> l
    | _ -> die "%s: missing %S list" file k
  in
  {
    experiments =
      List.map
        (function Json_out.Str s -> s | _ -> die "%s: bad experiment" file)
        (list "experiments");
    rows = List.map (row_of_json file) (list "rows");
    gates =
      List.map
        (fun g ->
          match Gate.of_json g with
          | Ok g -> g
          | Error msg -> die "%s: %s" file msg)
        (list "gates");
  }

let is_words_metric name =
  String.starts_with ~prefix:"minor_words" name
  || String.starts_with ~prefix:"overhead_mw" name

(* Returns the number of regressions, printing one line for each. *)
let evaluate ~old_s ~new_s =
  let regressions = ref 0 in
  let regress fmt =
    incr regressions;
    Printf.printf ("REGRESSION " ^^ fmt ^^ "\n")
  in
  let old_rows = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace old_rows r.key r) old_s.rows;
  List.iter
    (fun nr ->
      match Hashtbl.find_opt old_rows nr.key with
      | Some orow when not nr.estimate ->
        List.iter
          (fun (metric, nv) ->
            match List.assoc_opt metric orow.metrics with
            | Some ov when is_words_metric metric ->
              let delta = nv -. ov in
              let rel = delta /. Float.max (Float.abs ov) 1e-9 in
              if rel > rel_gate && delta > abs_gate_words then
                regress "%s: %s %.1f -> %.1f (+%.0f%%, +%.1f words)" nr.key
                  metric ov nv (100. *. rel) delta
            | Some _ | None -> ())
          nr.metrics
      | Some _ | None -> ())
    new_s.rows;
  List.iter
    (fun (g : Gate.t) ->
      if g.fatal && not (Gate.holds g) then regress "gate %s" (Gate.to_string g)
      else Printf.printf "gate %s: %s\n" (Gate.verdict g) (Gate.to_string g))
    new_s.gates;
  List.iter
    (fun (g : Gate.t) ->
      let same (n : Gate.t) = n.experiment = g.experiment && n.gate = g.gate in
      if List.mem g.experiment new_s.experiments && not (List.exists same new_s.gates)
      then regress "gate %s/%s is in the baseline but missing" g.experiment g.gate)
    old_s.gates;
  !regressions

let () =
  let old_file, new_file =
    match Sys.argv with
    | [| _; o; n |] -> (o, n)
    | _ -> die "usage: compare BASELINE.json NEW.json"
  in
  let old_s = load old_file and new_s = load new_file in
  let regressions = evaluate ~old_s ~new_s in
  Printf.printf "%d rows and %d gates in %s against %s: %d regression(s)\n"
    (List.length new_s.rows) (List.length new_s.gates) new_file old_file
    regressions;
  if regressions > 0 then exit 1
