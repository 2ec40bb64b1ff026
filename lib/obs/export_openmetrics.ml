type instrument =
  | Counter of { name : string; labels : (string * string) list; value : int }
  | Gauge of { name : string; labels : (string * string) list; value : float }
  | Summary of {
      name : string;
      labels : (string * string) list;
      count : int;
      sum : float;
      quantiles : (float * float) list;
    }

let sanitize s =
  String.map
    (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c
      | _ -> '_')
    s

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Canonical label order: keys sanitized and sorted, duplicates dropped. *)
let canon_labels labels =
  List.sort_uniq
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map (fun (k, v) -> (sanitize k, v)) labels)

(* Numeric label values (shard ids) order numerically, so shard="10"
   sorts after shard="9", not between "1" and "2". *)
let compare_label_value a b =
  match (int_of_string_opt a, int_of_string_opt b) with
  | Some x, Some y -> compare x y
  | _ -> String.compare a b

let compare_labels a b =
  List.compare
    (fun (ka, va) (kb, vb) ->
      match String.compare ka kb with
      | 0 -> compare_label_value va vb
      | c -> c)
    a b

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

(* Fixed-format value rendering: integral values print without a
   fraction, everything else through %.9g (the json_out convention). *)
let fmt_value v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* Virtual seconds -> integer virtual microseconds in the classic
   text format's millisecond timestamp slot. *)
let fmt_ts t = Printf.sprintf "%.0f" (t *. 1e6)

(* One entry per label set inside a family: the unlabeled aggregate and
   each shard="N" variant live under a single # HELP/# TYPE header. *)
type entry = {
  e_labels : (string * string) list;  (* canonical order *)
  mutable e_final : instrument option;
  mutable e_points : (float * float) list;  (* oldest first *)
}

type family = {
  fam_name : string;  (* sanitized, without any _total suffix *)
  source : string;  (* the original instrument/series name *)
  kind : [ `Counter | `Gauge | `Summary ];
  mutable entries : entry list;  (* newest first while collecting *)
}

let instrument_name = function
  | Counter { name; _ } | Gauge { name; _ } | Summary { name; _ } -> name

let instrument_labels = function
  | Counter { labels; _ } | Gauge { labels; _ } | Summary { labels; _ } ->
      labels

let entry_of fam labels =
  match
    List.find_opt (fun e -> compare_labels e.e_labels labels = 0) fam.entries
  with
  | Some e -> e
  | None ->
      let e = { e_labels = labels; e_final = None; e_points = [] } in
      fam.entries <- e :: fam.entries;
      e

let collect ~instruments ~series =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  let family source kind =
    let key = sanitize source in
    match Hashtbl.find_opt tbl key with
    | Some fam -> fam
    | None ->
        let fam = { fam_name = key; source; kind; entries = [] } in
        Hashtbl.replace tbl key fam;
        order := key :: !order;
        fam
  in
  List.iter
    (fun inst ->
      let kind =
        match inst with
        | Counter _ -> `Counter
        | Gauge _ -> `Gauge
        | Summary _ -> `Summary
      in
      let fam = family (instrument_name inst) kind in
      let e = entry_of fam (canon_labels (instrument_labels inst)) in
      e.e_final <- Some inst)
    instruments;
  (match series with
  | None -> ()
  | Some ts ->
      List.iter
        (fun (nm, s) ->
          let labels = canon_labels (Timeseries.labels s) in
          let points = Timeseries.to_list s in
          let key = sanitize nm in
          match Hashtbl.find_opt tbl key with
          | Some { kind = `Summary; _ } -> ()  (* summaries are not sampled *)
          | Some fam -> (entry_of fam labels).e_points <- points
          | None ->
              let fam = family nm `Gauge in
              (entry_of fam labels).e_points <- points)
        (Timeseries.all ts));
  let fams =
    List.sort
      (fun a b -> String.compare a.fam_name b.fam_name)
      (List.rev_map (Hashtbl.find tbl) !order)
  in
  List.iter
    (fun fam ->
      fam.entries <-
        List.sort (fun a b -> compare_labels a.e_labels b.e_labels) fam.entries)
    fams;
  fams

let emit_family b fam =
  let sample_name =
    match fam.kind with
    | `Counter -> fam.fam_name ^ "_total"
    | `Gauge | `Summary -> fam.fam_name
  in
  let kind_name =
    match fam.kind with
    | `Counter -> "counter"
    | `Gauge -> "gauge"
    | `Summary -> "summary"
  in
  Printf.bprintf b "# HELP %s HOPE simulation metric %s.\n" sample_name
    fam.source;
  Printf.bprintf b "# TYPE %s %s\n" sample_name kind_name;
  List.iter
    (fun e ->
      let ls = render_labels e.e_labels in
      match e with
      | { e_final = Some (Summary { count; sum; quantiles; _ }); _ } ->
          if count > 0 then
            List.iter
              (fun (q, v) ->
                let qls =
                  render_labels
                    (e.e_labels @ [ ("quantile", fmt_value q) ])
                in
                Printf.bprintf b "%s%s %s\n" sample_name qls (fmt_value v))
              quantiles;
          Printf.bprintf b "%s_sum%s %s\n" sample_name ls (fmt_value sum);
          Printf.bprintf b "%s_count%s %d\n" sample_name ls count
      | { e_points = (_ :: _) as points; _ } ->
          List.iter
            (fun (time, v) ->
              Printf.bprintf b "%s%s %s %s\n" sample_name ls (fmt_value v)
                (fmt_ts time))
            points
      | { e_final = Some (Counter { value; _ }); _ } ->
          Printf.bprintf b "%s%s %d\n" sample_name ls value
      | { e_final = Some (Gauge { value; _ }); _ } ->
          Printf.bprintf b "%s%s %s\n" sample_name ls (fmt_value value)
      | { e_final = None; e_points = []; _ } -> ())
    fam.entries

let to_string ?(instruments = []) ?series () =
  let b = Buffer.create 8192 in
  List.iter (emit_family b) (collect ~instruments ~series);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
