(* The metric catalogue: every metric the suite reports, with its unit,
   direction, layer, the end-to-end metrics a layer metric should move,
   and the workloads it applies to (elsewhere it is n/a).

   Regression bounds of the gated end-to-end metrics live in
   BENCHMARK.json, not here; [hope_bench agree] reads them from there. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  layer : string;  (** "" for end-to-end metrics *)
  moves : string list;  (** end-to-end metrics this layer metric should move *)
  applies : string list;  (** workloads where the metric is defined *)
}

let callstream = "callstream-wan"
let phold_hope = "phold-hope"
let occ = "occ-hybrid-skew"
let parallel = "phold-parallel"
let workloads = [ callstream; phold_hope; occ; parallel ]
let hope_workloads = [ callstream; phold_hope; occ ]
let default_seed = 42
let default_reps = 9

let better_name = function Lower -> "lower" | Higher -> "higher"

let e2e ?(applies = workloads) name unit_ better =
  { name; unit_; better; layer = ""; moves = []; applies }

let end_to_end =
  [
    e2e "committed_per_s" "1/s" Higher;
    e2e "minor_words_per_commit" "words" Lower;
    e2e "peak_heap_mb" "MB" Lower;
    e2e "makespan_vs" "vs" Lower;
    e2e "speedup_vs_pessimistic" "x" Higher ~applies:[ callstream; occ ];
    e2e "setup_s" "s" Lower;
    e2e "error_rate" "ratio" Lower;
  ]

(* The end-to-end metrics a single [--workload] run reports under
   [--trace 0]: those defined on every workload and never zero. The
   other two stay in the suite's own result files: speedup is n/a on
   both PHOLD workloads, and error_rate is 0 on a healthy run (it is
   [failed / attempted] of the result line). *)
let gated =
  [
    "committed_per_s";
    "minor_words_per_commit";
    "peak_heap_mb";
    "makespan_vs";
    "setup_s";
  ]

(* Bounds for the two metrics BENCHMARK.json does not carry, as shares
   of the first file's median: speedup is deterministic per seed, and
   any change in error_rate is a disagreement. *)
let local_bounds = [ ("speedup_vs_pessimistic", 0.005); ("error_rate", 0.0) ]

(* [agree] lets set-up time move by at least this many seconds, whatever
   its bound: set-ups of a few milliseconds move by more than their
   bound's share between two runs of the same code. *)
let setup_floor_s = 0.02

let layer ~moves ~applies lname metrics =
  List.map
    (fun (name, unit_, better) ->
      { name = lname ^ "." ^ name; unit_; better; layer = lname; moves; applies })
    metrics

(* Probe metrics time a layer's public calls in isolation. They are
   measured on every workload — shaped by the workload's own counts where
   the layer is loaded, by a fixed default shape where it is bypassed. *)
let probe lname ~moves metrics = layer ~moves ~applies:workloads lname metrics

let per_layer =
  List.concat
    [
      layer "sim" ~moves:[ "committed_per_s" ] ~applies:workloads
        [ ("events_per_commit", "count", Lower) ];
      layer "sim" ~moves:[ "committed_per_s" ] ~applies:hope_workloads
        [ ("pool_peak", "count", Lower) ];
      probe "sim" ~moves:[ "committed_per_s" ]
        [ ("probe_ns_per_event", "ns", Lower); ("probe_mw_per_event", "words", Lower) ];
      layer "net"
        ~moves:[ "committed_per_s"; "minor_words_per_commit" ]
        ~applies:hope_workloads
        [ ("sends_per_commit", "count", Lower); ("coalesced_ratio", "ratio", Higher) ];
      probe "net"
        ~moves:[ "committed_per_s"; "minor_words_per_commit" ]
        [
          ("probe_ns_per_message", "ns", Lower);
          ("probe_mw_per_message", "words", Lower);
        ];
      layer "proc" ~moves:[ "committed_per_s"; "peak_heap_mb" ] ~applies:hope_workloads
        [
          ("consumes_per_commit", "count", Lower);
          ("parks_per_commit", "count", Lower);
          ("rollbacks_per_commit", "count", Lower);
          ("rollback_depth_mean", "count", Lower);
          ("cancels_per_commit", "count", Lower);
          ("compactions_per_commit", "count", Lower);
          ("reclaimed_per_commit", "count", Higher);
        ];
      probe "proc" ~moves:[ "committed_per_s"; "peak_heap_mb" ]
        [
          ("probe_rollback_ns_per_interval", "ns", Lower);
          ("probe_release_ns_per_interval", "ns", Lower);
        ];
      layer "control" ~moves:[ "committed_per_s"; "makespan_vs" ]
        ~applies:hope_workloads
        [
          ("intervals_per_commit", "count", Lower);
          ("finalize_ratio", "ratio", Higher);
          ("spec_depth_mean", "count", Lower);
          ("spec_depth_max", "count", Lower);
          ("ido_size_mean", "count", Lower);
          ("replace_msgs_per_commit", "count", Lower);
          ("cycle_cuts_per_commit", "count", Lower);
          ("wasted_vtime_ratio", "ratio", Lower);
          ("max_cascade", "count", Lower);
        ];
      probe "control" ~moves:[ "committed_per_s"; "makespan_vs" ]
        [ ("probe_push_ns", "ns", Lower) ];
      layer "types" ~moves:[ "minor_words_per_commit" ] ~applies:hope_workloads
        [ ("union_memo_hit_ratio", "ratio", Higher) ];
      layer "aid" ~moves:[ "committed_per_s"; "makespan_vs" ] ~applies:hope_workloads
        [
          ("aids_per_commit", "count", Lower);
          ("guess_msgs_per_commit", "count", Lower);
          ("affirm_msgs_per_commit", "count", Lower);
          ("deny_msgs_per_commit", "count", Lower);
          ("rollback_msgs_per_commit", "count", Lower);
          ("acquire_msgs_per_commit", "count", Lower);
          ("acquire_waits_per_commit", "count", Lower);
          ("grant_ratio", "ratio", Higher);
        ];
      probe "aid" ~moves:[ "committed_per_s"; "makespan_vs" ]
        [ ("probe_ns_per_msg", "ns", Lower) ];
      layer "gov" ~moves:[ "makespan_vs"; "speedup_vs_pessimistic" ] ~applies:[ occ ]
        [
          ("guesses_gated_per_commit", "count", Lower);
          ("send_stalls_per_commit", "count", Lower);
          ("escalations", "count", Lower);
          ("forced_cuts", "count", Lower);
        ];
      probe "gov" ~moves:[ "makespan_vs"; "speedup_vs_pessimistic" ]
        [ ("probe_ns_per_bump", "ns", Lower) ];
      layer "obs" ~moves:[ "committed_per_s" ] ~applies:workloads
        [ ("emits_per_commit", "count", Lower); ("store_overhead_pct", "%", Lower) ];
      probe "obs" ~moves:[ "committed_per_s" ] [ ("probe_ns_per_emit", "ns", Lower) ];
      layer "shard" ~moves:[ "committed_per_s" ] ~applies:[ parallel ]
        [
          ("commit_ratio", "ratio", Higher);
          ("rollbacks_per_1k_commits", "count", Lower);
          ("anti_messages_per_1k_commits", "count", Lower);
          ("annihilations_per_1k_commits", "count", Lower);
          ("remote_sends_per_commit", "count", Lower);
          ("full_spins", "count", Lower);
          ("gvt_rounds", "count", Lower);
          ("max_rollback_depth", "count", Lower);
          ("model_time_share", "ratio", Higher);
          ("executor_ns_per_commit", "ns", Lower);
        ];
      probe "shard" ~moves:[ "committed_per_s" ] [ ("probe_ring_ns_per_msg", "ns", Lower) ];
    ]

let find_e2e name = List.find (fun m -> m.name = name) end_to_end
let applies m workload = List.mem workload m.applies

(* Heavy and bypass workloads per layer, for the catalogue in result
   files and the README. *)
let layer_roles =
  [
    ("sim", "heavy: phold-hope, callstream-wan");
    ("net", "heavy: callstream-wan; bypass: phold-parallel");
    ("proc", "rollback: callstream-wan; finalize: phold-hope; bypass: phold-parallel");
    ("control", "heavy: phold-hope; light: occ-hybrid-skew");
    ("types", "heavy: callstream-wan");
    ("aid", "optimistic: callstream-wan; pessimistic overlay: occ-hybrid-skew");
    ("gov", "heavy: occ-hybrid-skew; bypass: all others");
    ("obs", "all");
    ("shard", "heavy: phold-parallel; bypass: all others");
  ]

let metric_json m =
  Json.Assoc
    ([
       ("name", Json.String m.name);
       ("unit", Json.String m.unit_);
       ("better", Json.String (better_name m.better));
     ]
    @ (if m.layer = "" then []
       else
         [
           ("layer", Json.String m.layer);
           ("moves", Json.List (List.map (fun s -> Json.String s) m.moves));
         ])
    @ [
        ( "na",
          Json.List
            (List.filter_map
               (fun w -> if List.mem w m.applies then None else Some (Json.String w))
               workloads) );
      ])

let catalogue_json () =
  Json.Assoc
    [
      ("end_to_end", Json.List (List.map metric_json end_to_end));
      ("per_layer", Json.List (List.map metric_json per_layer));
      ( "layer_roles",
        Json.Assoc (List.map (fun (l, r) -> (l, Json.String r)) layer_roles) );
    ]
