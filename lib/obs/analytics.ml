open Hope_types

type critical_path = {
  path : Interval_id.t list;
  path_depth : int;
  path_duration : float;
  explicit_opens : int;
  implicit_opens : int;
}

type shard_stats = {
  shard_commits : int;
  shard_stragglers : int;
  shard_cascade_rollbacks : int;
  shard_wasted_events : int;
  shard_gvt : float;
  shard_gvt_rounds : int;
  shard_compactions : int;
  shard_attribution : ((int * int * float) * int) list;
}

type t = {
  end_time : float;
  events : int;
  intervals_opened : int;
  finalized : int;
  rolled_back : int;
  still_open : int;
  committed_time : float;
  wasted_time : float;
  wasted_ratio : float;
  cascades : int;
  max_cascade : int;
  cascade_hist : (int * int) list;
  max_depth : int;
  aid_churn : (Aid.t * int) list;
  critical_path : critical_path option;
  shard : shard_stats option;
}

(* The deepest open chain: from the deepest span (earliest such by open
   order, for determinism), walk parent links back to the outermost
   ancestor. Its duration spans the root's open to the leaf's close —
   the window one speculative decision kept in flight. *)
let critical_path_of ~end_time spans =
  match spans with
  | [] -> None
  | _ ->
    let by_iid = Hashtbl.create 64 in
    List.iter (fun (s : Span.t) -> Hashtbl.replace by_iid s.Span.iid s) spans;
    let leaf =
      List.fold_left
        (fun best (s : Span.t) ->
          match best with
          | None -> Some s
          | Some b -> if s.Span.depth > b.Span.depth then Some s else best)
        None spans
    in
    Option.map
      (fun (leaf : Span.t) ->
        let rec walk acc (s : Span.t) =
          match s.Span.parent with
          | None -> s :: acc
          | Some p -> (
            match Hashtbl.find_opt by_iid p with
            | None -> s :: acc
            | Some parent -> walk (s :: acc) parent)
        in
        let chain = walk [] leaf in
        let root = List.hd chain in
        let leaf_close =
          match leaf.Span.closed_at with Some c -> c | None -> end_time
        in
        let count k =
          List.length (List.filter (fun (s : Span.t) -> s.Span.kind = k) chain)
        in
        {
          path = List.map (fun (s : Span.t) -> s.Span.iid) chain;
          path_depth = List.length chain;
          path_duration = Float.max 0.0 (leaf_close -. root.Span.opened_at);
          explicit_opens = count Event.Explicit;
          implicit_opens = count Event.Implicit;
        })
      leaf

(* One pass over the stream. The monitor owns every aggregate it also
   keeps online (interval fates, committed/wasted virtual time, cascade
   count and size, shard commits and wasted events); this pass adds only
   what needs the whole stream. The attribution table sums each
   [Shard_straggler]'s [rolled] under its root key, so its total equals
   the monitor's wasted-event count by construction. *)
let analyse events =
  let m = Monitor.create () in
  let n = ref 0 and end_time = ref 0.0 in
  let cascade_sizes = Hashtbl.create 8 in
  let churn = ref Aid.Map.empty in
  let stragglers = ref 0 and secondaries = ref 0 in
  let gvt_rounds = ref 0 and compactions = ref 0 in
  let attr = Hashtbl.create 32 in
  let bump tbl k by =
    Hashtbl.replace tbl k (by + Option.value (Hashtbl.find_opt tbl k) ~default:0)
  in
  List.iter
    (fun (e : Event.t) ->
      incr n;
      end_time := Float.max !end_time e.Event.time;
      Monitor.observe m ~time:e.Event.time ~proc:e.Event.proc e.Event.payload;
      match e.Event.payload with
      | Event.Rollback_cascade { rolled; _ } ->
        bump cascade_sizes (List.length rolled) 1
      | Event.Aid_transition { aid; _ } ->
        churn :=
          Aid.Map.update aid (fun prev -> Some (Option.value prev ~default:0 + 1)) !churn
      | Event.Shard_straggler { root_shard; root_mid; root_send_ts; rolled; secondary; _ }
        ->
        if secondary then incr secondaries else incr stragglers;
        bump attr (root_shard, root_mid, root_send_ts) rolled
      | Event.Gvt_advance _ -> incr gvt_rounds
      (* compactions also occur on the sequential engine; count them but
         don't let them alone claim the run was sharded *)
      | Event.Mailbox_compact _ -> incr compactions
      | _ -> ())
    events;
  let end_time = !end_time in
  let spans = Span.of_events events in
  let open_time, max_depth =
    List.fold_left
      (fun (ot, d) (s : Span.t) ->
        ( (match s.Span.close with
          | Span.Still_open -> ot +. Span.duration ~end_time s
          | Span.Finalized | Span.Rolled_back _ -> ot),
          max d s.Span.depth ))
      (0.0, 0) spans
  in
  let committed_time = Monitor.committed_vtime m
  and wasted_time = Monitor.wasted_vtime m in
  let total_span_time = committed_time +. wasted_time +. open_time in
  let sorted cmp tbl = List.sort cmp (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let shard =
    if Monitor.shard_commits m + !stragglers + !secondaries + !gvt_rounds = 0 then None
    else
      Some
        {
          shard_commits = Monitor.shard_commits m;
          shard_stragglers = !stragglers;
          shard_cascade_rollbacks = !secondaries;
          shard_wasted_events = Monitor.shard_wasted_events m;
          shard_gvt = (if !gvt_rounds = 0 then nan else Monitor.gvt m);
          shard_gvt_rounds = !gvt_rounds;
          shard_compactions = !compactions;
          shard_attribution =
            sorted
              (fun (((s1 : int), (m1 : int), _), _) ((s2, m2, _), _) ->
                let c = compare s1 s2 in
                if c <> 0 then c else compare m1 m2)
              attr;
        }
  in
  {
    end_time;
    events = !n;
    intervals_opened = Monitor.intervals_opened m;
    finalized = Monitor.intervals_finalized m;
    rolled_back = Monitor.intervals_rolled_back m;
    still_open = Monitor.open_intervals m;
    committed_time;
    wasted_time;
    wasted_ratio =
      (if total_span_time <= 0.0 then 0.0 else wasted_time /. total_span_time);
    cascades = Monitor.cascades m;
    max_cascade = Monitor.max_cascade m;
    cascade_hist = sorted (fun (a, _) (b, _) -> Int.compare a b) cascade_sizes;
    max_depth;
    aid_churn = Aid.Map.bindings !churn;
    critical_path = critical_path_of ~end_time spans;
    shard;
  }

let of_recorder rec_ = analyse (Recorder.events rec_)

let pp ppf t =
  Format.fprintf ppf "events            %d@." t.events;
  Format.fprintf ppf "end time          %.6f s@." t.end_time;
  Format.fprintf ppf "intervals         %d opened / %d finalized / %d rolled back / %d open@."
    t.intervals_opened t.finalized t.rolled_back t.still_open;
  Format.fprintf ppf "committed time    %.6f s@." t.committed_time;
  Format.fprintf ppf "wasted time       %.6f s (%.1f%% of speculative time)@."
    t.wasted_time (100.0 *. t.wasted_ratio);
  Format.fprintf ppf "cascades          %d (max depth %d)@." t.cascades t.max_cascade;
  List.iter
    (fun (size, n) -> Format.fprintf ppf "  cascade size %-3d x%d@." size n)
    t.cascade_hist;
  Format.fprintf ppf "max nesting       %d@." t.max_depth;
  (match t.critical_path with
  | None -> ()
  | Some cp ->
    Format.fprintf ppf
      "critical path     %d spans (%d explicit, %d implicit) over %.6f s: %a@."
      cp.path_depth cp.explicit_opens cp.implicit_opens cp.path_duration
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " > ")
         Interval_id.pp)
      cp.path);
  let churners =
    List.filter (fun (_, n) -> n > 1) t.aid_churn
  in
  Format.fprintf ppf "aids              %d tracked, %d with churn > 1@."
    (List.length t.aid_churn) (List.length churners);
  match t.shard with
  | None -> ()
  | Some s ->
    Format.fprintf ppf "shard commits     %d@." s.shard_commits;
    Format.fprintf ppf "shard stragglers  %d primary / %d cascade@."
      s.shard_stragglers s.shard_cascade_rollbacks;
    Format.fprintf ppf "shard wasted      %d events rolled back@."
      s.shard_wasted_events;
    if not (Float.is_nan s.shard_gvt) then
      Format.fprintf ppf "gvt               %.6f s over %d rounds@." s.shard_gvt
        s.shard_gvt_rounds;
    if s.shard_compactions > 0 then
      Format.fprintf ppf "compactions       %d@." s.shard_compactions;
    List.iter
      (fun ((sh, mid, ts), n) ->
        Format.fprintf ppf "  root sh%d#%d@@%.6f wasted %d@." sh mid ts n)
      s.shard_attribution
