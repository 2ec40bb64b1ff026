open Hope_types

type config = {
  bounce_flips : int;
  replace_churn : int;
  cascade_limit : int;
  window_limit : int;
  stall_after : float;
  gvt_stall_events : int;
  imbalance_ratio : float;
  imbalance_epochs : int;
  backpressure_spins : int;
  annihilation_limit : int;
}

let default_config =
  {
    bounce_flips = 12;
    replace_churn = 512;
    cascade_limit = 64;
    window_limit = 256;
    stall_after = 30.0;
    gvt_stall_events = 4096;
    imbalance_ratio = 4.0;
    imbalance_epochs = 3;
    backpressure_spins = 4096;
    annihilation_limit = 512;
  }

type diagnostic =
  | Bounce_livelock of { aid : Aid.t; flips : int; at : float }
  | Cascade_runaway of { target : Interval_id.t; size : int; at : float }
  | Window_growth of { proc : Proc_id.t; live : int; at : float }
  | Stalled_interval of { iid : Interval_id.t; open_for : float; at : float }
  | Gvt_stall of { shard : int; events : int; gvt : float; at : float }
  | Shard_imbalance of {
      fast : int;
      slow : int;
      ratio : float;
      epochs : int;
      at : float;
    }
  | Mailbox_backpressure of { shard : int; spins : int; at : float }
  | Annihilation_storm of { shard : int; annihilations : int; at : float }

let pp_diagnostic ppf = function
  | Bounce_livelock { aid; flips; at } ->
      Format.fprintf ppf "bounce-livelock: %a flipped state %d times (t=%.6f)"
        Aid.pp aid flips at
  | Cascade_runaway { target; size; at } ->
      Format.fprintf ppf
        "cascade-runaway: cascade at %a rolled %d intervals (t=%.6f)"
        Interval_id.pp target size at
  | Window_growth { proc; live; at } ->
      Format.fprintf ppf
        "window-growth: %a holds %d live intervals (t=%.6f)" Proc_id.pp proc
        live at
  | Stalled_interval { iid; open_for; at } ->
      Format.fprintf ppf
        "stalled-interval: %a open for %.6f virtual seconds (t=%.6f)"
        Interval_id.pp iid open_for at
  | Gvt_stall { shard; events; gvt; at } ->
      Format.fprintf ppf
        "gvt-stall: shard %d processed %d events while GVT sat at %.6f \
         (t=%.6f)"
        shard events gvt at
  | Shard_imbalance { fast; slow; ratio; epochs; at } ->
      Format.fprintf ppf
        "shard-imbalance: shard %d ran %.1fx ahead of shard %d for %d GVT \
         epochs (t=%.6f)"
        fast ratio slow epochs at
  | Mailbox_backpressure { shard; spins; at } ->
      Format.fprintf ppf
        "mailbox-backpressure: shard %d spun %d times on full outbound rings \
         (t=%.6f)"
        shard spins at
  | Annihilation_storm { shard; annihilations; at } ->
      Format.fprintf ppf
        "annihilation-storm: shard %d annihilated %d anti-message pairs in \
         one epoch window (t=%.6f)"
        shard annihilations at

type open_iv = { opened_at : float; owner : int  (** proc as int *) }

type shard_sample = {
  sh_shard : int;
  sh_gvt : float;
  sh_lvt : float;
  sh_events : int;
  sh_stragglers : int;
  sh_rolled : int;
  sh_rollback_depth : int;
  sh_annihilations : int;
  sh_full_spins : int;
  sh_mailbox_occ : int;
  sh_mailbox_peak : int;
}

type t = {
  config : config;
  mutable now : float;
  (* AIDs *)
  mutable aids_created : int;
  mutable definite_aids : int;
  flips : (int, int ref) Hashtbl.t;  (* Aid.index -> transition count *)
  replaces : (int, int ref) Hashtbl.t;  (* Aid.index -> Replace count *)
  bounced : (int, unit) Hashtbl.t;
  (* intervals *)
  opens : (Interval_id.t, open_iv) Hashtbl.t;
  per_proc : (int, int ref) Hashtbl.t;  (* proc -> live interval count *)
  mutable opened : int;
  mutable finalized : int;
  mutable rolled : int;
  mutable peak_open : int;
  (* cascades *)
  mutable cascades : int;
  mutable max_cascade : int;
  mutable cycle_cuts : int;
  (* virtual-time accounting *)
  mutable committed_vtime : float;
  mutable wasted_vtime : float;
  (* shards (fed by [observe] on merged commit streams and by
     [observe_shards] on per-shard GVT-epoch samples) *)
  mutable shard_commits : int;
  mutable stragglers_ev : int;  (* Shard_straggler events seen *)
  mutable wasted_ev : int;  (* sum of their [rolled] *)
  mutable gvt : float;
  mutable gvt_lag : float;  (* max epoch lag, epochs of >= 2 shards *)
  shard_last : (int, shard_sample) Hashtbl.t;  (* per-shard last sample *)
  shard_final : (int, shard_sample) Hashtbl.t;  (* per-shard newest sample *)
  mutable imb_streak : int;
  mutable imb_flagged : bool;
  flagged_gvt_stall : (int, unit) Hashtbl.t;
  flagged_backpressure : (int, unit) Hashtbl.t;
  flagged_annihilation : (int, unit) Hashtbl.t;
  (* diagnostics *)
  mutable diags : diagnostic list;  (* newest first *)
  mutable n_diags : int;
  flagged_procs : (int, unit) Hashtbl.t;
  flagged_stalls : (Interval_id.t, unit) Hashtbl.t;
}

let create ?(config = default_config) () =
  {
    config;
    now = 0.0;
    aids_created = 0;
    definite_aids = 0;
    flips = Hashtbl.create 64;
    replaces = Hashtbl.create 64;
    bounced = Hashtbl.create 8;
    opens = Hashtbl.create 64;
    per_proc = Hashtbl.create 16;
    opened = 0;
    finalized = 0;
    rolled = 0;
    peak_open = 0;
    cascades = 0;
    max_cascade = 0;
    cycle_cuts = 0;
    committed_vtime = 0.0;
    wasted_vtime = 0.0;
    shard_commits = 0;
    stragglers_ev = 0;
    wasted_ev = 0;
    gvt = 0.0;
    gvt_lag = 0.0;
    shard_last = Hashtbl.create 8;
    shard_final = Hashtbl.create 8;
    imb_streak = 0;
    imb_flagged = false;
    flagged_gvt_stall = Hashtbl.create 8;
    flagged_backpressure = Hashtbl.create 8;
    flagged_annihilation = Hashtbl.create 8;
    diags = [];
    n_diags = 0;
    flagged_procs = Hashtbl.create 8;
    flagged_stalls = Hashtbl.create 8;
  }

let diag t d =
  t.diags <- d :: t.diags;
  t.n_diags <- t.n_diags + 1

(* [Hashtbl.find] rather than [find_opt]: this runs per observed event
   and the option would be garbage on every hit. *)
let counter_ref tbl key =
  try Hashtbl.find tbl key
  with Not_found ->
    let r = ref 0 in
    Hashtbl.add tbl key r;
    r

let is_definite = function Event.True_ | Event.False_ -> true | _ -> false

let on_transition t ~time aid ~from_ ~to_ =
  if is_definite to_ && not (is_definite from_) then
    t.definite_aids <- t.definite_aids + 1
  else if is_definite from_ && not (is_definite to_) then
    t.definite_aids <- t.definite_aids - 1;
  let idx = Aid.index aid in
  let r = counter_ref t.flips idx in
  incr r;
  if !r >= t.config.bounce_flips && not (Hashtbl.mem t.bounced idx) then begin
    Hashtbl.add t.bounced idx ();
    diag t (Bounce_livelock { aid; flips = !r; at = time })
  end

(* An Algorithm-1 bounce never flips AID state — the cycle ping-pongs
   Replace messages while every AID stays speculative — so the livelock
   also shows as Replace-resolution churn concentrated on one AID. This
   path only fires when the tap opted into the dep class ([attach
   ~dep:true]); the threshold sits far above healthy fan-in re-sends. *)
let on_replace t ~time aid =
  let idx = Aid.index aid in
  let r = counter_ref t.replaces idx in
  incr r;
  if !r >= t.config.replace_churn && not (Hashtbl.mem t.bounced idx) then begin
    Hashtbl.add t.bounced idx ();
    diag t (Bounce_livelock { aid; flips = !r; at = time })
  end

let on_open t ~time ~proc iid =
  let owner = Proc_id.to_int proc in
  Hashtbl.replace t.opens iid { opened_at = time; owner };
  t.opened <- t.opened + 1;
  let live = Hashtbl.length t.opens in
  if live > t.peak_open then t.peak_open <- live;
  let r = counter_ref t.per_proc owner in
  incr r;
  if !r >= t.config.window_limit && not (Hashtbl.mem t.flagged_procs owner)
  then begin
    Hashtbl.add t.flagged_procs owner ();
    diag t (Window_growth { proc; live = !r; at = time })
  end

let close t iid =
  match Hashtbl.find_opt t.opens iid with
  | None -> None
  | Some iv ->
      Hashtbl.remove t.opens iid;
      (match Hashtbl.find_opt t.per_proc iv.owner with
      | Some r -> decr r
      | None -> ());
      Some iv

let on_finalize t ~time iid =
  match close t iid with
  | None -> ()
  | Some iv ->
      t.finalized <- t.finalized + 1;
      t.committed_vtime <- t.committed_vtime +. (time -. iv.opened_at)

let on_cascade t ~time target rolled =
  t.cascades <- t.cascades + 1;
  let size = List.length rolled in
  if size > t.max_cascade then t.max_cascade <- size;
  List.iter
    (fun iid ->
      match close t iid with
      | None -> ()
      | Some iv ->
          t.rolled <- t.rolled + 1;
          t.wasted_vtime <- t.wasted_vtime +. (time -. iv.opened_at))
    rolled;
  if size >= t.config.cascade_limit then
    diag t (Cascade_runaway { target; size; at = time })

let observe t ~time ~proc payload =
  t.now <- time;
  match payload with
  | Event.Aid_create _ -> t.aids_created <- t.aids_created + 1
  | Event.Aid_transition { aid; from_; to_ } ->
      on_transition t ~time aid ~from_ ~to_
  | Event.Interval_open { iid; _ } -> on_open t ~time ~proc iid
  | Event.Interval_finalize { iid } -> on_finalize t ~time iid
  | Event.Rollback_cascade { target; rolled; _ } ->
      on_cascade t ~time target rolled
  | Event.Cycle_cut _ -> t.cycle_cuts <- t.cycle_cuts + 1
  | Event.Dep_resolved { aid; _ } -> on_replace t ~time aid
  | Event.Shard_commit _ -> t.shard_commits <- t.shard_commits + 1
  | Event.Shard_straggler { rolled; _ } ->
      t.stragglers_ev <- t.stragglers_ev + 1;
      t.wasted_ev <- t.wasted_ev + rolled
  | Event.Gvt_advance { gvt; _ } -> if gvt > t.gvt then t.gvt <- gvt
  | Event.Guess _ | Event.Affirm _ | Event.Deny _ | Event.Free_of _
  | Event.Wire_send _ | Event.Msg_send _ | Event.Msg_recv _
  | Event.Cancel_send _ | Event.Mailbox_compact _ | Event.Sim_stop _ ->
      ()

let attach ?(dep = false) t r = Recorder.set_tap r ~dep (observe t)

(* ---- Parallel-engine diagnostics over per-shard GVT-epoch samples ---- *)

type epoch = {
  ep_gvt : float;
  ep_shards : shard_sample list;
  ep_lag : float;
  ep_stragglers : int;
}

(* Epochs are keyed at the exporter's timestamp resolution (virtual
   microseconds): two float-distinct GVT readings that render to the same
   timestamp are one epoch, or an exposition would carry duplicate
   samples. In (gvt, shard, events) order an epoch's samples are
   contiguous, so one pass closes each epoch as the key moves on. *)
let epochs samples =
  let key s = Printf.sprintf "%.0f" (s.sh_gvt *. 1e6) in
  (* [shards] holds each shard's newest sample, in first-seen order *)
  let rec newest s = function
    | p :: rest when p.sh_shard <> s.sh_shard -> p :: newest s rest
    | _ :: rest -> s :: rest
    | [] -> [ s ]
  in
  let close shards acc =
    match shards with
    | [] -> acc
    | first :: _ ->
        let lag a s = Float.max a (s.sh_lvt -. s.sh_gvt) in
        let stragglers a s = a + s.sh_stragglers in
        { ep_gvt = first.sh_gvt; ep_shards = shards;
          ep_lag = List.fold_left lag 0.0 shards;
          ep_stragglers = List.fold_left stragglers 0 shards }
        :: acc
  in
  let rec go k shards acc = function
    | [] -> List.rev (close shards acc)
    | s :: rest when String.equal (key s) k -> go k (newest s shards) acc rest
    | s :: rest -> go (key s) [ s ] (close shards acc) rest
  in
  go "" [] [] samples

(* Imbalance needs some history before ratios mean anything: epochs whose
   busiest shard has processed fewer events than this floor are skipped. *)
let imb_floor = 64

(* Evaluate one GVT epoch over its shards' newest samples; ties go to
   the first-seen shard. Skew = cumulative-events ratio, or the ratio of
   lvt leads over GVT when the slowest shard leads at all. *)
let eval_imbalance t ep =
  match ep.ep_shards with
  | [] | [ _ ] -> ()
  | first :: rest ->
      let pick better =
        List.fold_left (fun m s -> if better s m then s else m) first rest
      in
      let fast = pick (fun s m -> s.sh_events > m.sh_events)
      and slow = pick (fun s m -> s.sh_events < m.sh_events) in
      if ep.ep_lag > t.gvt_lag then t.gvt_lag <- ep.ep_lag;
      let ev_ratio =
        float_of_int fast.sh_events /. float_of_int (max 1 slow.sh_events)
      in
      let lead_ratio =
        let lead s = s.sh_lvt -. s.sh_gvt in
        if lead slow > 0.0 then lead fast /. lead slow else 0.0
      in
      let ratio = Float.max ev_ratio lead_ratio in
      if fast.sh_events >= imb_floor && ratio >= t.config.imbalance_ratio
      then begin
        t.imb_streak <- t.imb_streak + 1;
        if t.imb_streak >= t.config.imbalance_epochs && not t.imb_flagged
        then begin
          t.imb_flagged <- true;
          diag t
            (Shard_imbalance
               {
                 fast = fast.sh_shard;
                 slow = slow.sh_shard;
                 ratio;
                 epochs = t.imb_streak;
                 at = ep.ep_gvt;
               })
        end
      end
      else t.imb_streak <- 0

let observe_shard_sample t s =
  if s.sh_gvt > t.gvt then t.gvt <- s.sh_gvt;
  Hashtbl.replace t.shard_final s.sh_shard s;
  (* deltas against the previous sample of the same shard *)
  (match Hashtbl.find_opt t.shard_last s.sh_shard with
  | None -> ()
  | Some prev ->
      let d_events = s.sh_events - prev.sh_events in
      if
        s.sh_gvt <= prev.sh_gvt
        && d_events >= t.config.gvt_stall_events
        && not (Hashtbl.mem t.flagged_gvt_stall s.sh_shard)
      then begin
        Hashtbl.add t.flagged_gvt_stall s.sh_shard ();
        diag t
          (Gvt_stall
             { shard = s.sh_shard; events = d_events; gvt = s.sh_gvt;
               at = s.sh_lvt })
      end;
      let d_spins = s.sh_full_spins - prev.sh_full_spins in
      if
        d_spins >= t.config.backpressure_spins
        && not (Hashtbl.mem t.flagged_backpressure s.sh_shard)
      then begin
        Hashtbl.add t.flagged_backpressure s.sh_shard ();
        diag t
          (Mailbox_backpressure
             { shard = s.sh_shard; spins = d_spins; at = s.sh_gvt })
      end;
      let d_annih = s.sh_annihilations - prev.sh_annihilations in
      if
        d_annih >= t.config.annihilation_limit
        && not (Hashtbl.mem t.flagged_annihilation s.sh_shard)
      then begin
        Hashtbl.add t.flagged_annihilation s.sh_shard ();
        diag t
          (Annihilation_storm
             { shard = s.sh_shard; annihilations = d_annih; at = s.sh_gvt })
      end);
  Hashtbl.replace t.shard_last s.sh_shard s

let observe_shards t samples =
  List.iter (observe_shard_sample t) samples;
  List.iter (eval_imbalance t) (epochs samples)

let fold_final t f init =
  Hashtbl.fold (fun _ s acc -> f acc s) t.shard_final init

let shard_stragglers t =
  max t.stragglers_ev (fold_final t (fun a s -> a + s.sh_stragglers) 0)

let shard_wasted_events t =
  max t.wasted_ev (fold_final t (fun a s -> a + s.sh_rolled) 0)

let shard_annihilations t =
  fold_final t (fun a s -> a + s.sh_annihilations) 0

let check_stalls t ~now =
  if now > t.now then t.now <- now;
  Hashtbl.iter
    (fun iid iv ->
      let open_for = now -. iv.opened_at in
      if open_for > t.config.stall_after && not (Hashtbl.mem t.flagged_stalls iid)
      then begin
        Hashtbl.add t.flagged_stalls iid ();
        diag t (Stalled_interval { iid; open_for; at = now })
      end)
    t.opens

let now t = t.now
let open_intervals t = Hashtbl.length t.opens
let peak_open_intervals t = t.peak_open
let live_aids t = t.aids_created - t.definite_aids
let aids_created t = t.aids_created
let intervals_opened t = t.opened
let intervals_finalized t = t.finalized
let intervals_rolled_back t = t.rolled
let cascades t = t.cascades
let max_cascade t = t.max_cascade
let cycle_cuts t = t.cycle_cuts
let committed_vtime t = t.committed_vtime
let wasted_vtime t = t.wasted_vtime
let shard_commits t = t.shard_commits
let gvt t = t.gvt
let gvt_lag t = t.gvt_lag

let gauges t =
  [
    ("hope_monitor_annihilations", float_of_int (shard_annihilations t));
    ("hope_monitor_cascades", float_of_int t.cascades);
    ("hope_monitor_committed_vtime", t.committed_vtime);
    ("hope_monitor_cycle_cuts", float_of_int t.cycle_cuts);
    ("hope_monitor_diagnostics", float_of_int t.n_diags);
    ("hope_monitor_gvt", t.gvt);
    ("hope_monitor_gvt_lag", t.gvt_lag);
    ("hope_monitor_live_aids", float_of_int (live_aids t));
    ("hope_monitor_max_cascade", float_of_int t.max_cascade);
    ("hope_monitor_open_intervals", float_of_int (Hashtbl.length t.opens));
    ("hope_monitor_peak_open_intervals", float_of_int t.peak_open);
    ("hope_monitor_shard_commits", float_of_int t.shard_commits);
    ("hope_monitor_shard_stragglers", float_of_int (shard_stragglers t));
    ("hope_monitor_shard_wasted_events",
     float_of_int (shard_wasted_events t));
    ("hope_monitor_wasted_vtime", t.wasted_vtime);
  ]

let diagnostics t = List.rev t.diags
let diagnostics_count t = t.n_diags
let healthy t = t.diags = []
