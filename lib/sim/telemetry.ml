module Monitor = Hope_obs.Monitor
module Timeseries = Hope_obs.Timeseries
module Om = Hope_obs.Export_openmetrics

type pre_sample_handle = int

type t = {
  mon : Monitor.t;
  ts : Timeseries.t;
  handles : (string, Timeseries.series) Hashtbl.t;
      (* raw registry name -> series, so per-sample reads skip both the
         name sanitization and the by-name series lookup *)
  mutable engines : Engine.t list;
      (* install order; one per shard when the sharded runtime installs
         its per-domain engines into a single telemetry instance *)
  mutable shard_engines : (int * Engine.t) list;
      (* shard id -> registry, snapshot-only (no sampler): the parallel
         engine's per-domain registries, read post-run for the labeled
         shard="N" instrument families *)
  mutable pre_samples : (pre_sample_handle * (Engine.t -> t -> unit)) list;
      (* registration order; keyed so a consumer (the governor) can
         detach its tick on uninstall instead of leaving a dead closure
         running every stride *)
  mutable next_pre : pre_sample_handle;
  mutable on_sample : Engine.t -> t -> unit;
}

(* The monitor's gauges under the same stable names [Monitor.gauges]
   reports, registered as fixed thunks: reading them per sample then
   allocates a couple of float boxes instead of a 9-pair list. *)
let add_monitor_sources ts mon =
  List.iter
    (fun (name, read) -> Timeseries.add_source ts name read)
    [
      ("hope_monitor_cascades", fun () -> float_of_int (Monitor.cascades mon));
      ("hope_monitor_committed_vtime", fun () -> Monitor.committed_vtime mon);
      ("hope_monitor_cycle_cuts", fun () -> float_of_int (Monitor.cycle_cuts mon));
      ( "hope_monitor_diagnostics",
        fun () -> float_of_int (Monitor.diagnostics_count mon) );
      ("hope_monitor_live_aids", fun () -> float_of_int (Monitor.live_aids mon));
      ("hope_monitor_max_cascade", fun () -> float_of_int (Monitor.max_cascade mon));
      ( "hope_monitor_open_intervals",
        fun () -> float_of_int (Monitor.open_intervals mon) );
      ( "hope_monitor_peak_open_intervals",
        fun () -> float_of_int (Monitor.peak_open_intervals mon) );
      ("hope_monitor_wasted_vtime", fun () -> Monitor.wasted_vtime mon);
    ]
(* The shard-facing monitor gauges — gvt, gvt_lag, the shard counters —
   are not registered as per-stride sources: they move at GVT epochs,
   which [absorb_shards] records directly, and they still appear as
   final instruments via [Monitor.gauges]. *)

let create ?config ?(deep = false) ?(stride = 1e-3) ?(capacity = 1024)
    ~recorder () =
  let mon = Monitor.create ?config () in
  Monitor.attach ~dep:deep mon recorder;
  let ts = Timeseries.create ~capacity ~stride () in
  add_monitor_sources ts mon;
  {
    mon;
    ts;
    handles = Hashtbl.create 64;
    engines = [];
    shard_engines = [];
    pre_samples = [];
    next_pre = 0;
    on_sample = (fun _ _ -> ());
  }

let monitor t = t.mon
let series t = t.ts
let stride t = Timeseries.stride t.ts
let set_on_sample t f = t.on_sample <- f

let add_pre_sample t f =
  let h = t.next_pre in
  t.next_pre <- h + 1;
  t.pre_samples <- t.pre_samples @ [ (h, f) ];
  h

let remove_pre_sample t h =
  t.pre_samples <- List.filter (fun (h', _) -> h' <> h) t.pre_samples

let handle t raw =
  try Hashtbl.find t.handles raw
  with Not_found ->
    let s = Timeseries.series t.ts (Om.sanitize raw) in
    Hashtbl.add t.handles raw s;
    s

let sample t eng =
  (* Pre-sample hooks run before the sources are read so anything they
     update (e.g. the governor's gauges) lands in this very sample
     instead of lagging one stride. *)
  List.iter (fun (_, f) -> f eng t) t.pre_samples;
  let now = Engine.now eng in
  (match t.engines with
  | [] | [ _ ] ->
      (* Direct registry walk (no sorted assoc lists): this runs once per
         stride for the whole run, so it must not shed garbage. *)
      let reg = Engine.metrics eng in
      Metrics.iter_counters reg (fun k n ->
          Timeseries.record (handle t k) ~time:now (float_of_int n));
      Metrics.iter_gauges reg (fun k v ->
          Timeseries.record (handle t k) ~time:now v)
  | engines ->
      (* Several shard engines share one telemetry instance; the same
         family registered by each shard must land as ONE point per
         sample (summed), not as k successive overwrites whose winner
         depends on install order. *)
      let acc = Hashtbl.create 64 in
      let add k v =
        match Hashtbl.find_opt acc k with
        | Some prev -> Hashtbl.replace acc k (prev +. v)
        | None -> Hashtbl.add acc k v
      in
      List.iter
        (fun e ->
          let reg = Engine.metrics e in
          Metrics.iter_counters reg (fun k n -> add k (float_of_int n));
          Metrics.iter_gauges reg (fun k v -> add k v))
        engines;
      Hashtbl.iter (fun k v -> Timeseries.record (handle t k) ~time:now v) acc);
  Timeseries.sample t.ts ~time:now;
  Monitor.check_stalls t.mon ~now;
  t.on_sample eng t

let sample_now t = match t.engines with [] -> () | eng :: _ -> sample t eng

let install t eng =
  (* Idempotent and keyed by the engine itself: re-installing the same
     engine (or installing several shard engines) cannot double-register
     the executed/pending families — the sources below are summing
     closures over the engine list, and [Timeseries.add_source] replaces
     by name. *)
  if not (List.memq eng t.engines) then t.engines <- t.engines @ [ eng ];
  Timeseries.add_source t.ts "hope_engine_events_executed" (fun () ->
      List.fold_left
        (fun acc e -> acc +. float_of_int (Engine.events_processed e))
        0.0 t.engines);
  Timeseries.add_source t.ts "hope_engine_events_pending" (fun () ->
      List.fold_left
        (fun acc e -> acc +. float_of_int (Engine.pending_events e))
        0.0 t.engines);
  Engine.set_sampler eng ~stride:(Timeseries.stride t.ts) (sample t)

let install_shard t ~shard eng =
  if not (List.exists (fun (_, e) -> e == eng) t.shard_engines) then
    t.shard_engines <- t.shard_engines @ [ (shard, eng) ]

let has_shards t = t.shard_engines <> []

let shard_label i = [ ("shard", string_of_int i) ]

(* Fold the sharded engine's GVT-epoch samples into the time series (one
   point per shard per epoch, labeled) and the monitor's parallel
   detectors. [samples] arrive ordered by (gvt, shard, events); when GVT
   froze, a shard has several samples at one epoch — the series keep the
   last one per (shard, gvt) so exported trajectories stay one point per
   timestamp, while the monitor sees every sample (a frozen GVT is
   exactly what [Gvt_stall] watches for). *)
let absorb_shards t ~engines ~samples =
  Array.iteri (fun i eng -> install_shard t ~shard:i eng) engines;
  Monitor.observe_shards t.mon samples;
  (* Epochs are keyed at the exporter's timestamp resolution (virtual
     microseconds): two float-distinct GVT readings that would render to
     the same timestamp must collapse to one point, or the exposition
     carries duplicate samples. *)
  let epoch_key gvt = Printf.sprintf "%.0f" (gvt *. 1e6) in
  let keep : (int * string, Monitor.shard_sample) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (s : Monitor.shard_sample) ->
      let key = (s.sh_shard, epoch_key s.sh_gvt) in
      if not (Hashtbl.mem keep key) then order := key :: !order;
      Hashtbl.replace keep key s)
    samples;
  let rec_labeled i name time v =
    Timeseries.record
      (Timeseries.series t.ts ~labels:(shard_label i) name)
      ~time v
  in
  (* Per-epoch aggregates (max lvt lead, total stragglers) in one pass. *)
  let epoch : (string, (float * int) ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (_, ek) (s : Monitor.shard_sample) ->
      let cell =
        match Hashtbl.find_opt epoch ek with
        | Some c -> c
        | None ->
            let c = ref (0.0, 0) in
            Hashtbl.add epoch ek c;
            c
      in
      let lag, n = !cell in
      cell := (Float.max lag (s.sh_lvt -. s.sh_gvt), n + s.sh_stragglers))
    keep;
  let gvt_seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let s = Hashtbl.find keep key in
      let i = s.sh_shard and time = s.sh_gvt in
      rec_labeled i "hope_shard_lvt" time s.sh_lvt;
      rec_labeled i "hope_shard_events" time (float_of_int s.sh_events);
      rec_labeled i "hope_shard_stragglers" time
        (float_of_int s.sh_stragglers);
      rec_labeled i "hope_shard_wasted_events" time
        (float_of_int s.sh_rolled);
      rec_labeled i "hope_shard_rollback_depth" time
        (float_of_int s.sh_rollback_depth);
      rec_labeled i "hope_shard_annihilations" time
        (float_of_int s.sh_annihilations);
      rec_labeled i "hope_shard_full_spins" time
        (float_of_int s.sh_full_spins);
      rec_labeled i "hope_shard_mailbox_occupancy" time
        (float_of_int s.sh_mailbox_occ);
      rec_labeled i "hope_shard_mailbox_high_water" time
        (float_of_int s.sh_mailbox_peak);
      if not (Hashtbl.mem gvt_seen (epoch_key time)) then begin
        Hashtbl.add gvt_seen (epoch_key time) ();
        let lag, stragglers = !(Hashtbl.find epoch (epoch_key time)) in
        Timeseries.record (Timeseries.series t.ts "hope_gvt") ~time time;
        Timeseries.record (Timeseries.series t.ts "hope_gvt_lag") ~time lag;
        Timeseries.record
          (Timeseries.series t.ts "hope_shard_stragglers_total")
          ~time (float_of_int stragglers)
      end)
    (List.rev !order)

let registry_instruments ?(labels = []) reg =
  List.map
    (fun (k, v) -> Om.Counter { name = k; labels; value = v })
    (Metrics.counters reg)
  @ List.map
      (fun (k, v) -> Om.Gauge { name = k; labels; value = v })
      (Metrics.gauges reg)
  @ List.map
      (fun (k, h) ->
        Om.Summary
          {
            name = k;
            labels;
            count = Metrics.hist_count h;
            sum = Metrics.hist_sum h;
            quantiles =
              [
                (0.5, Metrics.hist_percentile h 50.0);
                (0.9, Metrics.hist_percentile h 90.0);
                (0.99, Metrics.hist_percentile h 99.0);
              ];
          })
      (Metrics.histograms reg)

(* Merge duplicate families across shard registries: counters and gauges
   sum; histograms combine count and sum, keeping the quantiles of the
   shard that saw the most observations (exact cross-shard quantiles
   would need the raw reservoirs). First-seen order is preserved so the
   export stays byte-deterministic given a fixed install order. *)
let merge_instruments lists =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun inst ->
      let name =
        match inst with
        | Om.Counter { name; labels; _ }
        | Om.Gauge { name; labels; _ }
        | Om.Summary { name; labels; _ } ->
            name ^ Om.render_labels labels
      in
      match Hashtbl.find_opt tbl name with
      | None ->
          Hashtbl.add tbl name inst;
          order := name :: !order
      | Some prev ->
          let combined =
            match (prev, inst) with
            | Om.Counter a, Om.Counter b ->
                Om.Counter { a with value = a.value + b.value }
            | Om.Gauge a, Om.Gauge b ->
                Om.Gauge { a with value = a.value +. b.value }
            | Om.Summary a, Om.Summary b ->
                Om.Summary
                  {
                    a with
                    count = a.count + b.count;
                    sum = a.sum +. b.sum;
                    quantiles =
                      (if b.count > a.count then b.quantiles else a.quantiles);
                  }
            | _, b -> b
          in
          Hashtbl.replace tbl name combined)
    (List.concat lists);
  List.rev_map (fun name -> Hashtbl.find tbl name) !order

let instruments t =
  let live = List.map (fun e -> registry_instruments (Engine.metrics e)) t.engines in
  let shard_agg =
    List.map
      (fun (_, e) -> registry_instruments (Engine.metrics e))
      t.shard_engines
  in
  (* The unlabeled aggregate: live engines and shard registries merged by
     family (counters/gauges sum, histogram count+sum combine). *)
  let registry =
    match live @ shard_agg with
    | [] -> []
    | [ one ] -> one
    | many -> merge_instruments many
  in
  (* Plus one labeled variant per shard registry, under shard="N". *)
  let labeled =
    List.concat_map
      (fun (shard, e) ->
        registry_instruments
          ~labels:[ ("shard", string_of_int shard) ]
          (Engine.metrics e))
      t.shard_engines
  in
  registry @ labeled
  @ List.map
      (fun (k, v) -> Om.Gauge { name = k; labels = []; value = v })
      (Monitor.gauges t.mon)

let openmetrics t =
  sample_now t;
  Om.to_string ~instruments:(instruments t) ~series:t.ts ()

let write_openmetrics t ~file =
  let s = openmetrics t in
  if file = "-" then output_string stdout s
  else begin
    let oc = open_out file in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc s)
  end
