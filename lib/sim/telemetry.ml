module Monitor = Hope_obs.Monitor
module Timeseries = Hope_obs.Timeseries
module Om = Hope_obs.Export_openmetrics

type pre_sample_handle = int

type t = {
  mon : Monitor.t;
  ts : Timeseries.t;
  mutable bound : (Metrics.registry * int) option;
      (* the registry [counters] and [gauges] were bound from, and its
         instrument count then: registries never shrink, so an equal count
         means no instrument appeared since *)
  mutable counters : (Metrics.counter * Timeseries.series) array;
  mutable gauges : (Metrics.gauge * Timeseries.series) array;
  mutable engine : Engine.t option;  (* the one live, sampled engine *)
  mutable shard_registries : (int * Metrics.registry) list;
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
    bound = None;
    counters = [||];
    gauges = [||];
    engine = None;
    shard_registries = [];
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

(* Bind every counter and gauge to its series under the sanitized name,
   in the registry's own visiting order. This is the only registry walk:
   a stride reads the bound instruments, with no name hashing. *)
let bind t reg n =
  let pairs iter =
    let acc = ref [] in
    iter reg (fun raw i -> acc := (i, Timeseries.series t.ts (Om.sanitize raw)) :: !acc);
    Array.of_list (List.rev !acc)
  in
  t.counters <- pairs Metrics.iter_counters;
  t.gauges <- pairs Metrics.iter_gauges;
  t.bound <- Some (reg, n)

let sample t eng =
  (* Pre-sample hooks run before the sources are read so anything they
     update (e.g. the governor's gauges) lands in this very sample
     instead of lagging one stride. *)
  List.iter (fun (_, f) -> f eng t) t.pre_samples;
  let now = Engine.now eng in
  let reg = Engine.metrics eng in
  let n = Metrics.instrument_count reg in
  (match t.bound with
  | Some (r, m) when r == reg && m = n -> ()
  | _ -> bind t reg n);
  Array.iter
    (fun (c, s) -> Timeseries.record s ~time:now (float_of_int (Metrics.count c)))
    t.counters;
  Array.iter (fun (g, s) -> Timeseries.record s ~time:now (Metrics.gauge_value g)) t.gauges;
  Timeseries.sample t.ts ~time:now;
  Monitor.check_stalls t.mon ~now;
  t.on_sample eng t

let sample_now t = Option.iter (sample t) t.engine

(* Idempotent: [Timeseries.add_source] replaces by name, so installing
   again re-registers nothing. *)
let install t eng =
  t.engine <- Some eng;
  Timeseries.add_source t.ts "hope_engine_events_executed" (fun () ->
      float_of_int (Engine.events_processed eng));
  Timeseries.add_source t.ts "hope_engine_events_pending" (fun () ->
      float_of_int (Engine.pending_events eng));
  Engine.set_sampler eng ~stride:(Timeseries.stride t.ts) (sample t)

let has_shards t = t.shard_registries <> []

let shard_label i = [ ("shard", string_of_int i) ]

(* Fold the sharded engine's samples into the monitor's parallel
   detectors (every sample: a frozen GVT is exactly what [Gvt_stall]
   watches for) and its GVT epochs into the time series: per epoch one
   unlabeled point and one labeled point per reporting shard, so exported
   trajectories stay one point per timestamp. *)
let absorb_shards t ~registries ~samples =
  Array.iteri
    (fun i reg ->
      if not (List.exists (fun (_, r) -> r == reg) t.shard_registries) then
        t.shard_registries <- t.shard_registries @ [ (i, reg) ])
    registries;
  Monitor.observe_shards t.mon samples;
  let record ?labels name time v =
    Timeseries.record (Timeseries.series t.ts ?labels name) ~time v
  in
  List.iter
    (fun (ep : Monitor.epoch) ->
      let time = ep.ep_gvt in
      record "hope_gvt" time time;
      record "hope_gvt_lag" time ep.ep_lag;
      record "hope_shard_stragglers_total" time (float_of_int ep.ep_stragglers);
      List.iter
        (fun (s : Monitor.shard_sample) ->
          let labels = shard_label s.sh_shard and time = s.sh_gvt in
          let count name n = record ~labels name time (float_of_int n) in
          record ~labels "hope_shard_lvt" time s.sh_lvt;
          count "hope_shard_events" s.sh_events;
          count "hope_shard_stragglers" s.sh_stragglers;
          count "hope_shard_wasted_events" s.sh_rolled;
          count "hope_shard_rollback_depth" s.sh_rollback_depth;
          count "hope_shard_annihilations" s.sh_annihilations;
          count "hope_shard_full_spins" s.sh_full_spins;
          count "hope_shard_mailbox_occupancy" s.sh_mailbox_occ;
          count "hope_shard_mailbox_high_water" s.sh_mailbox_peak)
        ep.ep_shards)
    (Monitor.epochs samples)

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
  (* The unlabeled aggregate: the live engine and shard registries merged by
     family (counters/gauges sum, histogram count+sum combine). *)
  let registry =
    match
      List.map
        (fun reg -> registry_instruments reg)
        (List.map Engine.metrics (Option.to_list t.engine)
        @ List.map snd t.shard_registries)
    with
    | [] -> []
    | [ one ] -> one
    | many -> merge_instruments many
  in
  (* Plus one labeled variant per shard registry, under shard="N". *)
  let labeled =
    List.concat_map
      (fun (shard, reg) -> registry_instruments ~labels:(shard_label shard) reg)
      t.shard_registries
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
