(** Live-telemetry glue: recorder → monitor, engine → time series,
    everything → OpenMetrics.

    [Hope_obs] is deliberately below the simulator, so its samplers and
    exporters know nothing about {!Engine} or {!Metrics}. This module is
    the one place that knows all three: it attaches a
    {!Hope_obs.Monitor} to the engine's recorder as a tap, registers the
    metrics registry and the monitor's gauges as {!Hope_obs.Timeseries}
    sources, drives sampling (and stall checks) from the engine's
    virtual-time sampler hook, and renders the lot through
    {!Hope_obs.Export_openmetrics}.

    Typical shape (what [hope_sim --metrics/--watch/--health] does):

    {[
      let tele = Telemetry.create ~recorder:(Engine.obs eng) () in
      Telemetry.install tele eng;
      (* ... run ... *)
      Telemetry.write_openmetrics tele ~file:"metrics.prom"
    ]} *)

type t

val create :
  ?config:Hope_obs.Monitor.config ->
  ?deep:bool ->
  ?stride:float ->
  ?capacity:int ->
  recorder:Hope_obs.Recorder.t ->
  unit ->
  t
(** Build a monitor (attached to [recorder] as its tap immediately) and
    an empty time-series set. [deep] (default [false]) opts the tap into
    the dep event class, arming the monitor's replace-churn bounce
    detector at the price of per-Replace allocation — [--health] turns
    it on, plain [--metrics]/[--watch] sampling leaves it off. [stride]
    (default [1e-3] virtual seconds) is the sampling period; [capacity]
    (default 1024) the points retained per series. *)

val monitor : t -> Hope_obs.Monitor.t
val series : t -> Hope_obs.Timeseries.t
val stride : t -> float

val install : t -> Engine.t -> unit
(** Make the engine the one live engine this telemetry samples: hook
    sampling into its virtual-time sampler (replacing any sampler it
    already had) and register its executed/pending event counts as
    sources. Every counter and gauge of the engine's metrics registry
    lands in a series under its sanitized name: a sample binds each
    instrument to its series once, and walks the registry again only
    when {!Metrics.instrument_count} moves, so new instruments are picked
    up at the first sample after they appear and a stride is one array
    pass with no name lookup. Each sample also runs the monitor's stall
    check. The monitor's own gauges were registered as sources at
    {!create} time.

    Install is idempotent: installing the same engine again registers
    nothing twice. Installing another engine replaces the first as the
    one the sources and {!instruments} read. A sharded run's per-domain
    registries arrive through {!absorb_shards} instead.

    The rollback-storage gauges ([hope.ckpt_live], [hope.journal_depth],
    [hope.arrivals_resident]) flow through this walk like any other: no
    per-subsystem wiring, and they drain to exactly 0 at quiescence —
    the OpenMetrics export doubles as the checkpoint-GC check. *)

val set_on_sample : t -> (Engine.t -> t -> unit) -> unit
(** Extra per-sample callback (after the sources are read); the
    [--watch] progress line rides on this. Call before or after
    {!install}. Replaces any previous callback. *)

val has_shards : t -> bool
(** True once {!absorb_shards} registered at least one per-domain
    registry — i.e. this telemetry describes a parallel run even though
    no live sampler ever fired. *)

val absorb_shards :
  t ->
  registries:Metrics.registry array ->
  samples:Hope_obs.Monitor.shard_sample list ->
  unit
(** Post-run ingestion of a sharded run ([Shard.result]): registers each
    per-domain registry as a {e snapshot-only} source (index = shard id;
    nothing is sampled, the domain is done), so {!instruments} emits each
    of its families twice — into the unlabeled aggregate, where one
    family from several registries is merged (counters and gauges
    summed, histogram count and sum combined) so it appears once, and as
    a [shard="N"] labeled variant. Then feeds every sample to
    {!Hope_obs.Monitor.observe_shards} (arming the parallel diagnostics),
    and records one point per GVT epoch of
    {!Hope_obs.Monitor.epochs}, timestamped at the epoch's GVT: unlabeled
    [hope_gvt], [hope_gvt_lag] (max shard lvt − GVT) and
    [hope_shard_stragglers_total], plus, per reporting shard at its
    newest sample's GVT, the labeled
    [hope_shard_lvt]/[_events]/[_stragglers]/[_wasted_events]/
    [_rollback_depth]/[_annihilations]/[_full_spins]/
    [_mailbox_occupancy]/[_mailbox_high_water]. *)

type pre_sample_handle

val add_pre_sample : t -> (Engine.t -> t -> unit) -> pre_sample_handle
(** Append a callback that runs at the {e start} of each sample, before
    the time-series sources are read — the governor's policy tick rides
    on this so the gauges it updates land in the same sample. Callbacks
    run in registration order. The returned handle detaches it. *)

val remove_pre_sample : t -> pre_sample_handle -> unit
(** Detach a pre-sample callback. Idempotent; other callbacks keep
    their order. [Governor.uninstall] uses this so a detached
    governor's tick stops running (and its gauges stop refreshing)
    instead of lingering as a dead closure every stride. *)

val sample_now : t -> unit
(** Take one sample immediately (no-op before {!install}). Exports call
    this so the final point reflects end-of-run state even when the run
    ended between strides. *)

val instruments : t -> Hope_obs.Export_openmetrics.instrument list
(** Final-value snapshot: registry counters, gauges, and histograms
    (histograms as summaries with p50/p90/p99), plus the monitor
    gauges. *)

val openmetrics : t -> string
(** {!sample_now}, then render instruments and series. *)

val write_openmetrics : t -> file:string -> unit
(** Write {!openmetrics} to [file]; ["-"] writes to stdout. *)
