(** Online speculation health monitor.

    Rides a {!Recorder} tap (no event storage) and folds the live stream
    into O(live-state) aggregates: open-interval and live-AID gauges,
    committed vs. wasted virtual time, cascade statistics — plus typed
    {!diagnostic}s for the pathologies the paper's algorithms are
    designed around:

    - {b bounce livelock}: Algorithm-1-style deny / re-guess ping-pong
      concentrated on a single AID, measured as state-transition churn;
    - {b cascade runaway}: a single rollback cascade rolling more
      intervals than any healthy run should produce;
    - {b window growth}: one process accumulating live (unfinalized)
      intervals past a bound, i.e. a history window that never drains;
    - {b stalled intervals}: an interval left open for longer than a
      virtual-time budget (checked from the sampling hook, since it is a
      function of the clock, not of any one event).

    Everything here costs O(1) amortized per observed event and allocates
    only when live state grows (a new AID, a new open interval), so the
    monitor can stay attached for unbounded runs. *)

open Hope_types

type config = {
  bounce_flips : int;
      (** state transitions on one AID before flagging ping-pong *)
  replace_churn : int;
      (** Replace resolutions on one AID before flagging ping-pong — the
          Algorithm-1 livelock signature, since a bouncing cycle keeps
          every AID speculative (no state flips) while Replace messages
          orbit it. Needs the dep event class ({!attach} [~dep:true]). *)
  cascade_limit : int;  (** intervals rolled by one cascade *)
  window_limit : int;  (** live intervals on one process *)
  stall_after : float;  (** virtual seconds an interval may stay open *)
  gvt_stall_events : int;
      (** events one shard may process between two of its samples with
          GVT frozen before flagging a stall *)
  imbalance_ratio : float;
      (** fastest/slowest shard skew (cumulative events, or lvt lead
          over GVT) at one GVT epoch that counts as imbalanced *)
  imbalance_epochs : int;
      (** consecutive imbalanced GVT epochs before flagging *)
  backpressure_spins : int;
      (** full-ring producer spins by one shard within one inter-sample
          window before flagging back-pressure *)
  annihilation_limit : int;
      (** anti-message annihilations by one shard within one
          inter-sample window before flagging a storm *)
}

val default_config : config
(** [{ bounce_flips = 12; replace_churn = 512; cascade_limit = 64;
      window_limit = 256; stall_after = 30.0; gvt_stall_events = 4096;
      imbalance_ratio = 4.0; imbalance_epochs = 3;
      backpressure_spins = 4096; annihilation_limit = 512 }] *)

type diagnostic =
  | Bounce_livelock of { aid : Aid.t; flips : int; at : float }
  | Cascade_runaway of { target : Interval_id.t; size : int; at : float }
  | Window_growth of { proc : Proc_id.t; live : int; at : float }
  | Stalled_interval of { iid : Interval_id.t; open_for : float; at : float }
  | Gvt_stall of { shard : int; events : int; gvt : float; at : float }
      (** [shard] processed [events] events between two of its samples
          while GVT stayed at [gvt] *)
  | Shard_imbalance of {
      fast : int;
      slow : int;
      ratio : float;
      epochs : int;
      at : float;
    }
      (** shard [fast] sustained [ratio]x the events (or lvt lead) of
          shard [slow] for [epochs] consecutive GVT epochs *)
  | Mailbox_backpressure of { shard : int; spins : int; at : float }
      (** [shard]'s producers spun [spins] times on full outbound rings
          within one inter-sample window *)
  | Annihilation_storm of { shard : int; annihilations : int; at : float }
      (** [shard] annihilated [annihilations] positive/anti pairs within
          one inter-sample window *)

val pp_diagnostic : Format.formatter -> diagnostic -> unit

type t

val create : ?config:config -> unit -> t

val attach : ?dep:bool -> t -> Recorder.t -> unit
(** Install this monitor as [r]'s tap (replacing any previous tap). The
    monitor does not consume net-class events, so the message-path
    emission sites stay disabled unless the store is also enabled.
    [dep] (default [false]) additionally opts into the dep event class
    (one [Dep_resolved] per Replace message) to arm the replace-churn
    bounce detector — denser, so it costs allocation on the Replace
    path; leave it off for overhead-sensitive sampling. *)

val observe : t -> time:float -> proc:Proc_id.t -> Event.payload -> unit
(** Fold one event. This is the tap body; {!Analytics} is the post-hoc
    replay, feeding a stored stream through the same fold. *)

val check_stalls : t -> now:float -> unit
(** Flag any interval open for more than [stall_after] virtual seconds.
    Called from the periodic sampling hook. Each interval is flagged at
    most once. *)

(** {1 Parallel-engine samples}

    The sharded engine ([lib/shard]) cannot tap one monitor from every
    domain, so each shard records cheap cumulative {!shard_sample}s — at
    every GVT advance plus every few thousand processed events (so a
    frozen GVT still produces samples) — and the merged, epoch-ordered
    list is folded in post-run. *)

type shard_sample = {
  sh_shard : int;  (** shard id, [0 .. domains-1] *)
  sh_gvt : float;  (** GVT when the sample was taken *)
  sh_lvt : float;  (** max local virtual time over the shard's LPs *)
  sh_events : int;  (** cumulative events processed (incl. rolled back) *)
  sh_stragglers : int;  (** cumulative rollbacks (primary + secondary) *)
  sh_rolled : int;  (** cumulative processed entries undone *)
  sh_rollback_depth : int;  (** deepest single rollback so far *)
  sh_annihilations : int;  (** cumulative positive/anti pair annihilations *)
  sh_full_spins : int;  (** cumulative producer spins on full rings *)
  sh_mailbox_occ : int;  (** inbound ring occupancy at the sample *)
  sh_mailbox_peak : int;  (** outbound ring high-water mark *)
}

type epoch = {
  ep_gvt : float;  (** the GVT of the first shard's newest sample *)
  ep_shards : shard_sample list;
      (** each reporting shard's newest sample, in first-seen order *)
  ep_lag : float;  (** max [sh_lvt - sh_gvt] over [ep_shards], at least 0 *)
  ep_stragglers : int;  (** [sh_stragglers] summed over [ep_shards] *)
}
(** One GVT epoch of a sharded run. *)

val epochs : shard_sample list -> epoch list
(** Group samples in (gvt, shard, events) order into GVT epochs, one per
    virtual microsecond (the OpenMetrics timestamp resolution), oldest
    first. A shard sampled several times in one epoch (GVT frozen, or two
    GVTs inside one microsecond) counts once, by its newest sample; a
    shard with no sample in an epoch is absent from it. The telemetry
    export, [hope_sim --watch] and {!observe_shards}' imbalance detector
    all read this fold. *)

val observe_shards : t -> shard_sample list -> unit
(** Fold a batch of per-shard samples, ordered by (gvt, shard): every
    sample arms the {!Gvt_stall}, {!Mailbox_backpressure} and
    {!Annihilation_storm} detectors, then every {!epochs} epoch with at
    least two shards arms {!Shard_imbalance} (its fastest and slowest
    shard by events; on a tie, the first-seen) and the lag gauge. May be
    called repeatedly with successive batches; per-shard deltas, the
    imbalance streak and flag dedup persist across calls. *)

(** {1 Gauges and counters} *)

val now : t -> float
(** Virtual time of the last observed event (0.0 before any). *)

val open_intervals : t -> int
val peak_open_intervals : t -> int

val live_aids : t -> int
(** AIDs created minus AIDs currently in a definite state. *)

val aids_created : t -> int
val intervals_opened : t -> int
val intervals_finalized : t -> int
val intervals_rolled_back : t -> int
val cascades : t -> int
val max_cascade : t -> int
val cycle_cuts : t -> int

val committed_vtime : t -> float
(** Total open→finalize virtual time over finalized intervals. *)

val wasted_vtime : t -> float
(** Total open→rollback virtual time over rolled-back intervals. *)

val shard_commits : t -> int
(** [Shard_commit] events observed (the merged committed trace). *)

val shard_stragglers : t -> int
(** Cross-shard rollbacks: the larger of the [Shard_straggler] events
    observed and the sample-derived per-shard total. *)

val shard_wasted_events : t -> int
(** Processed-then-undone Time Warp entries, same two sources. *)

val gvt : t -> float
(** Latest global-virtual-time floor seen (events or samples). *)

val gvt_lag : t -> float
(** Max [ep_lag] over the epochs with at least two shards seen so far. *)

val gauges : t -> (string * float) list
(** Snapshot of every gauge above under stable [hope_monitor_*] names,
    sorted by name — the shape the OpenMetrics exporter consumes. *)

(** {1 Diagnostics} *)

val diagnostics : t -> diagnostic list
(** All diagnostics so far, in emission order. *)

val diagnostics_count : t -> int
(** [List.length (diagnostics t)], without building the list — gauge
    sources read this every sample. *)

val healthy : t -> bool
(** [diagnostics t = []] *)
