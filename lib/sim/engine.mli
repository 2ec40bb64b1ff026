(** The discrete-event simulation engine.

    The engine owns the virtual clock, the event queue, the root RNG, the
    metrics registry, and the observability recorder. Components schedule
    a dispatcher and two integer arguments at a future virtual time;
    {!run} pops events in timestamp order (FIFO among equal timestamps)
    and calls each dispatcher until quiescence or a limit. All model time
    is in seconds.

    Determinism contract: given equal seeds and equal scheduling calls, runs
    are bit-for-bit identical. Nothing in the engine reads wall-clock time
    or OS randomness. *)

type t

type stop_reason =
  | Quiescent  (** the event queue drained *)
  | Time_limit  (** the [until] horizon was reached *)
  | Event_limit  (** the [max_events] budget was exhausted *)
  | Stopped  (** {!stop} was called from inside an event *)

val create : ?seed:int -> ?obs:Hope_obs.Recorder.t -> unit -> t
(** [create ~seed ()] makes an engine at time 0. Default seed 42. [obs]
    supplies an externally-owned observability recorder (e.g. the bench
    harness's); by default the engine owns a fresh, disabled one. *)

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Rng.t
(** The engine's root RNG; components should {!Rng.split} their own. *)

val metrics : t -> Metrics.registry

val obs : t -> Hope_obs.Recorder.t
(** The structured speculation-event recorder (see {!Hope_obs}). Disabled
    by default; enable it before running to capture the typed event
    stream. *)

val emit : t -> Hope_obs.Event.payload -> unit
(** Emit an engine-attributed observability event at the current virtual
    time (no-op while the recorder is disabled). Components that know the
    acting process should use {!Hope_obs.Recorder.emit} with
    [~time:(now t)] instead. *)

val schedule_call : t -> delay:float -> (t -> int -> int -> unit) -> int -> int -> unit
(** [schedule_call t ~delay disp i1 i2] runs [disp t i1 i2] at
    [now t +. delay]. A shared dispatcher (the network's delivery entry
    point, the scheduler's resume entry point) with its arguments in
    [i1]/[i2] schedules without allocating once the pool is warm; a
    one-off caller may pass a fresh closure and ignore the ints. Events
    cannot be cancelled: a dispatcher that may fire stale checks a
    generation counter of its own. The record drops [disp] when it
    fires. @raise Invalid_argument on a negative delay. *)

val schedule_call_at : t -> at:float -> (t -> int -> int -> unit) -> int -> int -> unit
(** Absolute-time variant of {!schedule_call}.
    @raise Invalid_argument if [at] is in the past. *)

val sched_seq : t -> int
(** Monotone stamp of queue insertions (the sequence number the next
    scheduled event will take). Lets callers detect that nothing was
    scheduled between two of their own calls — {!Hope_net.Network} uses
    this to coalesce same-tick deliveries without risking reordering. *)

val run : ?until:float -> ?max_events:int -> t -> stop_reason
(** Pop and execute events until one of the stop conditions holds. May be
    called repeatedly; the clock persists across calls. *)

val stop : t -> unit
(** Request that {!run} return after the current event completes. *)

val set_sampler : t -> stride:float -> (t -> unit) -> unit
(** [set_sampler t ~stride f] installs a periodic virtual-time sampler:
    [f t] fires right after the first event executed at or past each due
    time, then the next due time is [now t +. stride] (so a clock that
    jumps several strides produces one sample, not a burst). The first
    sample fires after the next executed event, capturing early-run
    state. One float compare per executed event when idle; replaces any
    previous sampler. This is the hook [Telemetry] drives {!Timeseries}
    sampling and {!Hope_obs.Monitor.check_stalls} from.
    @raise Invalid_argument if [stride <= 0]. *)

val clear_sampler : t -> unit

val events_processed : t -> int
(** Total events executed since {!create}. *)

val pending_events : t -> int
(** Events currently queued. *)

val pool_allocated : t -> int
(** Event records ever allocated by the pool — bounded by the peak number
    of simultaneously pending events, not by the number of schedules
    (the pool-reuse property in [test_sim.ml]). *)

val pool_free : t -> int
(** Event records currently sitting on the free list. *)

val pp_stop_reason : Format.formatter -> stop_reason -> unit
