(** The speculation governor: observability signals in, actuator
    decisions out.

    The governor closes the control loop PR 5 left open. It consumes the
    health monitor's diagnostics and the runtime's own churn evidence,
    folds them through a {!Policy}, and steers the runtime through the
    {!Hope_core.Runtime.governor} actuator surface:

    - {b guess throttling}: AIDs accumulating denial or Replace-churn
      pressure are throttled — new [guess]es on them return [false]
      immediately (the program's pessimistic branch) until the pressure
      decays below the low watermark ({!Throttle}'s hysteresis);
    - {b dynamic cycle cuts}: a Replace replacement candidate that keeps
      orbiting back to the same interval is ruled a dependency cycle and
      cut (Figure 15's resolution), at a threshold that adapts to the
      observed cut rate instead of staying a static constant — this is
      what resolves an Algorithm-1 bounce livelock at runtime;
    - {b send back-pressure}: user sends from a process whose history
      window exceeds the policy bound pay a virtual-time stall, bounding
      checkpoint memory without ever parking the sender (wait-freedom is
      untouched — only the {e cost} of a send changes, never its
      completion);
    - {b per-AID escalation} (DESIGN.md §10, policies with
      [escalate_high < infinity]): a second hysteresis loop over the
      same evidence, each bump weighted by the monitor's wasted-work
      fraction (exported as [gov.wasted_pct]). Tripping it flips the
      AID to pessimistic queued acquisition via
      {!Hope_core.Runtime.escalate_aid} — guesses on it park in the
      AID's FIFO queue and resume with a {e definite} grant instead of
      speculating. When the pressure decays through [escalate_low] the
      tick de-escalates, aborting any queued waiters. Gating loses all
      concurrency on the AID; escalation serializes it, which is the
      right trade exactly when wasted%% says speculation is losing.

    The policy tick (diagnostic consumption, threshold adaptation, gauge
    refresh) rides the telemetry sampler's pre-sample hook, once per
    stride. It pays per throttled AID, not per AID ever seen: the
    [gov.throttled_aids] gauge reads {!Throttle.throttled_count}, which
    visits only the AIDs that have tripped and not yet released. The
    gauges
    [gov.throttled_aids] and [gov.cut_threshold] plus the counters
    [gov.forced_cuts], [gov.denials_observed], [hope.guesses_gated] and
    [hope.send_stalls] land in the engine's metrics registry, so the
    OpenMetrics export and time series pick them up with no extra
    wiring. Every decision is a pure function of simulator state — a
    governed run is exactly as deterministic as an ungoverned one. *)

type t

val install :
  ?policy:Policy.t -> Hope_core.Runtime.t -> tele:Hope_sim.Telemetry.t -> t
(** Wire a governor between [rt] and [tele]: registers the actuator
    hooks via {!Hope_core.Runtime.set_governor}, the policy tick via
    {!Hope_sim.Telemetry.add_pre_sample}, and the [gov.*] instruments in
    the engine's metrics registry. [policy] defaults to
    {!Policy.default}. *)

val uninstall : t -> unit
(** Detach the governor completely: de-escalate every AID it escalated,
    clear the runtime's governor hooks, and remove the telemetry tick
    via {!Hope_sim.Telemetry.remove_pre_sample} — a detached governor's
    gauges stop refreshing and it costs nothing per sample. *)

val policy : t -> Policy.t

(** {1 Introspection} *)

val cut_threshold : t -> int
(** The current (adapted) orbit count that forces a cycle cut. *)

val forced_cuts : t -> int
(** Cycle cuts this governor forced (also counted in
    [gov.forced_cuts]; the runtime's own [hope.cycle_cuts] counts these
    plus Algorithm 2's UDO cuts). *)

val denials_observed : t -> int

val throttled_aids : t -> int
(** AIDs currently throttled at the engine's current virtual time
    ({!Throttle.throttled_count}). *)

val guesses_gated : t -> int
(** Guesses refused so far ([hope.guesses_gated] from the registry). *)

val send_stalls : t -> int
(** Sends that paid back-pressure ([hope.send_stalls]). *)

val wasted_pct : t -> float
(** The wasted-work fraction [wasted / (wasted + committed)] vtime as
    of the last tick, in [0, 1] (exported as [gov.wasted_pct]). *)

val pp_summary : Format.formatter -> t -> unit
