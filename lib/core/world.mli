(** One-call set-up for the common case: an engine, a scheduler and the
    HOPE runtime, wired together, plus the ending every workload driver
    shares — run to quiescence, check the paper's invariants, read the
    latest completion time. Re-exported as [Hope.World]. *)

open Hope_types

type t = {
  engine : Hope_sim.Engine.t;
  scheduler : Hope_proc.Scheduler.t;
  runtime : Runtime.t;
}

val create :
  ?seed:int ->
  ?obs:Hope_obs.Recorder.t ->
  ?latency:Hope_net.Latency.t ->
  ?fifo:bool ->
  ?sched_config:Hope_proc.Scheduler.config ->
  ?hope_config:Runtime.config ->
  unit ->
  t
(** Seed 42 and {!Hope_net.Latency.lan} by default. [obs] goes to
    {!Hope_sim.Engine.create}; [fifo], [sched_config] and [hope_config]
    to {!Hope_proc.Scheduler.create} and {!Runtime.install}. *)

val spawn : t -> ?node:int -> name:string -> unit Hope_proc.Program.t -> Proc_id.t

val run : ?until:float -> ?max_events:int -> t -> unit

val run_to_quiescence : ?what:string -> ?max_events:int -> t -> unit
(** Run until the event queue drains; [max_events] is unlimited by
    default. @raise Failure ["WHAT did not quiesce: REASON"] on any other
    stop. [what] (default ["world"]) labels every failure below. *)

val check_invariants : ?what:string -> t -> unit
(** {!Invariant.check_all}. @raise Failure listing every violation. *)

val makespan : what:string -> t -> Proc_id.t list -> float
(** The latest completion time over [pids].
    @raise Failure naming the first pid that has not terminated and its
    scheduler status. *)

val explain : t -> Explain.t
