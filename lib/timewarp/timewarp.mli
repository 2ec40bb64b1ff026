(** A compact Time Warp simulator (Jefferson, "Virtual Time", TOPLAS 1985
    — the paper's reference [14]).

    The paper positions Time Warp as the prior optimistic system whose
    single built-in assumption — "messages arrive in timestamp order" —
    HOPE generalises. This module implements that system over the same
    physical simulation engine the HOPE substrate uses, so experiment E7
    can compare a dedicated Time Warp against the same model expressed
    with HOPE primitives.

    Logical processes (LPs) exchange timestamped event messages. Each LP
    greedily processes its lowest-timestamp pending event; a {e straggler}
    (an arrival with a timestamp below the LP's local virtual time) rolls
    the LP back: processed events above the straggler are un-processed,
    the pre-states are restored from snapshots, and {e anti-messages}
    cancel the outputs sent by the undone work — annihilating unprocessed
    copies or causing secondary rollbacks at receivers. A periodic GVT
    (global virtual time) computation commits and fossil-collects
    everything below the global minimum.

    States are immutable values, so a snapshot is a binding. *)

(** A model of the simulated system. *)
type ('s, 'p) model = {
  init : int -> 's;  (** initial state of each LP *)
  handle :
    lp:int -> ts:float -> 's -> 'p -> 's * (int * float * 'p) list;
      (** process one event at virtual time [ts]; returns the new state
          and output events as [(dest_lp, recv_ts, payload)] with
          [recv_ts > ts] (enforced). *)
}

type config = {
  n_lps : int;
  physical_latency : Hope_net.Latency.t;  (** wire time between LP hosts *)
  event_cost : float;  (** physical CPU time to process one event *)
  gvt_interval : float;  (** physical time between GVT computations *)
  horizon : float;  (** virtual time bound: outputs beyond it are dropped *)
}

val default_config : config

type ('s, 'p) t

val create :
  engine:Hope_sim.Engine.t -> config -> ('s, 'p) model -> ('s, 'p) t

val inject : ('s, 'p) t -> dst:int -> ts:float -> 'p -> unit
(** Seed an initial event (physically delivered at time 0). *)

val run : ?max_events:int -> ('s, 'p) t -> Hope_sim.Engine.stop_reason
(** Drive the physical engine until quiescence: every event below the
    horizon processed and committed. *)

type stats = {
  processed : int;  (** event executions, including undone ones *)
  committed : int;  (** distinct events surviving at the end *)
  rolled_back : int;  (** event executions undone by rollback *)
  rollbacks : int;  (** rollback episodes *)
  anti_messages : int;
  messages : int;  (** positive event messages sent *)
  final_gvt : float;
  physical_time : float;  (** physical completion time *)
}

val stats : ('s, 'p) t -> stats

val state_of : ('s, 'p) t -> int -> 's
(** Final (or current) state of an LP. *)

(** {1 Sequential reference}

    A conservative, single-queue discrete-event execution of the same
    model, used as the correctness oracle: Time Warp must produce exactly
    the states the sequential execution produces. *)
module Sequential : sig
  type ('s, 'p) run_result = { states : 's array; events : int }

  val run :
    ('s, 'p) model ->
    n_lps:int ->
    horizon:float ->
    seeds:(int * float * 'p) list ->
    ('s, 'p) run_result
end
