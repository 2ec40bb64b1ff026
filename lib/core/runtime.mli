(** The HOPE runtime: HOPElib + AID processes wired into the scheduler.

    [install] registers hooks implementing every HOPE instruction of the
    process DSL, per §5 of the paper:

    - [aid_init] spawns an AID process (a native actor running the
      {!Aid_machine}) and returns its identity;
    - [guess x] begins a new speculative interval whose IDO is the
      process's cumulative dependency set plus [x], registers the interval
      with every AID in that set (Guess messages), and eagerly returns
      [true] — the process never waits;
    - consuming a message with a non-empty tag begins an implicit-guess
      interval the same way (§3);
    - [affirm x] sends a definite Affirm when the process is definite, and
      a speculative [<Affirm, iid, IDO>] (recorded in the interval's IHA)
      when it is speculative;
    - [deny x] sends an unconditional Deny (Table 1); with
      [buffer_speculative_denies] a speculative process instead buffers
      the deny in IHD until it finalizes (footnote 1);
    - [free_of x] denies [x] if the process's local history depends on it,
      and affirms it otherwise;
    - Replace/Rollback messages from AID processes are processed by
      {!Control}, transparently to user code.

    Every remote effect is an asynchronous message: no hook ever parks the
    calling process, which is the wait-free property of the title. *)

open Hope_types

type t

type aid_placement =
  | Colocate  (** spawn each AID process on its creator's node (the
                  prototype's behaviour: guess spawns the AID locally) *)
  | Fixed_node of int  (** spawn all AID processes on one node *)

type config = {
  algorithm : Control.algorithm;
  buffer_speculative_denies : bool;
      (** footnote 1: hold denies from speculative intervals in IHD until
          the interval finalizes, instead of sending immediately *)
  aid_placement : aid_placement;
  cache_terminal_states : bool;
      (** let each process cache AIDs it has observed in a terminal state
          (True from a Replace with empty IDO, False from a Rollback);
          known-dead incoming messages are then dropped locally instead of
          costing a Guess/Rollback round trip, and known-True inherited
          dependencies are not re-registered. Sound because terminal
          states are final (Figure 4). Disable to measure the raw
          algorithm (ablation experiment). *)
}

val default_config : config
(** Algorithm 2, immediate denies, colocated AID processes,
    terminal-state caching on. *)

val install : Hope_proc.Scheduler.t -> ?config:config -> unit -> t
(** Install the HOPE hooks into the scheduler. Call once, before spawning
    processes that use HOPE instructions. *)

val scheduler : t -> Hope_proc.Scheduler.t
val config : t -> config

(** {1 Governor actuators}

    A speculation governor ([Hope_gov]) reacts to observability signals
    by steering the runtime through this record. The runtime never calls
    a policy itself: with no governor installed every actuator site is a
    single [None] field test, so the ungoverned hot path stays
    allocation-free and byte-identical (trace-deterministic) to a build
    without the surface. *)

type governor = {
  gate_guess : Proc_id.t -> Aid.t -> bool;
      (** consulted on every explicit [guess]; [false] makes the guess
          return [false] immediately (the program's pessimistic branch)
          with no interval or AID registration *)
  cut_replace : target:Interval_id.t -> sender:Aid.t -> candidate:Aid.t -> bool;
      (** consulted on every Replace replacement candidate; [true]
          discards the candidate as a cycle cut (Figure 15's resolution,
          driven by churn evidence instead of the static UDO walk) *)
  send_delay : Proc_id.t -> depth:int -> float;
      (** extra virtual-time cost for a user send while the sender holds
          [depth] live speculative intervals — back-pressure that bounds
          checkpoint memory without ever parking the sender *)
  note_denial : Proc_id.t -> Aid.t -> unit;
      (** feedback: [pid] is rolling back because [aid] was denied *)
}

val set_governor : t -> governor -> unit
(** Install (or replace) the governor. *)

val clear_governor : t -> unit
val governed : t -> bool

(** {1 Per-AID escalation (DESIGN.md §10)}

    The governor's stronger actuator: instead of gating guesses on a hot
    AID (which forces the pessimistic branch and loses all concurrency),
    escalation flips the AID to queued, abortable acquisition — explicit
    guesses on it park in the AID's FIFO queue and resume [true] holding
    the AID exclusively (a definite Grant: no speculative interval, no
    Replace traffic) or [false] on abort/timeout. De-escalation flips it
    back, aborting queued waiters. With nothing escalated the guess path
    tests one bit and is byte-identical to the pre-escalation runtime. *)

val escalate_aid : t -> Aid.t -> unit
(** Switch the AID to pessimistic queued acquisition. Idempotent.
    Counted in [hope.escalations]; the live count is the
    [hope.aids_escalated] gauge. @raise Not_found for an unknown AID. *)

val deescalate_aid : t -> Aid.t -> unit
(** Switch the AID back to optimistic operation, aborting its queued
    waiters (the current grant holder, if any, finishes normally).
    Idempotent. Counted in [hope.deescalations]. *)

val set_acquire_bound : t -> float -> unit
(** Virtual-time bound on a queued acquire wait (default 50 ms): past
    it the waiter withdraws its ticket and takes the pessimistic
    branch. @raise Invalid_argument unless positive. *)

(** {1 Introspection} *)

val history_of : t -> Proc_id.t -> History.t
(** @raise Not_found for an unknown process. *)

val histories : t -> History.t list
(** Every process's history, by ascending pid: the record of every
    interval the run opened and its fate, which [Explain] and
    [Invariant] read in place. *)

val aid_machine : t -> Aid.t -> Aid_machine.t
(** @raise Not_found for an unknown AID. *)

val aid_state : t -> Aid.t -> Aid_machine.state
val all_aids : t -> Aid.t list
val live_intervals : t -> int
(** Total live speculative intervals across all processes. *)

val cycle_cuts : t -> int
(** Replace candidates discarded as cycle cuts so far — by Algorithm 2's
    UDO check or by a governor's [cut_replace] — counting every cut, also
    the repeated cuts of one interval, whose {!History.interval.cut} flag
    is set once. The value of the engine's [hope.cycle_cuts] counter. *)

(** {1 AID garbage collection (§5.2)} *)

type gc_stats = { swept : int; retired : int; live : int }

val collect_garbage : t -> gc_stats
(** Retire every terminal AID that no live interval references: its DOM
    and A_IDO sets are freed, while its tombstone keeps answering late
    Guess messages (AID processes never terminate — §5.2). Safe to call at
    any time; typically invoked between workload phases or periodically by
    a driver. *)

val fresh_aid : t -> ?node:int -> unit -> Aid.t
(** Create an AID process from outside any user program (drivers/tests).
    [node] defaults to 0. *)
