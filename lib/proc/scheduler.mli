(** The process scheduler: runs {!Program} processes over the simulated
    network, and provides the checkpoint/rollback facility the HOPE
    algorithm requires.

    The scheduler executes each process's instruction stream inline until
    the process parks — on a {!Program.Recv} with no matching message, on a
    {!Program.Compute}, or on termination. HOPE instructions are delegated
    to a pluggable {!hooks} record installed by the HOPE runtime
    ([Hope_core.Runtime]); without hooks the substrate is an ordinary
    message-passing system and HOPE instructions raise.

    {b Checkpoints.} Executing [guess] captures the boolean continuation;
    consuming a message with a non-empty tag captures the receive itself.
    Rollback (driven by the runtime when an AID process sends a Rollback
    message) restores the checkpoint of the target interval: messages
    consumed by rolled-back intervals become available again, the trigger
    message of a denied receive-interval is dropped (its data was predicated
    on a now-false assumption; the rolled-back sender re-sends if
    appropriate), and the process resumes — from [guess] with [false], or
    from the receive.

    {b Storage.} Speculative state is incremental, not eager. Each
    process keeps a pooled undo {!Journal} segmented by interval: a
    consumption claim or a speculative send appends one record to the
    newest segment, rollback walks only the suffix being undone, and
    finalize ({!release_interval}) drops the oldest segment whole —
    checkpoints are garbage-collected exactly when the finalize rule
    makes them unreachable. Arrivals that are dropped or definitively
    consumed are referenced by no live segment and are evicted from the
    mailbox by order-preserving epoch compaction (count-triggered, so
    deterministic), bounding resident mailbox size by open speculation
    rather than by messages ever received. The gauges [hope.ckpt_live],
    [hope.arrivals_resident], and [hope.journal_depth] export the three
    totals live.

    {b Wait-freedom.} Only [Recv] may park a process. The scheduler counts
    every park in the [sched.parks] metric and every HOPE instruction in
    [hope.primitive_execs]; the invariant "HOPE primitives never park" is
    checked by tests via {!primitive_parks}, which is structurally always
    zero.

    {b Pessimistic acquisition} (DESIGN.md §10). A [guess] on an AID the
    runtime has escalated is routed by {!guess_decision.Acquire} into the
    AID's FIFO acquisition queue: the process parks on a fresh {e ticket}
    (a negative-sequence interval id — no speculative interval, no
    checkpoint), and resumes with [true] on a Grant (holding the AID
    until {!Program.release} or termination — a rollback keeps the grant,
    so the retry runs inside its exclusive window) or [false] on an
    Abort or on the virtual-time timeout that withdraws the ticket —
    every acquire completes, so the park is bounded, counted in
    [hope.acquire_waits] / [hope.acquire_timeouts] rather than in
    [primitive_parks]. *)

open Hope_types

type t

exception Process_failure of { pid : Proc_id.t; name : string; exn : exn }
(** An instruction of the named process raised. *)

exception Fuel_exhausted of { pid : Proc_id.t; name : string }
(** The process executed more zero-cost instructions in one activation
    than the configured fuel allows — a non-terminating pure loop. *)

(** Per-instruction virtual-time costs (seconds). Zero costs execute
    inline; positive costs advance the process's virtual time. *)
type config = {
  send_cost : float;  (** library + kernel cost to issue a send *)
  recv_cost : float;  (** cost to consume a delivered message *)
  primitive_cost : float;  (** local bookkeeping cost of a HOPE primitive *)
  rollback_cost : float;  (** cost to restore a checkpoint *)
  spawn_cost : float;  (** delay before a spawned process first runs *)
  fuel : int;  (** max zero-cost instructions per activation, to catch
                   non-terminating pure loops deterministically *)
}

val free_config : config
(** All costs zero — pure algorithm studies. *)

val epoch_1995_config : config
(** Costs calibrated to the prototype's era (§4: PVM on UNIX
    workstations): send 50 µs, recv 30 µs, primitive 20 µs, checkpoint
    restore 1 ms, spawn 2 ms. *)

(** Why an interval is being rolled back — it determines how the
    checkpoint resumes and which messages are dropped. *)
type rollback_cause =
  | Assumption_denied of Aid.t
      (** the AID's denial: a guess on exactly this AID resumes [false];
          trigger messages tagged with it are dropped *)
  | Assumption_revoked
      (** the interval's dependency rewiring went through a revoked
          speculative affirm: nothing is known false — the interval simply
          re-executes (a guess re-guesses, a receive re-consumes) *)
  | Message_cancelled of int
      (** the consumed message was retracted by its rolled-back sender:
          the message is dropped, and the interval re-executes (a guess
          re-guesses — its assumption was never judged) *)

(** The runtime's verdict on a message about to be consumed. *)
type implicit_decision =
  | Accept of Interval_id.t option
      (** deliver; [Some iid] is the implicit-guess interval begun for a
          tagged message, [None] means no new interval *)
  | Reject
      (** the message is known-dead (a tag AID already denied): drop it
          without delivering *)

(** The runtime's ruling on an explicit [guess]. *)
type guess_decision =
  | Speculate of Interval_id.t
      (** an interval was begun; the guess returns [true] and the id's
          checkpoint captures the boolean continuation *)
  | Pessimistic
      (** an installed governor throttled the assumption: the guess
          returns [false] immediately — the program takes its safe
          (pessimistic) branch with no interval, checkpoint, or AID
          round trip. Counted in [hope.guesses_gated]. *)
  | Acquire of { bound : float }
      (** the AID is escalated to queued acquisition: park the process
          on a fresh ticket in the AID's FIFO queue, bounded by [bound]
          virtual seconds. Counted in [hope.acquire_waits]. *)

type hooks = {
  h_tags : Proc_id.t -> Aid.Set.t;
      (** dependency tag for an outgoing user message *)
  h_current : Proc_id.t -> Interval_id.t option;
      (** the process's newest live speculative interval *)
  h_aid_init : Proc_id.t -> Aid.t;
  h_guess : Proc_id.t -> Aid.t -> guess_decision;
      (** begin an explicit-guess interval (or refuse to) *)
  h_send_delay : Proc_id.t -> float;
      (** extra virtual-time cost charged to a user-level [Send] — the
          governor's back-pressure actuator. Must return [0.0] when no
          governor is installed (the scheduler then keeps the original
          cost expression, allocation-free). A positive delay is counted
          in [hope.send_stalls]. *)
  h_implicit : Proc_id.t -> Envelope.t -> implicit_decision;
      (** called when a user message is about to be consumed *)
  h_affirm : Proc_id.t -> Aid.t -> unit;
  h_deny : Proc_id.t -> Aid.t -> unit;
  h_free_of : Proc_id.t -> Aid.t -> unit;
  h_control : self:Proc_id.t -> src:Proc_id.t -> Wire.t -> unit;
      (** a control envelope arrived for a user process *)
  h_cancelled : self:Proc_id.t -> iid:Interval_id.t -> msg_id:int -> unit;
      (** the message [msg_id], consumed by live interval [iid], was
          retracted by its rolled-back sender: the runtime must roll
          [iid] (and its successors) back with [Message_cancelled] *)
  h_spawned : Proc_id.t -> unit;
  h_spawn_child : parent:Proc_id.t -> child:Proc_id.t -> Interval_id.t option;
      (** called after a [Spawn] instruction: a speculative parent's
          dependencies flow to the child (spawning is causally a message);
          returning an interval id makes the child's whole body its
          checkpoint *)
  h_terminated : Proc_id.t -> unit;
}

val create :
  engine:Hope_sim.Engine.t ->
  ?default_latency:Hope_net.Latency.t ->
  ?fifo:bool ->
  ?config:config ->
  unit ->
  t
(** Message ids are numbered 0, 1, 2, ... in transmission order. *)

val engine : t -> Hope_sim.Engine.t
val network : t -> Envelope.t Hope_net.Network.t
val config : t -> config
val set_hooks : t -> hooks -> unit

(** {1 Spawning} *)

val spawn : t -> ?node:int -> name:string -> unit Program.t -> Proc_id.t
(** Create a user process; it first runs after [spawn_cost]. *)

val spawn_actor :
  t ->
  ?node:int ->
  name:string ->
  (self:Proc_id.t -> src:Proc_id.t -> Envelope.t -> unit) ->
  Proc_id.t
(** Create a native actor (used for AID processes): every delivered
    envelope is handed to the callback at arrival time. *)

(** {1 Messaging from outside programs} *)

val send_wire : t -> src:Proc_id.t -> dst:Proc_id.t -> Wire.t -> unit
(** Send a control message (used by the HOPE runtime and AID actors). *)

val send_user : t -> src:Proc_id.t -> dst:Proc_id.t -> tags:Aid.Set.t -> Value.t -> unit
(** Inject a user message (used by tests and drivers). *)

(** {1 Introspection} *)

type status =
  | Running  (** runnable or computing *)
  | Blocked  (** parked on a receive or queued on an escalated AID *)
  | Terminated

val status : t -> Proc_id.t -> status
val all_terminated : t -> bool
(** All user processes (not actors) have terminated. *)

val completion_time : t -> Proc_id.t -> float option
(** Virtual time at which the process most recently terminated. *)

val primitive_parks : t -> int
(** Number of times a HOPE primitive parked its process — the wait-free
    invariant requires this to be zero, always. *)

val arrivals_resident : t -> Proc_id.t -> int
(** Arrivals currently resident in the process's mailbox (live plus
    not-yet-compacted reclaimable ones). With compaction this is bounded
    by open speculation, not by messages ever received. *)

val open_checkpoints : t -> Proc_id.t -> int
(** Live checkpoints — equivalently, open journal segments — of the
    process. *)

val journal_entries : t -> Proc_id.t -> int
(** Undo records currently journalled for the process's live
    intervals. *)

(** {1 Pessimistic acquisition (called by the HOPE runtime)} *)

val resolve_acquire :
  t -> Proc_id.t -> src:Proc_id.t -> ticket:Interval_id.t -> granted:bool -> unit
(** A Grant ([granted = true]) or Abort arrived from AID process [src]
    for [ticket]. If the process is still parked on that exact ticket it
    resumes — [true] holding the grant, [false] on the pessimistic
    branch. Otherwise the message is stale (the timeout withdrew the
    ticket, or the process rolled back, while the reply was in flight):
    a stale Grant is declined with a Release back to [src] so the AID
    frees for its next waiter; a stale Abort needs no answer. *)

(** {1 Checkpoint/rollback facility (called by the HOPE runtime)} *)

val rollback :
  t ->
  Proc_id.t ->
  target:Interval_id.t ->
  rolled:Interval_id.t list ->
  cause:rollback_cause ->
  unit
(** Roll the process back to the checkpoint of [target]. [rolled] must
    list every live interval from [target] (inclusive) to the end of the
    history; their message consumptions are undone and their outgoing
    user messages are retracted with {!Envelope.Cancel} (the re-execution
    may re-send them) by replaying the journal suffix those intervals
    own — cost proportional to the work undone. How the checkpoint
    resumes and whether the trigger message is dropped follow [cause] —
    see {!rollback_cause}. A terminated process is revived. *)

val release_interval : t -> Proc_id.t -> Interval_id.t -> unit
(** Release a finalized interval's storage in one stroke: its checkpoint,
    its send records (its messages are definite and can no longer be
    retracted), and its consumption claims (the consumed arrivals become
    definite and thus reclaimable by mailbox compaction). The interval
    must be the process's oldest live one — finalize proceeds from the
    front of the history — and the call is a no-op when the interval
    holds no storage. *)

(** {1 Running} *)

val run : ?until:float -> ?max_events:int -> t -> Hope_sim.Engine.stop_reason
(** Drive the engine. *)
