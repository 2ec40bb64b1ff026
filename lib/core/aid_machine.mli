(** The AID process state machine (Figures 4–8 of the paper).

    An AID process models one optimistic assumption. Its truth value takes
    five states to reflect the partial knowledge optimism introduces (§5.2):

    - [Cold]: no primitives applied yet;
    - [Hot]: a Guess arrived, not yet affirmed;
    - [Maybe]: affirmed {e subject to} the AIDs in [A_IDO] also being
      affirmed (a speculative affirm);
    - [True_]: unconditionally affirmed (final);
    - [False_]: unconditionally denied (final).

    The machine is pure: {!handle} consumes one wire message and returns
    the replies to send. All mutation is confined to the record, all
    outgoing I/O to the interpretation of {!action}s by the runtime.

    {b Pessimistic overlay} (DESIGN.md §10). Orthogonally to the truth
    state, a machine operates in one of two {!mode}s. [Optimistic] is
    the protocol above. Under [Pessimistic] — entered via {!escalate}
    when the governor observes sustained contention — the machine also
    arbitrates {e access}: clients send [Acquire] tickets that join a
    FIFO queue, the head holds the AID exclusively via a definite
    [Grant] (no speculative interval, no Replace traffic), and every
    ticket completes as exactly one Grant or Abort. Queued waiters are
    abortable at any time (withdrawal by client [Abort], queue overflow,
    [Deny], or {!deescalate}) without blocking the rest of the queue,
    preserving wait-freedom. Guess/Affirm/Deny/Revoke continue through
    the truth machine in either mode, so speculation opened before an
    escalation still resolves. *)

open Hope_types

type state = Cold | Hot | Maybe | True_ | False_
type mode = Optimistic | Pessimistic

type dom
(** An append-only registry of interval ids: a Guess appends in
    amortised O(1), and the registry is sorted by {!Interval_id.compare}
    and de-duplicated only when it is broadcast. Read its size with
    {!dom_size}. *)

type t = {
  aid : Aid.t;
  mutable state : state;
  dom : dom;
      (** DOM — "Depends On Me": intervals contingent on this AID,
          notified in {!Interval_id.compare} order *)
  mutable a_ido : Aid.Set.t;
      (** A_IDO — "Affirm I-Depend-On": AIDs that predicate the affirm *)
  mutable affirmer : Interval_id.t option;
      (** the interval whose speculative affirm holds us in [Maybe]; its
          rollback revokes the affirm (Revoke returns us to [Hot]) *)
  strict : bool;
  mutable redundant : int;  (** redundant affirm/deny messages ignored *)
  mutable user_errors : int;  (** conflicting affirm/deny messages ignored *)
  mutable retired : bool;  (** tracking sets reclaimed (see {!retire}) *)
  on_transition : Aid.t -> state -> state -> unit;
      (** observer hook, called as [on_transition aid from to_] at every
          state change (including Maybe-to-Maybe re-affirms), where [aid]
          is the machine's own AID — so one shared callback can serve
          every machine without a closure per AID. Wired to the
          observability recorder by the runtime, identity by default *)
  mutable mode : mode;  (** operating mode (see the overlay note above) *)
  mutable holder : Interval_id.t option;
      (** the ticket currently granted exclusive access, if any *)
  waiters : Interval_id.t Queue.t;  (** FIFO acquisition queue *)
  mutable cancelled : Interval_id.Set.t;
      (** withdrawn tickets still in [waiters], skipped lazily at the head *)
  mutable queued : int;  (** live (non-cancelled) entries in [waiters] *)
  max_queue : int;  (** Acquires beyond this bound are aborted outright *)
  mutable granted : int;  (** Grant replies sent *)
  mutable aborted : int;  (** Abort replies sent *)
}

type action = Reply of { iid : Interval_id.t; wire : Wire.t }
(** Send [wire] to the process owning interval [iid]. *)

exception User_error of string
(** Raised in strict mode on a conflicting affirm-after-deny or
    deny-after-affirm (the paper's "abort: user error"). *)

val create :
  ?strict:bool ->
  ?on_transition:(Aid.t -> state -> state -> unit) ->
  ?max_queue:int ->
  Aid.t ->
  t
(** A fresh machine in state [Cold], mode [Optimistic]. With [strict]
    (default false) the machine raises {!User_error} where Figures 7–8
    say "abort"; otherwise it counts and ignores, which is what
    rollback-driven re-execution needs in practice (see DESIGN.md §3.2).
    [on_transition] observes every state change (default: no-op).
    [max_queue] (default 64) bounds the acquisition queue: an Acquire
    that would exceed it is aborted immediately, keeping queued waits
    finite even under unbounded demand. *)

val handle_into :
  t -> Wire.t -> reply:(Aid.t -> Interval_id.t -> Wire.t -> unit) -> unit
(** Process one message per Figures 5–8, plus the Revoke retraction of a
    rolled-back speculative affirm ([Maybe] returns to [Hot] — see
    {!Wire.t} and DESIGN.md §3.1). Each outgoing reply is delivered to
    [reply] (called as [reply aid iid wire]: send [wire] to the process
    owning interval [iid], from this machine's [aid]) in DOM order. The
    machine's AID is passed back so callers can reuse one long-lived
    callback for every machine — this is the runtime's per-message hot
    path, and it allocates no action list. Acquire/Abort/Release are
    served by the pessimistic overlay (Abort inbound means the waiter
    withdrew; no reply is sent for it). @raise User_error in strict
    mode as described above; @raise Invalid_argument if the message is a
    Replace, Rollback, Rebind, or Grant, which AID processes never
    receive. *)

val handle : t -> Wire.t -> action list
(** [handle_into] with the replies collected into a list, in emission
    order — the convenient form for tests and exploratory code. *)

val is_final : t -> bool
(** True in states [True_] and [False_]. *)

val dom_size : t -> int
(** Distinct intervals in DOM. *)

val retire : t -> unit
(** Reclaim the tracking sets of a terminal machine (the garbage
    collection §5.2 sketches: "reference counting can garbage collect old
    AID processes"). The machine keeps answering Guess messages from its
    terminal state — AID processes never terminate, because pending
    guesses may still arrive. @raise Invalid_argument unless terminal.
    The pessimistic overlay is untouched: a retired machine keeps
    serving Acquire/Release — the queue is live duty, not dead weight. *)

val escalate : t -> unit
(** Switch to [Pessimistic]: subsequent Acquires queue and grant.
    Idempotent; the truth state is unaffected. *)

val deescalate :
  t -> reply:(Aid.t -> Interval_id.t -> Wire.t -> unit) -> unit
(** Switch back to [Optimistic], aborting every queued waiter through
    [reply] (they re-enter via the optimistic guess path). The current
    holder keeps its definite grant; its eventual Release is still
    honoured. Idempotent. *)

val mode : t -> mode
val holder : t -> Interval_id.t option
val queue_length : t -> int
(** Live (non-cancelled) waiters currently queued. *)

val state_name : state -> string
val mode_name : mode -> string
val pp : Format.formatter -> t -> unit
