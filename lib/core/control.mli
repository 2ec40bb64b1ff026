(** The Control state machine: processing of Replace and Rollback messages
    in user processes (Figure 10 = Algorithm 1; Figure 15 = Algorithm 2
    with UDO cycle detection).

    Control is the HOPElib function that intercepts messages from AID
    processes and applies them to the process's interval history,
    "completely transparent to the programmer" (§5.2). It is pure with
    respect to I/O: it mutates the {!History.t} and returns a list of
    {!action}s for the runtime to interpret (messages to send, checkpoints
    to restore or discard). *)

open Hope_types

type algorithm =
  | Algorithm_1  (** Figure 10: no cycle detection. Livelocks on cyclic
                     dependency graphs (§5.3) — kept for experiment E4. *)
  | Algorithm_2  (** Figure 15: UDO-based cycle detection (Theorem 5.3). *)

(** Why an interval is discarded. *)
type rollback_reason =
  | Denial of Aid.t  (** an assumption it depended on was denied *)
  | Revocation
      (** its dependency rewiring went through a speculative affirm that
          was revoked: the interval re-executes to acquire a clean
          dependency state (nothing it computed is known wrong) *)

type action =
  | Send_guess of { aid : Aid.t; iid : Interval_id.t }
      (** Register interval [iid] with [aid]'s AID process: the DOM
          addition half of Replace processing (Lemma 5.3). *)
  | Finalized of History.interval
      (** The interval became definite: the runtime discards its
          checkpoint and sends the unconditional Affirms (IHA) and
          buffered Denies (IHD) of Figure 11's [finalize]. *)
  | Rolled_back of {
      target : History.interval;
      rolled : History.interval list;
      reason : rollback_reason;
    }
      (** The target interval and its successors were discarded: the
          runtime revokes every speculative affirm of every rolled
          interval (Figure 11's [rollback]), drops their buffered denies,
          and restores the target's checkpoint. *)

val handle_replace :
  ?emit:(Hope_obs.Event.payload -> unit) ->
  ?cut:(target:Interval_id.t -> sender:Aid.t -> candidate:Aid.t -> bool) ->
  algorithm ->
  History.t ->
  target:Interval_id.t ->
  sender:Aid.t ->
  ido:Aid.Set.t ->
  on_cycle_cut:(Interval_id.t -> Aid.t -> unit) ->
  action list
(** Apply a [<Replace, target, ido>] from AID [sender]. Stale messages
    (the target interval is no longer live, or the sender is not among its
    dependencies) are ignored. The replacement set is walked once, in
    ascending AID order, and every candidate the walk discards is reported
    as it is discarded: [on_cycle_cut target aid], so cuts arrive in
    ascending order, after the interval's {!History.interval.cut} flag is
    set. [target] is passed back so the caller can use one long-lived
    callback instead of closing over the interval per message. Under Algorithm 2 a candidate
    in the interval's UDO is cut. [cut], when given, is consulted for
    every candidate the UDO check let through (under either algorithm),
    in the same ascending order: returning [true] discards the candidate
    through the same [on_cycle_cut] path — this is the governor's dynamic
    cycle-cut actuator, which rules on observed Replace-orbit churn
    instead of the static walk-through set. The remaining candidates the
    interval does not yet depend on join its IDO in one union after the
    walk, and one {!Send_guess} per such AID leads the returned actions,
    in ascending order. [emit],
    when given, observes the dependency resolution as a
    {!Hope_obs.Event.Dep_resolved} whose [remaining] counts the IDO
    entries left after removing [sender] (before any replacement AIDs are
    added); omit it to skip building the payload at all — this is the
    Replace hot path. *)

val handle_rebind :
  History.t -> target:Interval_id.t -> sender:Aid.t -> action list
(** Apply a [<Rebind, target>] from AID [sender]: the speculative affirm
    that replaced [sender] in the interval's IDO has been revoked, so the
    rewired dependency state is void — the interval rolls back with
    {!Revocation} and re-acquires its dependencies by re-executing.
    Ignored when the interval never rewired through [sender]. *)

val handle_rollback :
  History.t -> target:Interval_id.t -> denied:Aid.t -> action list
(** Apply a [<Rollback, target>] sent by the (denied) AID [denied].
    Ignored when the target is not live (Figure 10's "if target in
    history" guard — the duplicate-rollback case). When an earlier live
    interval also depends on [denied], the rollback is taken there
    directly: the denying AID addresses every interval in its DOM, and
    with dependency inheritance the earliest dependent subsumes the
    rest. *)
