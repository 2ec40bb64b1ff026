(** Per-process execution histories of speculative intervals.

    "User process execution is recorded as an execution history of process
    states composed of intervals" (§5). The history holds the {e live}
    (still-speculative) intervals, oldest first; finalized intervals leave
    from the front, rollbacks truncate a suffix. It also keeps every
    interval it ever pushed, with the {!fate} the interval met as it left
    the live window: this is the run's one per-interval record, which
    [Explain] reports and [Invariant] checks Theorem 5.1 against. Each
    interval carries the paper's dependency sets:

    - IDO ("I Depend On"): the AIDs the interval depends on;
    - UDO ("Used to Depend On"): AIDs once in IDO, kept by Algorithm 2 to
      cut dependency cycles (Figure 15);
    - IHA ("I Have Affirmed"): AIDs this interval speculatively affirmed;
    - IHD ("I Have Denied"): denies buffered until the interval is
      definite (footnote 1).

    A new interval's IDO is seeded with the process's whole cumulative
    dependency set, and the runtime registers the interval with every AID
    in it — this is what lets each interval finalize independently once
    {e its} assumptions resolve, and is the source of the quadratic message
    cost the paper concedes in §6 (experiment E3). *)

open Hope_types

type kind = Explicit | Implicit
(** [Explicit]: begun by a [guess] primitive (rollback re-enters the
    boolean continuation with [false]). [Implicit]: begun by consuming a
    tagged message (rollback re-executes the receive). *)

type fate =
  | Live  (** still in the live window *)
  | Finalized  (** left from the front: it became definite *)
  | Rolled_back  (** left in a truncated suffix *)

type interval = {
  iid : Interval_id.t;
  kind : kind;
  started_at : float;  (** virtual time of interval start *)
  ido0 : Aid.Set.t;  (** the IDO it was pushed with *)
  mutable ido : Aid.Set.t;
  mutable udo : Aid.Set.t;
  mutable iha : Aid.Set.t;
  mutable ihd : Aid.Set.t;
  mutable cut : bool;
      (** some Replace candidate was discarded as a cycle cut while the
          interval was live; set by [Control.handle_replace] *)
  mutable fate : fate;
      (** [Live] until the interval leaves the window, then written once,
          by {!drop_oldest_finalized} or {!truncate_from} *)
}

type t

val create : Proc_id.t -> t
val owner : t -> Proc_id.t

val push : t -> kind:kind -> ido:Aid.Set.t -> now:float -> interval
(** Begin a new live interval with a fresh sequence number. *)

val intervals : t -> interval list
(** Every interval ever pushed, oldest (lowest sequence number) first,
    live or not. Allocates a fresh list. *)

val live : t -> interval list
(** Live intervals, oldest first. Allocates a fresh list; prefer
    {!iter_live} on hot paths. *)

val iter_live : (interval -> unit) -> t -> unit
(** Apply to each live interval, oldest first, without allocating. *)

val depth : t -> int
(** Number of live intervals (current speculation depth). O(1). *)

val current : t -> interval option
(** The newest live interval. O(1). *)

val top_exn : t -> interval
(** [current] without the option box, for hot paths that have already
    checked [depth t > 0]. O(1). @raise Not_found when empty. *)

val oldest : t -> interval option
(** The oldest live interval. O(1). *)

val find : t -> Interval_id.t -> interval option
(** O(log depth): live intervals are ordered by sequence number. *)

val cumulative_ido : t -> Aid.Set.t
(** Union of live IDO sets: the process's current dependency set — the tag
    for outgoing messages (§3). Served from an incrementally maintained
    cache whose slots are stamped with the sets they folded in: O(depth)
    physical-equality tests when nothing changed (no allocation, no
    union), one union per [push], a lazy refold after rollback or direct
    IDO mutation. *)

val cumulative_udo : t -> Aid.Set.t
(** Union of live UDO sets, cached like {!cumulative_ido}. *)

val depends_on : t -> Aid.t -> bool
(** Does the process currently or formerly depend on the AID? (Used by
    [free_of], which must answer from local knowledge to stay wait-free.) *)

val first_depending : t -> Aid.t -> interval option
(** The oldest live interval whose IDO contains the AID — the rollback
    target for a denial (§5). Allocation-free scan. *)

val truncate_from : t -> Interval_id.t -> interval list
(** Remove the target interval and everything after it, marking each
    [Rolled_back]; returns the removed suffix oldest-first. Empty when the
    target is not live. *)

val drop_oldest_finalized : t -> interval option
(** If the oldest live interval's IDO is empty, remove it, mark it
    [Finalized] and return it (the finalize cascade step); [None]
    otherwise. *)

val finalized_count : t -> int
(** Intervals whose fate is [Finalized]. *)

val rolled_back_count : t -> int
(** Intervals whose fate is [Rolled_back]. *)

val pp : Format.formatter -> t -> unit
