(** Analytics passes over a captured event stream.

    Everything the paper's evaluation wants to know about a run but the
    counters cannot answer: how deep rollback cascades went, how much
    virtual time was thrown away, which AIDs churned, and what the deepest
    speculation chain looked like. All passes are pure functions of the
    event list, so they are as deterministic as the capture itself.

    Interval fates, committed and wasted virtual time, cascade counts and
    the shard commit and wasted-event totals come from replaying the
    stream through {!Monitor.observe}, the fold the live monitor runs;
    the passes here add only what needs the whole stream. *)

open Hope_types

type critical_path = {
  path : Interval_id.t list;  (** root first, deepest leaf last *)
  path_depth : int;
  path_duration : float;
      (** open of the root to close of the leaf (or run end) *)
  explicit_opens : int;  (** spans on the path opened by [guess] *)
  implicit_opens : int;  (** spans opened by tagged receives / spawns *)
}

type shard_stats = {
  shard_commits : int;  (** [Shard_commit] events (merged commit records) *)
  shard_stragglers : int;  (** primary (non-secondary) straggler rollbacks *)
  shard_cascade_rollbacks : int;
      (** secondary rollbacks (anti-message induced, root inherited) *)
  shard_wasted_events : int;  (** executed events undone across all rollbacks *)
  shard_gvt : float;  (** last GVT observed; [nan] if GVT never advanced *)
  shard_gvt_rounds : int;  (** [Gvt_advance] events *)
  shard_compactions : int;  (** [Mailbox_compact] events *)
  shard_attribution : ((int * int * float) * int) list;
      (** wasted events per root straggler, keyed
          [(root_shard, root_mid, root_send_ts)] and sorted by
          (shard, mid); the counts sum to [shard_wasted_events] *)
}
(** Parallel-engine pass: derived from the four shard event
    constructors, [None] on runs that never emitted one. *)

type t = {
  end_time : float;  (** virtual time of the last event *)
  events : int;
  intervals_opened : int;
  finalized : int;
  rolled_back : int;
  still_open : int;
  committed_time : float;  (** total virtual time inside finalized spans *)
  wasted_time : float;  (** total virtual time inside discarded spans *)
  wasted_ratio : float;
      (** wasted ÷ (committed + wasted + still-open); 0 when no spans *)
  cascades : int;  (** rollback-cascade events *)
  max_cascade : int;  (** largest number of intervals discarded at once *)
  cascade_hist : (int * int) list;
      (** cascade size -> occurrences, ascending by size *)
  max_depth : int;  (** deepest interval nesting observed *)
  aid_churn : (Aid.t * int) list;
      (** state transitions per AID, sorted by AID; an AID that resolves
          in one move has churn 1, revocation ping-pong shows up as more *)
  critical_path : critical_path option;
  shard : shard_stats option;
      (** [Some] iff the stream contains shard events (parallel engine) *)
}

val analyse : Event.t list -> t
(** Run every pass. Events must be in emission order. *)

val of_recorder : Recorder.t -> t

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable report (used by the [summary] exporter). *)
