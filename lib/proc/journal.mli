(** Per-process undo journal for speculative effects.

    As a speculative interval executes, the scheduler appends typed undo
    records — message-consumption claims and outgoing user sends — to
    this journal. Records are grouped into {e segments}, one per
    interval, opened when the interval registers its checkpoint. The
    segment stack mirrors the runtime's [History] window exactly:

    - rollback truncates a {e suffix} of segments, replaying their undo
      records (in the spirit of Brown & Sabry's reversible processes:
      cost proportional to the work undone, not to process lifetime);
    - finalize releases the {e oldest} segment, which is the paper's
      finalize rule applied to storage — once no live interval can roll
      back past a checkpoint, the checkpoint and its undo records are
      unreachable and are dropped in O(segment).

    Storage is pooled (parallel columns over head/length windows, like
    [History]): pushing a record allocates nothing in steady state, and
    released claim slots are scrubbed so finalized arrivals are not
    retained through the pool.

    The structure is polymorphic in the claim payload ['a] (the
    scheduler's arrival record) and the checkpoint ['ck] so it stays
    independent of the scheduler's internals. *)

open Hope_types

type ('a, 'ck) t

val create : dummy:'a -> dummy_ck:'ck -> unit -> ('a, 'ck) t
(** [dummy]/[dummy_ck] are scrub values stored into released slots. *)

val entries : ('a, 'ck) t -> int
(** Live undo records across all open segments. *)

val segments : ('a, 'ck) t -> int
(** Open segments — equivalently, live checkpoints. *)

val mem : ('a, 'ck) t -> Interval_id.t -> bool

val open_segment : ('a, 'ck) t -> iid:Interval_id.t -> ck:'ck -> unit
(** Begin the segment of a freshly created interval. Must be called in
    interval-creation order: the segment stack mirrors the history. *)

val push_consume : ('a, 'ck) t -> 'a -> unit
(** Record a consumption claim by the newest open segment's interval.
    @raise Invalid_argument when no segment is open. *)

val push_send : ('a, 'ck) t -> msg_id:int -> dst:int -> unit
(** Record an outgoing user send by the newest open segment's interval.
    @raise Invalid_argument when no segment is open. *)

val rollback_to :
  ('a, 'ck) t ->
  Interval_id.t ->
  consume:('a -> unit) ->
  send:(msg_id:int -> dst:int -> unit) ->
  ('ck * int) option
(** Truncate every segment from the target's (inclusive) to the newest,
    replaying each dropped undo record through [consume]/[send] in
    chronological order (flips are order-insensitive and the Cancel wire
    order stays identical to the eager implementation's). Returns the
    target's checkpoint and the number of segments dropped, or [None]
    when the target has no open segment. *)

val release_oldest :
  ('a, 'ck) t -> Interval_id.t -> consume:('a -> unit) -> bool
(** Drop the oldest segment if it is the given interval's, feeding its
    consumption claims to [consume] (they become definite; send records
    are simply discarded — a finalized interval's messages can no longer
    be retracted). Returns [false] — a tolerated no-op — when the
    interval has no open segment. *)
