(** Interval identifiers.

    "An interval is a subsequence of an execution history between two
    executions of the guess primitive, and constitutes the smallest
    granularity of rollback that may occur" (§5). An interval id names one
    interval of one process's history: the owning process plus a
    per-process sequence number. AID processes store interval ids in their
    DOM sets and address Replace/Rollback messages to the owning process. *)

type t = { owner : Proc_id.t; seq : int }
(** Interval [seq] of process [owner]. Sequence numbers increase along the
    history; a rolled-back interval's number is never reused, so stale
    messages addressed to dead intervals are recognisable. *)

val make : owner:Proc_id.t -> seq:int -> t
val owner : t -> Proc_id.t
val seq : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val index : t -> int
(** [t] packed into one int, order-preservingly: for sequence numbers
    from -1 (the definite interval) up, [Int.compare (index a) (index b)]
    is [compare a b]. *)

val of_index : int -> t
(** The inverse of {!index}. *)

module Set : Aid_set.S with type elt = t
(** Sets of interval ids (sorted-array layout, keyed by {!index}; see
    {!Aid_set}). Iteration order matches {!compare} (owner-major, then
    sequence number). *)

module Map : Map.S with type key = t
