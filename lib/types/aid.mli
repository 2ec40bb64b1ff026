(** Assumption identifiers (AIDs).

    The paper's single data type: "an AID is a reference to an optimistic
    assumption which enables the primitives to separately specify
    dependence, precedence, and confirmation of an assumption" (§3). In the
    prototype an AID is realised as the process identifier of the AID
    process that tracks it (§4); we keep that representation. *)

type t
(** An assumption identifier. *)

val of_proc : Proc_id.t -> t
(** The AID realised by the given AID process. *)

val to_proc : t -> Proc_id.t
(** The AID process tracking this assumption. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val index : t -> int
(** The interned dense integer identity of this AID (the underlying
    process id). Order-preserving with respect to {!compare}; the basis
    for the bitset layout of {!Set}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Aid_set.S with type elt = t
(** Hybrid sets of AIDs (see {!Aid_set}): a sorted array while small, a
    bitset beyond, with allocation-free membership and word-level edits —
    the representation of message tags and interval IDO/UDO sets.
    Iteration order matches the previous [Set.Make] instantiation
    exactly. *)

module Map : Map.S with type key = t
