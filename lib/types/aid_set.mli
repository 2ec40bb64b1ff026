(** Hash-consed dependency sets: the shared representation behind
    [Aid.Set] and [Interval_id.Set].

    HOPE's cost model rides on dependency tagging: every speculative send
    unions the IDO sets of all live intervals, and every receive runs
    [disjoint]/[diff]/[mem] against the tag (§3, §5). With tree-based
    [Set.Make] sets those operations allocate O(n log n) per call and
    equality is O(n), so the paper's "wait-free primitives are cheap"
    claim (Table 1) degrades superlinearly with speculation depth. This
    module makes dependency sets first-class cheap values:

    - {b interned elements}: every element maps to a small integer index
      (for AIDs the index {e is} the AID process id, which the scheduler
      already allocates densely; interval ids pack owner and sequence
      number into one order-preserving integer);
    - {b hybrid layout}: a sorted integer array while small, a bitset over
      the index space once large (dense element domains only);
    - {b hash-consing}: structurally equal sets are physically equal, so
      [equal] is a pointer comparison and every set carries a stable
      {!S.id} usable as a cache stamp;
    - {b memoized union}: the per-send cumulative-tag fold hits a cache
      keyed by the operands' ids instead of rebuilding trees;
    - {b word-level edits}: adding or removing one element of a bitset
      copies its word array once and flips one bit — Replace handling
      (Figure 15) edits IDO and UDO sets one AID at a time;
    - {b allocation-free queries}: [mem], [disjoint], [subset],
      [inter_cardinal] and [fold_diff] walk arrays or words without
      allocating; Replace handling (Figure 15) counts its cycle cuts and
      finds its fresh candidates this way, by the word.

    Iteration order is ascending element order (the element's [compare]),
    exactly matching the [Set.Make] modules this replaces, so behaviour —
    including message emission order in the runtime — is unchanged. *)

module type ELT = sig
  type t

  val index : t -> int
  (** Injective, non-negative, and order-preserving: [index a < index b]
      iff [a] precedes [b] in the element order. This is the interning
      function; for AIDs it is the identity on the underlying process id. *)

  val of_index : int -> t
  (** Inverse of {!index}. *)

  val pp : Format.formatter -> t -> unit

  val dense : bool
  (** Whether indices are small and dense enough for the bitset layout.
      When false the sorted-array layout is used at every cardinality
      (interval ids pack owner/seq into sparse indices, so bitsets would
      be pathological there). *)
end

module type S = sig
  type elt
  type t

  val empty : t
  val is_empty : t -> bool
  val mem : elt -> t -> bool

  val add : elt -> t -> t
  (** [t] itself when already a member. On the array layout, a memoized
      [union] with the singleton: O(n) on a memo miss. On the bitset
      layout, one copy of the word array, widened when the element lies
      below the first or above the last word: O(span / 63) words, where
      the span runs from the least to the greatest member. *)

  val singleton : elt -> t

  val remove : elt -> t -> t
  (** [t] itself when absent. On the array layout, an O(n) [diff] with the
      singleton. On the bitset layout, one copy of the word array,
      O(span / 63), trimmed
      when the element was the only member of the first or last word; at
      33 elements the result is the 32-element array layout. *)

  val union : t -> t -> t
  (** Memoized on the operands' ids. A bitset joined with an array costs
      one widened copy of the bitset's words, as [add] does. *)

  val inter : t -> t -> t
  val diff : t -> t -> t

  val inter_cardinal : t -> t -> int
  (** [inter_cardinal a b] is [cardinal (inter a b)], computed without
      building the intersection: allocates nothing. Two bitsets cost one
      AND and one word-at-a-time (SWAR) popcount per word where their
      spans overlap; an array against either layout costs one membership
      test per array element (a binary search, or one bit test against a
      bitset). *)

  val fold_diff : (elt -> 'acc -> 'acc) -> t -> t -> t -> 'acc -> 'acc
  (** [fold_diff f a b c acc] folds [f] over the members of [a] that are in
      neither [b] nor [c], in ascending order, without building
      [diff a (union b c)]: it allocates nothing beyond what [f] does. On
      the bitset layout each word of [a] is masked by the matching words
      of [b] and [c] (an array's word is gathered by one binary search),
      and [f] sees only the bits that survive: O(span(a) / 63) words plus
      one call per visited member. On the array layout, two membership
      tests per member of [a]. *)

  val disjoint : t -> t -> bool
  (** Allocation-free. *)

  val subset : t -> t -> bool
  (** [subset a b]: is [a] a subset of [b]? Allocation-free. *)

  val equal : t -> t -> bool
  (** O(1) in practice: hash-consing makes structurally equal sets
      physically equal. *)

  val compare : t -> t -> int
  (** A total order (lexicographic on sorted elements). *)

  val cardinal : t -> int
  (** O(1). *)

  val elements : t -> elt list
  (** Ascending element order, as with [Set.Make]. *)

  val of_list : elt list -> t
  val fold : (elt -> 'acc -> 'acc) -> t -> 'acc -> 'acc
  (** Ascending order. O(n) on the array layout; O(span / 63 + n) on the
      bitset layout, whose words are walked by their set bits rather than
      by all 63 positions. [iter], [exists], [for_all] and [elements]
      walk the same way. *)

  val iter : (elt -> unit) -> t -> unit
  val exists : (elt -> bool) -> t -> bool
  val for_all : (elt -> bool) -> t -> bool
  val filter : (elt -> bool) -> t -> t
  val choose_opt : t -> elt option
  val min_elt_opt : t -> elt option

  val id : t -> int
  (** The hash-consing identity: stable for the set's lifetime, equal ids
      imply equal sets. Useful as an O(1) cache-validation stamp (see
      [History.cumulative_ido]). *)

  val hash : t -> int
  (** O(1): the precomputed structural hash. *)

  val pp : Format.formatter -> t -> unit
  (** Renders as [{e1,e2,...}] in ascending order. *)
end

module Make (E : ELT) : S with type elt = E.t

type stats = {
  unions_memoized : int;  (** union calls answered from the memo table *)
  unions_computed : int;  (** unions that had to build a new set *)
}

val stats : unit -> stats
(** Global (all instantiations) union-memoization counters, for the bench
    harness. *)
