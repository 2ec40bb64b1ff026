(** Dependency sets: the shared representation behind [Aid.Set] and
    [Interval_id.Set].

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
    - {b canonical layout}: the layout is a pure function of the element
      set, so [equal] compares layouts, O(words), with no table behind
      it; sets are immutable values, so a cache can stamp a slot with the
      set itself and test it with [==] (see [History.cumulative_ido]);
    - {b word-level edits}: adding or removing one element of a bitset
      copies its word array once and flips one bit — Replace handling
      (Figure 15) edits IDO and UDO sets one AID at a time;
    - {b allocation-free queries}: [mem], [disjoint] and [subset] walk
      arrays or words without allocating, and [count_fold_diff] allocates
      only its result; Replace handling (Figure 15) counts its cycle cuts
      and finds its fresh candidates in its one pass, by the word.

    The module holds no mutable state, so runtimes on different domains
    can use it at once.

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
  (** [t] itself when already a member. On the array layout, a [union]
      with the singleton: O(n). On the bitset
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
  (** A bitset joined with an array costs one widened copy of the
      bitset's words, as [add] does. *)

  val inter : t -> t -> t
  val diff : t -> t -> t

  val count_fold_diff :
    (elt -> 'acc -> 'acc) -> t -> t -> t -> 'acc -> int * 'acc
  (** [count_fold_diff f a b c acc] is
      [(cardinal (inter a b), fold f (diff a (union b c)) acc)], computed in
      one pass over [a] without building either set: it allocates nothing
      beyond what [f] does and the result pair. [f] sees its members in
      ascending order. On the bitset layout each word of [a] is masked by
      the matching words of [b] and [c] (an array's word is gathered by
      one binary search), and [f] sees only the bits that survive. The
      members in [b] are counted by what [a] misses: [b]'s members within
      [a]'s words, less a word-at-a-time (SWAR) popcount of each word of
      [b] holding members the matching word of [a] lacks, so where [a]
      holds [b] whole no popcount is paid. O(span(a) / 63) words, plus a
      popcount per word of a bitset [b] outside [a]'s span, plus one call
      per visited member. On the array layout, at most two membership
      tests per member of [a]. *)

  val disjoint : t -> t -> bool
  (** Allocation-free. *)

  val subset : t -> t -> bool
  (** [subset a b]: is [a] a subset of [b]? Allocation-free. *)

  val equal : t -> t -> bool
  (** Structural: compares the two canonical layouts, O(1) when the
      cardinals differ or the sets are physically equal, O(n) or
      O(span / 63) words otherwise. *)

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

  val pp : Format.formatter -> t -> unit
  (** Renders as [{e1,e2,...}] in ascending order. *)
end

module Make (E : ELT) : S with type elt = E.t

type stats = {
  unions_memoized : int;
  unions_computed : int;
}

val stats : unit -> stats
(** Always zero: unions are not memoized, so there is nothing to count.
    It stays only because the end-to-end bench suite (hope_bench) still
    reads it for its memo hit ratio, which now reads 0. *)
