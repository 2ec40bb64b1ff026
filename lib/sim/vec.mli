(** Growable arrays (OCaml 5.1 lacks [Dynarray]).

    Used for per-process arrival logs, which grow monotonically and are
    scanned in order. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** Replace the element at an existing index.
    @raise Invalid_argument when out of bounds. *)

val truncate : 'a t -> keep:int -> dummy:'a -> unit
(** Shrink to the first [keep] elements, scrubbing the abandoned slots
    with [dummy] so their previous contents are not retained. Used by
    in-place compaction: shift the survivors down with {!set}, then
    truncate. *)

val iter : ('a -> unit) -> 'a t -> unit

val find_index_from : 'a t -> int -> ('a -> bool) -> int option
(** [find_index_from v i p] is the first index [>= i] whose element
    satisfies [p]. *)

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val clear : 'a t -> unit
