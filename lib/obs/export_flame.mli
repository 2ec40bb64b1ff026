(** Collapsed-stack flamegraph export.

    Emits the classic Brendan-Gregg folded format — one
    [frame;frame;frame value] line per unique stack — consumed directly
    by speedscope and by inferno's [flamegraph.pl]-compatible tools.

    Each speculation interval becomes a frame; its stack is the interval's
    nesting chain (from {!Span.of_events}) rooted at a fate category and
    the owning process, so the graph splits committed from wasted virtual
    time at the first level:

    {v
    committed;p0;P0/1 1200
    wasted;p2;P2/1;P2/2 3400
    v}

    Values are the span's {e self} virtual time (duration minus enclosed
    children) in integer virtual nanoseconds; zero-self frames are
    omitted. Lines are merged by stack and sorted lexicographically, so
    output is byte-deterministic for a fixed event stream. *)

val to_string : Event.t list -> string
