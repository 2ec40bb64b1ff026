(** Prometheus / OpenMetrics text exposition.

    Renders a snapshot of instruments — final counter/gauge/summary
    values plus any {!Timeseries} trajectories — in the classic
    Prometheus text format (which [promtool check metrics] validates),
    with the OpenMetrics [# EOF] trailer appended as a comment.

    Layout is byte-deterministic: families sort by name, numbers use
    fixed formatting, and timestamps are integers derived from virtual
    time. Like the Chrome exporter's seconds→microseconds mapping,
    sampled points place {e virtual microseconds} in the millisecond
    timestamp slot, so a 1.5-virtual-second sample reads [1500000].

    Names are sanitized to the Prometheus charset (every character
    outside [[A-Za-z0-9_:]] becomes [_], e.g. [hope.rollbacks] →
    [hope_rollbacks]); counters gain the conventional [_total] suffix. A
    series whose name and labels collide with a counter or gauge
    instrument replaces that instrument's single sample with the
    timestamped trajectory (the final sampled point carries the closing
    value).

    Instruments and series carry an optional label set (e.g.
    [("shard", "3")]), letting one family hold the unlabeled aggregate
    plus per-shard variants under a single [# HELP]/[# TYPE] header.
    Label keys are sanitized and sorted; label sets within a family sort
    deterministically, unlabeled first, numeric values numerically. *)

type instrument =
  | Counter of { name : string; labels : (string * string) list; value : int }
  | Gauge of { name : string; labels : (string * string) list; value : float }
  | Summary of {
      name : string;
      labels : (string * string) list;
      count : int;
      sum : float;
      quantiles : (float * float) list;  (** [(q, value)], q in [0,1] *)
    }

val sanitize : string -> string
(** Map a metric name into the Prometheus charset. *)

val render_labels : (string * string) list -> string
(** [{k="v",...}] with escaped values, or [""] for the empty set. *)

val to_string :
  ?instruments:instrument list -> ?series:Timeseries.t -> unit -> string
