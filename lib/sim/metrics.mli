(** Measurement instruments for simulation experiments.

    A {!registry} owns named counters, gauges, and histograms. Experiments
    create one registry per run; benches read the instruments out at the end
    to print table rows. Histograms are fixed-memory streaming instruments
    (count / sum / min / max plus percentile estimates over a bounded
    reservoir), which is plenty for the latency distributions we report. *)

type registry
(** A namespace of instruments. *)

val create_registry : unit -> registry

(** {1 Counters} *)

type counter

val counter : registry -> string -> counter
(** [counter reg name] finds or creates the counter [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : registry -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : registry -> string -> histogram
(** [histogram reg name] finds or creates the histogram [name]. *)

val observe : histogram -> float -> unit

val observe_int : histogram -> int -> unit
(** [observe_int h n] is [observe h (float_of_int n)] without boxing the
    intermediate float (hot-path variant for integer-valued series). *)

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_min : histogram -> float
(** Minimum observed value; [nan] when empty. *)

val hist_max : histogram -> float
(** Maximum observed value; [nan] when empty. *)

val hist_mean : histogram -> float
(** Arithmetic mean; [nan] when empty. *)

val hist_stddev : histogram -> float
(** Sample standard deviation; [nan] with fewer than two observations. *)

val hist_percentile : histogram -> float -> float
(** [hist_percentile h p] estimates the [p]-th percentile (p in [0,100])
    from the retained reservoir; [nan] when empty. *)

(** {1 Reading a registry} *)

val counters : registry -> (string * int) list
(** All counters, sorted by name. *)

val gauges : registry -> (string * float) list
(** All gauges, sorted by name. *)

val histograms : registry -> (string * histogram) list
(** All histograms, sorted by name. *)

val iter_counters : registry -> (string -> counter -> unit) -> unit
(** Visit every counter with its name, in unspecified order, without
    allocating. The telemetry sampler binds each counter to its series
    through this, and walks again only when {!instrument_count} moves. *)

val iter_gauges : registry -> (string -> gauge -> unit) -> unit
(** As {!iter_counters}, for gauges. *)

val instrument_count : registry -> int
(** Counters plus gauges. Instruments are never removed, so this only
    grows, and it changes exactly when an [iter_*] walk would visit a new
    instrument. *)

val find_counter : registry -> string -> int
(** Value of a counter, 0 if it was never created. *)
