(** Fixed-capacity time-series sampling.

    A {!t} owns a set of named series, each a ring buffer of
    [(virtual-time, value)] points backed by two unboxed float arrays
    allocated once at creation. Values come from registered {e sources} —
    thunks read at every {!sample} call — so the sampler itself knows
    nothing about where the numbers come from ([Sim.Metrics] instruments,
    {!Monitor} gauges, engine statistics; the glue lives in
    [Hope_sim.Telemetry], keeping this module below the simulator).

    Sampling is driven externally (the engine's virtual-time sampler
    hook) at a fixed {!stride}; a full ring overwrites its oldest points,
    bounding memory for arbitrarily long runs. All reads return points
    oldest-first. *)

type t
type series

val create : ?capacity:int -> stride:float -> unit -> t
(** [capacity] (default 1024) points retained per series; [stride] is the
    intended virtual-time spacing between samples, recorded here so
    consumers (exporters, the engine glue) agree on it.
    @raise Invalid_argument if [capacity < 1] or [stride <= 0]. *)

val stride : t -> float

val capacity : t -> int

(** {1 Sources} *)

val add_source : t -> string -> (unit -> float) -> unit
(** Register a fixed-name source, read once per {!sample}. Registering
    the same name twice replaces the thunk, not the series, and moves the
    source to the end of the reading order. *)

val sample : t -> time:float -> unit
(** Read every source, in registration order, and append one point per
    series at [time]. *)

val samples : t -> int
(** Number of {!sample} calls so far. *)

(** {1 Reading} *)

val series : t -> ?labels:(string * string) list -> string -> series
(** Find or create the series [name] with label set [labels] (default
    none; creating allocates its rings). Series are keyed by name {e
    plus} labels, so [hope_shard_lvt] exists once per [shard="N"]. *)

val find : t -> string -> series option
(** Find the unlabeled series [name], if any. *)

val all : t -> (string * series) list
(** All series, sorted by name then label set. *)

val name : series -> string

val labels : series -> (string * string) list
(** The label set, sorted by key; [[]] for plain series. *)

val length : series -> int
(** Points currently retained (≤ capacity). *)

val total : series -> int
(** Points ever recorded, including overwritten ones. *)

val nth : series -> int -> float * float
(** [nth s i] is the [i]-th retained point oldest-first, as
    [(time, value)]. @raise Invalid_argument if [i] is out of range. *)

val to_list : series -> (float * float) list
(** Retained points, oldest first. *)

val record : series -> time:float -> float -> unit
(** Append one point directly (used by tests and ad-hoc gauges; normal
    data arrives via {!sample}). *)
