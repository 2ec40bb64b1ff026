(** Deterministic, splittable pseudo-random number generator.

    All randomness in the simulator flows through this module so that every
    run is reproducible from a single integer seed, and so that independent
    components (network links, workload generators) can draw from
    independent streams via {!split} without perturbing each other. The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), which is
    fast, has a 64-bit state, and splits cheaply. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives a new generator from [t]'s stream. The two streams
    are statistically independent; [t] advances by one draw. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p] (clamped to [0,1]). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw over [lo, hi). Requires [lo <= hi]. *)

val exponential : t -> mean:float -> float
(** Exponential draw with the given mean (inverse-CDF method). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal draw: [exp (mu + sigma * z)] with [z] standard normal. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian draw (Box–Muller). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
