(** Per-key hysteresis throttle with exponential decay.

    Each integer key (in practice an {!Hope_types.Aid.index}) carries a
    pressure level. {!bump} adds pressure; between observations the
    level decays as [exp (-(dt) /. tau)] of virtual time. A key becomes
    {e throttled} when its level reaches the high watermark and returns
    to optimistic only when the decayed level falls to the low
    watermark — the hysteresis band makes oscillation impossible faster
    than the decay constant allows: once throttled, a key stays
    throttled for at least {!min_hold} = [tau *. log (high /. low)]
    virtual seconds (bumps only lengthen the hold; nothing shortens it).
    With no bumps at all, every key decays back below the low watermark
    — quiescent traffic always returns to fully optimistic.

    The machine is pure with respect to the clock: every query passes
    [~now], decay is applied lazily at observation time, and equal
    [(calls, now)] sequences give equal answers — the determinism the
    simulator's governor needs.

    Each key is listed when it trips, so {!throttled_count} visits the
    throttled keys only, never every key ever observed. *)

type t

val create : ?high:float -> ?low:float -> ?tau:float -> unit -> t
(** Defaults: [high = 1.0], [low = 0.25], [tau = 20e-3] (virtual
    seconds). @raise Invalid_argument unless [0 < low < high] and
    [tau > 0] (so a NaN parameter is rejected). *)

val high : t -> float
val low : t -> float
val tau : t -> float

val min_hold : t -> float
(** [tau *. log (high /. low)]: the minimum virtual time a key stays
    throttled once it trips — the anti-oscillation bound. *)

val bump : t -> now:float -> key:int -> float -> unit
(** Decay [key]'s level to [now], then add the given pressure. Reaching
    the high watermark trips the throttle.
    @raise Invalid_argument on a NaN or negative pressure. *)

val level : t -> now:float -> key:int -> float
(** The decayed pressure level ([0.] for an unseen key). *)

val throttled : t -> now:float -> key:int -> bool
(** Whether [key] is throttled at [now] (decays lazily, applying the
    hysteresis exit at the low watermark). *)

val throttled_count : t -> now:float -> int
(** Number of keys throttled at [now]: equal to the number of keys for
    which {!throttled} would answer [true]. Costs O(keys throttled at or
    since the last call): it refreshes those keys and unlists the released
    ones, and never touches a key that has not tripped, whatever
    {!tracked} is. *)

val tracked : t -> int
(** Keys ever observed. *)
