(** Explicit per-shard execution context.

    Bundles the formerly implicit single-instance state of a run — the
    engine (virtual clock, pooled event spine, telemetry sampler hook)
    and the deterministic RNG stream — into a value, so a sharded
    executor can instantiate one per OCaml domain. Construction is
    deterministic per [(seed, shard_id)]: shard [i] draws the [i]-th
    child stream of the parent seed via {!Rng.split_n}, independent of
    the total shard count's spawn order. *)

type t

val make :
  ?seed:int ->
  ?obs:Hope_obs.Recorder.t ->
  shards:int ->
  shard_id:int ->
  unit ->
  t
(** [make ~shards ~shard_id ()] builds the context for one shard of a
    [shards]-way partition. Default seed 42 (matching {!Engine.create}).
    [obs] supplies an externally-owned per-domain recorder; by default
    the shard's engine owns a fresh, disabled one.
    @raise Invalid_argument if [shards <= 0] or [shard_id] is out of
    range. *)

val owner : shards:int -> int -> int
(** [owner ~shards lp] is the fixed hash-based shard assignment used by
    the deterministic mode: LP [lp] lives on shard [lp mod shards].
    Stable across runs and independent of execution order. *)

val shard_id : t -> int
val shards : t -> int
val engine : t -> Engine.t
val rng : t -> Rng.t
(** The shard's deterministic stream (child [shard_id] of the parent
    seed). Draws here never perturb other shards' streams. *)
