(** The shard map of a sharded run: the fixed LP-to-shard assignment
    that [lib/shard] and its callers share. A shard holds no engine or
    RNG of its own, only a metrics registry and a recorder. *)

val owner : shards:int -> int -> int
(** [owner ~shards lp] is the fixed hash-based shard assignment used by
    the deterministic mode: LP [lp] lives on shard [lp mod shards].
    Stable across runs and independent of execution order.
    @raise Invalid_argument if [shards <= 0] or [lp < 0]. *)
