(* The shard map of a sharded run: which shard owns an LP. *)

let owner ~shards lp =
  if shards <= 0 then invalid_arg "Context.owner: shards must be positive";
  if lp < 0 then invalid_arg "Context.owner: negative lp"
  else lp mod shards
