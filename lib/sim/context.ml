(* Explicit shard context.

   Before sharding, the "context" of a run was implicit: one engine
   (clock + pooled events + sampler), one RNG stream, one telemetry
   instance — all singletons by convention. A shard context makes that
   bundle a value so N of them can coexist, one per OCaml domain, each
   deterministic in isolation: shard [i]'s RNG stream is the [i]-th
   child of the parent seed's SplitMix64 stream (see {!Rng.split_n}), so
   it depends only on [(seed, i)] and never on how many shards run or in
   what order domains get scheduled. *)

type t = {
  shard_id : int;
  shards : int;
  engine : Engine.t;
  rng : Rng.t;
}

let owner ~shards lp =
  if shards <= 0 then invalid_arg "Context.owner: shards must be positive";
  if lp < 0 then invalid_arg "Context.owner: negative lp"
  else lp mod shards

let make ?(seed = 42) ?obs ~shards ~shard_id () =
  if shards <= 0 then invalid_arg "Context.make: shards must be positive";
  if shard_id < 0 || shard_id >= shards then
    invalid_arg "Context.make: shard_id out of range";
  let parent = Rng.create ~seed in
  let streams = Rng.split_n parent (shard_id + 1) in
  let rng = streams.(shard_id) in
  (* The engine gets its own derived seed so internal draws (should any
     component pull from [Engine.rng]) are also per-shard streams; the
     derivation peeks a copy so [rng]'s stream is undisturbed. *)
  let eseed = Int64.to_int (Rng.bits64 (Rng.copy rng)) land max_int in
  let engine = Engine.create ~seed:eseed ?obs () in
  { shard_id; shards; engine; rng }

let shard_id t = t.shard_id
let shards t = t.shards
let engine t = t.engine
let rng t = t.rng
