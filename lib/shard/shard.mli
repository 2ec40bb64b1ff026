(** Sharded Time Warp executor across OCaml 5 domains.

    Partitions a {!Hope_timewarp.Timewarp.model}'s LP space across
    domains with the fixed assignment [lp mod domains]
    ({!Hope_sim.Context.owner}), runs each shard optimistically, and
    synchronizes shards with Jefferson's protocol rather than
    conservative barriers: cross-shard deliveries ride lock-free SPSC
    {!Mailbox} rings, a delivery below the destination's local virtual
    time triggers {e local} rollback (state restore, input requeue,
    anti-messages), and a GVT computation — per-pair cumulative
    sent/recvd counters plus per-shard floors, coordinated by shard 0's
    domain — drives commitment and fossil collection.

    Determinism: Time Warp commits exactly the sequential event set, so
    sorting the commit records by a domain-count-independent key
    (recv_ts, dst_lp, send_ts, src_lp, payload digest) yields a merged
    trace that is byte-identical at any domain count ({!merge_into},
    pinned in CI at 1 vs 4 domains). *)

type 'p message = {
  mid : int;
  src_lp : int;
  dst_lp : int;
  send_ts : float;
  recv_ts : float;
  payload : 'p;
  anti : bool;
  root_shard : int;
      (** provenance: shard of the straggler that (transitively) caused
          this anti-message; [-1] on positives and seed messages *)
  root_mid : int;  (** mid of the root straggler message, [-1] if none *)
  root_send_ts : float;  (** send_ts of the root straggler, [0.] if none *)
}
(** Cross-shard wire format. The three [root_*] fields thread rollback
    provenance through cascades: when a straggler at shard [S] rolls a
    destination back, the anti-messages it emits are stamped with the
    straggler's identity; a {e secondary} rollback triggered by such an
    anti inherits the same root, so every wasted event anywhere in the
    cascade is attributable to the shard/message that started it. Each
    rollback reports its root and how many events it undid in a
    [Shard_straggler] event ([obs_shard] of {!run});
    {!Hope_obs.Analytics} sums those per root. The sums total
    {!field-rolled_back} but are per-run truth, {e not} deterministic
    across domain counts: a race decides which events run far enough
    ahead to be wasted. *)

type commit = {
  c_recv_ts : float;
  c_dst_lp : int;
  c_src_lp : int;
  c_send_ts : float;
  c_digest : int;
}
(** One committed event. Message ids and shard ids are deliberately
    absent: both depend on the domain count. *)

type ('s, 'p) spec = {
  model : ('s, 'p) Hope_timewarp.Timewarp.model;
  n_lps : int;
  horizon : float;  (** outputs with [recv_ts > horizon] are dropped *)
  seeds : (int * float * 'p) list;  (** initial [(dst_lp, ts, payload)] *)
  digest : 'p -> int;
      (** deterministic payload fingerprint for the merge key and trace;
          must not depend on execution order *)
  dummy : 'p;  (** scrub value for rings and queues *)
}

type 's result = {
  states : 's array;  (** final LP states, indexed by global LP id *)
  commits : commit array;
      (** sorted by [(recv_ts, dst_lp, send_ts, src_lp, digest)], the
          deterministic merge order *)
  processed : int;  (** executions incl. rolled-back work *)
  committed : int;  (** = [Array.length commits] = sequential event count *)
  rollbacks : int;
  rolled_back : int;
  stragglers : int;
  anti_messages : int;
  annihilations : int;
      (** anti-messages that cancelled a pending (unprocessed) positive —
          tombstone hits at ring pop plus in-queue drops during rollback *)
  remote_sends : int;
  full_spins : int;
      (** producer spins on a full outbound ring — the monitor's
          [Mailbox_backpressure] signal *)
  max_rollback_depth : int;
      (** deepest single rollback (events undone at once) on any shard *)
  gvt_rounds : int;
  domains : int;
  registries : Hope_sim.Metrics.registry array;
      (** per-shard metrics registries, indexed by shard id: the
          [shard.*] counters/gauges that [Telemetry.absorb_shards]
          exports as [shard="N"] labeled OpenMetrics families *)
  samples : Hope_obs.Monitor.shard_sample list;
      (** per-shard telemetry snapshots, taken at every GVT advance and
          every 2048 processed events, sorted by (gvt, shard, events);
          feed to {!Hope_obs.Monitor.observe_shards} (or
          [Telemetry.absorb_shards]) to arm the parallel diagnostics, and
          to {!Hope_obs.Monitor.epochs} for one view per GVT epoch *)
}

val run :
  ?domains:int ->
  ?seed:int ->
  ?obs_shard:(int -> Hope_obs.Recorder.t option) ->
  ('s, 'p) spec ->
  's result
(** [run ~domains spec] executes the model to quiescence. [domains]
    (default 1, max 64) spawns [domains - 1] worker domains; shard 0
    runs on the calling domain and doubles as the GVT coordinator.
    [obs_shard] supplies an optional per-domain recorder per shard id
    for diagnostics ([Shard_straggler], [Gvt_advance]); these streams
    are per-domain and {e not} deterministic across domain counts — the
    deterministic artifact is {!merge_into}'s. A shard without one gets a
    fresh, disabled recorder. Each shard holds only that recorder and a
    fresh {!Hope_sim.Metrics.registry}: no engine, no RNG.
    [seed] is ignored: the model is deterministic and nothing in the
    executor draws random numbers. It stays so callers that pass one
    keep compiling.
    @raise Invalid_argument on bad [domains]/[spec]. *)

val merge_into : Hope_obs.Recorder.t -> 's result -> unit
(** Emit one [Shard_commit] event per committed record, in
    merge order, at [time = recv_ts] on [proc = dst_lp].
    Byte-identical downstream chrome traces at any domain count. *)

val commits_digest : 's result -> int
(** Order-sensitive fingerprint of the sorted commit sequence; equal
    across domain counts iff the committed event sets (and their merge
    order) match. The [parallel] bench rows carry it so
    [bench/compare.exe] can gate cross-domain determinism. *)
