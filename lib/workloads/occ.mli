(** Optimistic concurrency control (Kung & Robinson, the paper's reference
    [17]) — experiment E12, and the very first example §1 gives of
    optimism: "assume that locks will be granted, process the transaction,
    and post hoc verify that the locks were granted".

    [clients] processes each run [transactions] read-modify-write
    transactions against a versioned key-value store:

    - {e pessimistic} (two-phase locking): atomically acquire all locks
      (one round trip, possibly queueing behind a holder), think, then
      commit and release (a second round trip);
    - {e optimistic} (OCC via HOPE): read a snapshot (one round trip),
      think, then fire an asynchronous validate-and-commit under the
      assumption "my reads are still current". The store affirms and
      applies, or denies on a version conflict — rolling the client (and
      its already-started next transactions, which are chained
      speculation) back to retry;
    - {e hybrid} (DESIGN.md §10): the optimistic protocol plus a durable
      per-key {e guard} AID, driven True at setup. Each transaction
      guesses the guard of its hottest key first — a few wait-free
      messages while the guard is optimistic, but once the governor
      escalates it (per-guess pressure weighted by the wasted%%
      analytic) the guess parks in the guard's FIFO queue and returns
      holding the key exclusively, collapsing the conflict storm on that
      key while cold keys keep speculating. [run] installs a
      [Policy.hybrid] governor automatically unless the caller's
      [on_setup] already installed one. That governor brings a telemetry
      of its own, which takes the recorder's tap and the engine's
      sampler: a caller with its own telemetry installs the governor on
      it in [on_setup], as [hope_sim occ] does.

    Unlike the other workloads, conflicts are not drawn from a fate
    function: they {e emerge} from genuinely concurrent clients, tuned by
    the size of the key space and the zipfian [skew] of key
    popularity. *)

type params = {
  clients : int;
  transactions : int;  (** per client *)
  keys : int;  (** key-space size: smaller = more contention *)
  reads_per_txn : int;
  writes_per_txn : int;
  think_time : float;  (** client CPU between read and commit *)
  store_cost : float;  (** store CPU per request *)
  skew : float;
      (** zipfian key-popularity exponent: P(k) ∝ 1/(k+1)^skew. [0.0]
          (the default) is the original uniform draw, bit-for-bit;
          higher values concentrate traffic on low-numbered keys *)
}

val default_params : params

type result = {
  makespan : float;
  committed : int;  (** transactions finally committed (= clients × transactions) *)
  aborts : int;  (** validation failures (optimistic) / 0 (pessimistic) *)
  lock_waits : int;  (** requests that queued behind a holder (pessimistic) *)
  rollbacks : int;
  version_sum : int;  (** Σ key versions at quiescence — must equal the
                          total committed writes, checked by {!run} *)
  escalations : int;  (** guard AIDs flipped pessimistic ([hope.escalations]) *)
  acquire_waits : int;  (** guesses routed into a guard's acquisition
                            queue ([hope.acquire_waits]) *)
}

val run :
  ?seed:int ->
  ?obs:Hope_obs.Recorder.t ->
  ?latency:Hope_net.Latency.t ->
  ?sched_config:Hope_proc.Scheduler.config ->
  ?on_setup:(Hope_core.Runtime.t -> unit) ->
  ?policy:Hope_gov.Policy.t ->
  mode:[ `Pessimistic | `Optimistic | `Hybrid ] ->
  params ->
  result
(** Store on node 0, client [i] on node [i+1]. @raise Failure on
    non-quiescence, invariant violation, or if the final store state does
    not equal the committed write count (the serializability smoke
    check). *)
