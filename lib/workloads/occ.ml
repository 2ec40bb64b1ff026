open Hope_types
module Program = Hope_proc.Program
module Scheduler = Hope_proc.Scheduler
module Runtime = Hope_core.Runtime
module World = Hope_core.World
module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Rng = Hope_sim.Rng
module Rpc = Hope_rpc.Rpc
module Protocol = Hope_rpc.Protocol
open Program.Syntax

type params = {
  clients : int;
  transactions : int;
  keys : int;
  reads_per_txn : int;
  writes_per_txn : int;
  think_time : float;
  store_cost : float;
  skew : float;
}

let default_params =
  {
    clients = 4;
    transactions = 15;
    keys = 64;
    reads_per_txn = 3;
    writes_per_txn = 2;
    think_time = 300e-6;
    store_cost = 50e-6;
    skew = 0.0;
  }

type result = {
  makespan : float;
  committed : int;
  aborts : int;
  lock_waits : int;
  rollbacks : int;
  version_sum : int;
  escalations : int;
  acquire_waits : int;
}

(* Zipfian key popularity: P(k) ∝ 1/(k+1)^skew, so key 0 is the hottest.
   skew = 0 keeps the original uniform [Rng.int] draw bit-for-bit, which
   preserves every pre-skew access set (and thus the committed bench
   baselines for the pure modes). *)
let zipf_cumulative ~keys ~skew =
  let c = Array.make keys 0.0 in
  let total = ref 0.0 in
  for k = 0 to keys - 1 do
    total := !total +. (1.0 /. (float_of_int (k + 1) ** skew));
    c.(k) <- !total
  done;
  c

let zipf_draw r cum =
  let u = Rng.float r cum.(Array.length cum - 1) in
  (* First k with cum.(k) > u. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cum.(mid) > u then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length cum - 1)

(* Deterministic per-(client, txn) access sets; retries reuse them. *)
let access_sets p ~client ~txn =
  let r = Rng.create ~seed:(((client * 7907) + txn) * 65_537) in
  let draw_key =
    if p.skew <= 0.0 then fun () -> Rng.int r p.keys
    else
      let cum = zipf_cumulative ~keys:p.keys ~skew:p.skew in
      fun () -> zipf_draw r cum
  in
  let draw n = List.init n (fun _ -> draw_key ()) in
  let dedup l = List.sort_uniq compare l in
  (dedup (draw p.reads_per_txn), dedup (draw p.writes_per_txn))

let keys_value keys = Value.List (List.map (fun k -> Value.Int k) keys)
let keys_of_value v = List.map Value.to_int (Value.to_list v)

module Int_map = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* Optimistic store: snapshot reads + validate-and-commit              *)
(* ------------------------------------------------------------------ *)

let read_marker = Value.String "occ-read"
let stats_marker = Value.String "occ-stats"

let encode_read keys = Value.Pair (read_marker, keys_value keys)

let encode_validate ~aid ~txn_id ~reads ~writes =
  Value.triple (Value.Aid_v aid)
    (Value.Pair
       ( Value.Int txn_id,
         Value.List
           (List.map (fun (k, v) -> Value.Pair (Value.Int k, Value.Int v)) reads) ))
    (keys_value writes)

(* Store state is the version vector plus the set of applied transaction
   ids, threaded through the serve loop so HOPE rollback recovers both
   exactly (a retracted speculative commit un-applies its writes for
   free). The applied-set makes commits idempotent, which at-least-once
   delivery requires: a validate whose consumer went definite can be
   re-delivered by its rolled-back sender's re-execution (the anomaly
   window of DESIGN.md §3.6). *)
type store_state = { versions : int array; applied : unit Int_map.t }

let optimistic_store p =
  let rec loop (st : store_state) =
    let* env = Program.recv () in
    match Protocol.as_request (Envelope.value env) with
    | Some (call_id, reply_to, body) -> (
      (* RPC surface: snapshot reads and the final stats probe. *)
      let* () = Program.compute p.store_cost in
      match body with
      | Value.Pair (Value.String "occ-read", ks) ->
        let reads =
          List.map
            (fun k -> Value.Pair (Value.Int k, Value.Int st.versions.(k)))
            (keys_of_value ks)
        in
        let* () = Program.send reply_to (Protocol.response ~call_id (Value.List reads)) in
        loop st
      | Value.String "occ-stats" ->
        let total = Array.fold_left ( + ) 0 st.versions in
        let* () =
          Program.send reply_to (Protocol.response ~call_id (Value.Int total))
        in
        loop st
      | _ -> loop st)
    | None -> (
      match Envelope.value env with
      | Value.Pair
          ( Value.Aid_v aid,
            Value.Pair
              (Value.Pair (Value.Int txn_id, Value.List reads), Value.List writes) )
        ->
        let* () = Program.compute p.store_cost in
        let current (kv : Value.t) =
          let k, v = Value.to_pair kv in
          st.versions.(Value.to_int k) = Value.to_int v
        in
        if Int_map.mem txn_id st.applied then
          (* Duplicate delivery of an already-committed transaction:
             acknowledge idempotently. *)
          let* () = Program.incr_counter "occ.duplicate_validates" in
          let* () = Program.affirm aid in
          loop st
        else if List.for_all current reads then begin
          (* Validation passed: apply the writes and affirm. Arrays are
             shared across continuations, so the version vector is
             rebuilt functionally to keep rollback sound. *)
          let versions' = Array.copy st.versions in
          List.iter
            (fun k -> versions'.(Value.to_int k) <- versions'.(Value.to_int k) + 1)
            writes;
          let* () = Program.incr_counter "occ.validations_passed" in
          let* () = Program.affirm aid in
          loop { versions = versions'; applied = Int_map.add txn_id () st.applied }
        end
        else
          let* () = Program.incr_counter "occ.aborts" in
          let* () = Program.deny aid in
          loop st
      | _ -> loop st)
  in
  loop { versions = Array.make p.keys 0; applied = Int_map.empty }

(* One OCC try: snapshot, think, fire-and-guess the validate. Returns
   the (speculative) verdict; [false] means the store denied and the
   rollback has already re-entered here. *)
let occ_try p ~store ~reads_keys ~writes ~txn_id =
  let* snapshot = Rpc.call ~server:store (encode_read reads_keys) in
  let reads =
    List.map
      (fun kv ->
        let k, v = Value.to_pair kv in
        (Value.to_int k, Value.to_int v))
      (Value.to_list snapshot)
  in
  let* () = Program.compute p.think_time in
  let* aid = Program.aid_init () in
  (* The paper's idiom (the WorryWart pattern of §3.1): announce the
     assumption BEFORE guessing it, so the validate message is not
     tagged with its own assumption and the store's judgment is never
     contingent on itself. Duplicate deliveries that retraction
     cannot cover are handled by the store's idempotent commit. *)
  let* () = Program.send store (encode_validate ~aid ~txn_id ~reads ~writes) in
  Program.guess aid

(* One transaction, OCC style: try, retry on denial. Shared by the pure
   optimistic client and the hybrid client's retry path. *)
let occ_attempt p ~store ~reads_keys ~writes ~txn_id =
  let rec attempt () =
    let* ok = occ_try p ~store ~reads_keys ~writes ~txn_id in
    if ok then Program.return () else attempt ()
  in
  attempt ()

let optimistic_client p ~store ~client =
  Program.for_ 0 (p.transactions - 1) (fun txn ->
      let reads_keys, writes = access_sets p ~client ~txn in
      occ_attempt p ~store ~reads_keys ~writes
        ~txn_id:((client * 1_000_000) + txn))

(* ------------------------------------------------------------------ *)
(* Hybrid client: per-key guard AIDs + governor-driven escalation      *)
(* ------------------------------------------------------------------ *)

(* The hybrid protocol is the optimistic one plus a durable {e guard}
   AID per key, driven True at setup by the warden process. Before each
   transaction the client guesses the guard of its hottest key:

   - while the guard is optimistic the guess opens a short-lived
     interval that the True guard resolves on the next round trip —
     wait-free, a few messages of overhead, no behavioural change;
   - when the governor has escalated the guard (contention evidence:
     per-guess pressure weighted by the wasted%% analytic), the guess
     routes into the guard's FIFO acquisition queue and returns [true]
     holding the key exclusively — at most one client is then inside
     the snapshot→validate window of that key, so the validation
     conflicts (and the re-paid think time the retry storm burns)
     collapse.

   Correctness never depends on the guard: the store still validates
   every commit, and [release] after the attempt is a no-op unless a
   grant is actually held. *)
let hot_key reads_keys writes =
  match List.sort_uniq compare (reads_keys @ writes) with
  | [] -> None
  | k :: _ -> Some k (* lowest index = most popular under zipf *)

let hybrid_client p ~guards ~store ~client =
  Program.for_ 0 (p.transactions - 1) (fun txn ->
      let reads_keys, writes = access_sets p ~client ~txn in
      let txn_id = (client * 1_000_000) + txn in
      match hot_key reads_keys writes with
      | None -> occ_attempt p ~store ~reads_keys ~writes ~txn_id
      | Some h ->
        let guard = guards.(h) in
        let* _entered = Program.guess guard in
        let* () = occ_attempt p ~store ~reads_keys ~writes ~txn_id in
        Program.release guard)

(* Definite process that drives every guard True at startup: guards are
   permanently-true assumptions whose only job is to give each key a
   durable identity the governor can accumulate contention pressure
   against (and escalate). *)
let warden guards =
  Program.iter_list (fun g -> Program.affirm g) (Array.to_list guards)

(* ------------------------------------------------------------------ *)
(* Pessimistic store: atomic all-or-nothing locking                    *)
(* ------------------------------------------------------------------ *)

type lock_state = {
  versions : int array;
  mutable held : bool array;
  mutable pending : (int * Proc_id.t * int list) list;  (** reversed *)
}

(* The locking store lives outside HOPE entirely: plain RPC, explicit
   queueing. Lock sets are acquired atomically, so there are no
   deadlocks. *)
let pessimistic_store p =
  let grantable st keys = List.for_all (fun k -> not st.held.(k)) keys in
  let grant st keys = List.iter (fun k -> st.held.(k) <- true) keys in
  let release st keys = List.iter (fun k -> st.held.(k) <- false) keys in
  let rec loop st =
    let* env = Program.recv () in
    match Protocol.as_request (Envelope.value env) with
    | None -> loop st
    | Some (call_id, reply_to, body) -> (
      let* () = Program.compute p.store_cost in
      match body with
      | Value.Pair (Value.String "acquire", ks) ->
        let keys = keys_of_value ks in
        if grantable st keys then begin
          grant st keys;
          let reads =
            List.map (fun k -> Value.Pair (Value.Int k, Value.Int st.versions.(k))) keys
          in
          let* () =
            Program.send reply_to (Protocol.response ~call_id (Value.List reads))
          in
          loop st
        end
        else begin
          st.pending <- (call_id, reply_to, keys) :: st.pending;
          let* () = Program.incr_counter "occ.lock_waits" in
          loop st
        end
      | Value.Pair (Value.String "commit", Value.Pair (ks, ws)) ->
        let keys = keys_of_value ks and writes = keys_of_value ws in
        List.iter (fun k -> st.versions.(k) <- st.versions.(k) + 1) writes;
        release st keys;
        let* () = Program.send reply_to (Protocol.response ~call_id Value.Unit) in
        (* Grant whatever the release unblocked, in arrival order. *)
        let rec regrant st =
          let ready =
            List.find_opt (fun (_, _, keys) -> grantable st keys) (List.rev st.pending)
          in
          match ready with
          | None -> Program.return st
          | Some ((call_id, reply_to, keys) as entry) ->
            st.pending <- List.filter (fun e -> e <> entry) st.pending;
            grant st keys;
            let reads =
              List.map
                (fun k -> Value.Pair (Value.Int k, Value.Int st.versions.(k)))
                keys
            in
            let* () =
              Program.send reply_to (Protocol.response ~call_id (Value.List reads))
            in
            regrant st
        in
        let* st = regrant st in
        loop st
      | Value.String "occ-stats" ->
        let total = Array.fold_left ( + ) 0 st.versions in
        let* () = Program.send reply_to (Protocol.response ~call_id (Value.Int total)) in
        loop st
      | _ -> loop st)
  in
  loop { versions = Array.make p.keys 0; held = Array.make p.keys false; pending = [] }

let pessimistic_client p ~store ~client =
  Program.for_ 0 (p.transactions - 1) (fun txn ->
      let reads_keys, writes = access_sets p ~client ~txn in
      let lock_keys = List.sort_uniq compare (reads_keys @ writes) in
      let* _snapshot =
        Rpc.call ~server:store (Value.Pair (Value.String "acquire", keys_value lock_keys))
      in
      let* () = Program.compute p.think_time in
      let* _ =
        Rpc.call ~server:store
          (Value.Pair
             (Value.String "commit", Value.Pair (keys_value lock_keys, keys_value writes)))
      in
      Program.return ())

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 42) ?obs ?(latency = Hope_net.Latency.man)
    ?(sched_config = Scheduler.epoch_1995_config) ?(on_setup = ignore) ?policy
    ~mode p =
  let ({ World.engine; scheduler = sched; runtime = rt } as w) =
    World.create ~seed ?obs ~latency ~sched_config ()
  in
  on_setup rt;
  (* Hybrid needs a governor to drive escalation. If the caller already
     installed one (hope_sim does, on its own telemetry) it is respected;
     otherwise a telemetry + governor pair with the [hybrid] policy is
     wired here. *)
  (match mode with
  | `Hybrid when not (Runtime.governed rt) ->
    let tele =
      Hope_sim.Telemetry.create ~deep:true ~stride:1e-3
        ~recorder:(Engine.obs engine) ()
    in
    Hope_sim.Telemetry.install tele engine;
    let policy = Option.value policy ~default:Hope_gov.Policy.hybrid in
    ignore (Hope_gov.Governor.install ~policy rt ~tele : Hope_gov.Governor.t)
  | _ -> ());
  let guards =
    match mode with
    | `Hybrid ->
      let guards = Array.init p.keys (fun _ -> Runtime.fresh_aid rt ()) in
      ignore
        (Scheduler.spawn sched ~node:0 ~name:"warden" (warden guards)
          : Proc_id.t);
      guards
    | `Pessimistic | `Optimistic -> [||]
  in
  let store =
    Scheduler.spawn sched ~node:0 ~name:"store"
      (match mode with
      | `Pessimistic -> pessimistic_store p
      | `Optimistic | `Hybrid -> optimistic_store p)
  in
  let clients =
    List.init p.clients (fun i ->
        Scheduler.spawn sched ~node:(i + 1) ~name:(Printf.sprintf "client-%d" i)
          (match mode with
          | `Pessimistic -> pessimistic_client p ~store ~client:i
          | `Optimistic -> optimistic_client p ~store ~client:i
          | `Hybrid -> hybrid_client p ~guards ~store ~client:i))
  in
  World.run_to_quiescence ~what:"occ" ~max_events:50_000_000 w;
  World.check_invariants ~what:"occ" w;
  let makespan = World.makespan ~what:"occ" w clients in
  (* Probe the final store state (a definite process: the answer is the
     committed truth). *)
  let version_sum = ref (-1) in
  ignore
    (Scheduler.spawn sched ~node:0 ~name:"probe"
       (let* total = Rpc.call ~server:store stats_marker in
        Program.lift (fun () -> version_sum := Value.to_int total))
      : Proc_id.t);
  World.run_to_quiescence ~what:"occ probe" ~max_events:1_000_000 w;
  let committed = p.clients * p.transactions in
  let expected_writes =
    List.init p.clients (fun c ->
        List.init p.transactions (fun t ->
            let _, writes = access_sets p ~client:c ~txn:t in
            List.length writes))
    |> List.concat |> List.fold_left ( + ) 0
  in
  if !version_sum <> expected_writes then
    failwith
      (Printf.sprintf
         "occ: store saw %d committed writes, expected %d (serializability \
          violation)"
         !version_sum expected_writes);
  let m = Engine.metrics engine in
  {
    makespan;
    committed;
    aborts = Metrics.find_counter m "occ.aborts";
    lock_waits = Metrics.find_counter m "occ.lock_waits";
    rollbacks = Metrics.find_counter m "hope.rollbacks";
    version_sum = !version_sum;
    escalations = Metrics.find_counter m "hope.escalations";
    acquire_waits = Metrics.find_counter m "hope.acquire_waits";
  }
