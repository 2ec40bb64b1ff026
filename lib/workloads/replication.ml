open Hope_types
module Program = Hope_proc.Program
module Scheduler = Hope_proc.Scheduler
module World = Hope_core.World
module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Rng = Hope_sim.Rng
module Rpc = Hope_rpc.Rpc
open Program.Syntax

type params = {
  replicas : int;
  updates : int;
  conflict_rate : float;
  apply_cost : float;
  reconcile_cost : float;
  serialize_cost : float;
  fate_seed : int;
}

let default_params =
  {
    replicas = 4;
    updates = 25;
    conflict_rate = 0.05;
    apply_cost = 150e-6;
    reconcile_cost = 600e-6;
    serialize_cost = 80e-6;
    fate_seed = 11;
  }

type result = {
  makespan : float;
  throughput : float;
  rollbacks : int;
  messages : int;
  conflicts : int;
}

let conflicts_ p ~replica ~update =
  let r = Rng.create ~seed:((p.fate_seed * 40_503) + (replica * 9973) + update) in
  Rng.bernoulli r ~p:p.conflict_rate

(* ------------------------------------------------------------------ *)
(* Primary serializer                                                  *)
(* ------------------------------------------------------------------ *)

let encode_update ~replica ~update = Value.Pair (Value.Int replica, Value.Int update)

let rpc_primary p =
  Rpc.serve_forever (fun req ->
      let replica, update =
        match req with
        | Value.Pair (Value.Int r, Value.Int u) -> (r, u)
        | _ -> invalid_arg "replication: malformed update"
      in
      let* () = Program.compute p.serialize_cost in
      let conflict = conflicts_ p ~replica ~update in
      let* () =
        if conflict then Program.incr_counter "replication.conflicts"
        else Program.return ()
      in
      Program.return (Value.Bool (not conflict)))

let hope_primary p =
  let rec loop () =
    let* env =
      Program.recv_where (fun e ->
          match Envelope.value e with
          | Value.Pair (Value.Aid_v _, Value.Pair (Value.Int _, Value.Int _)) -> true
          | _ -> false
          | exception Invalid_argument _ -> false)
    in
    let a, replica, update =
      match Envelope.value env with
      | Value.Pair (Value.Aid_v a, Value.Pair (Value.Int r, Value.Int u)) -> (a, r, u)
      | _ -> assert false
    in
    let* () = Program.compute p.serialize_cost in
    let* () =
      if conflicts_ p ~replica ~update then
        let* () = Program.incr_counter "replication.conflicts" in
        Program.deny a
      else Program.affirm a
    in
    loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Replica clients                                                     *)
(* ------------------------------------------------------------------ *)

let pessimistic_replica p ~primary ~replica =
  Program.for_ 0 (p.updates - 1) (fun update ->
      let* verdict = Rpc.call ~server:primary (encode_update ~replica ~update) in
      Program.compute (if Value.to_bool verdict then p.apply_cost else p.reconcile_cost))

let optimistic_replica p ~primary ~replica =
  Program.for_ 0 (p.updates - 1) (fun update ->
      let* a = Program.aid_init () in
      let* () =
        Program.send primary
          (Value.Pair (Value.Aid_v a, encode_update ~replica ~update))
      in
      let* ok = Program.guess a in
      Program.compute (if ok then p.apply_cost else p.reconcile_cost))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 42) ?obs ?(latency = Hope_net.Latency.man)
    ?(sched_config = Scheduler.epoch_1995_config) ?(on_setup = ignore) ~mode p =
  let w = World.create ~seed ?obs ~latency ~sched_config () in
  let sched = w.World.scheduler in
  on_setup w.runtime;
  let primary =
    Scheduler.spawn sched ~node:0 ~name:"primary"
      (match mode with
      | `Pessimistic -> rpc_primary p
      | `Optimistic -> hope_primary p)
  in
  let clients =
    List.init p.replicas (fun i ->
        let body =
          match mode with
          | `Pessimistic -> pessimistic_replica p ~primary ~replica:i
          | `Optimistic -> optimistic_replica p ~primary ~replica:i
        in
        Scheduler.spawn sched ~node:(i + 1) ~name:(Printf.sprintf "replica-%d" i) body)
  in
  World.run_to_quiescence ~what:"replication" ~max_events:50_000_000 w;
  World.check_invariants ~what:"replication" w;
  let makespan = World.makespan ~what:"replication" w clients in
  let m = Engine.metrics w.engine in
  let committed = p.replicas * p.updates in
  {
    makespan;
    throughput = float_of_int committed /. makespan;
    rollbacks = Metrics.find_counter m "hope.rollbacks";
    messages = Metrics.find_counter m "net.user_and_ctl_sends";
    conflicts = Metrics.find_counter m "replication.conflicts";
  }
