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
  tasks : int;
  accuracy : float;
  task_cost : float;
  fixup_cost : float;
  validate_cost : float;
  fate_seed : int;
}

let default_params =
  {
    tasks = 50;
    accuracy = 0.9;
    task_cost = 200e-6;
    fixup_cost = 400e-6;
    validate_cost = 100e-6;
    fate_seed = 7;
  }

type mode = Pessimistic | Speculative of int option

type result = {
  completion_time : float;
  rollbacks : int;
  messages : int;
  denials : int;
}

(* Deterministic per-task verdict, shared by every mode. *)
let fate p task =
  let r = Rng.create ~seed:((p.fate_seed * 69_069) + task) in
  Rng.bernoulli r ~p:p.accuracy

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let rpc_oracle p =
  Rpc.serve_forever (fun req ->
      let task = Value.to_int req in
      let* () = Program.compute p.validate_cost in
      let valid = fate p task in
      let* () =
        if valid then Program.return () else Program.incr_counter "pipeline.denials"
      in
      Program.return (Value.Bool valid))

let is_task_request v =
  match v with Value.Pair (Value.Aid_v _, Value.Int _) -> true | _ -> false

let ack task = Value.Pair (Value.String "ack", Value.Int task)

let is_ack task env =
  Envelope.is_user env && Value.equal (Envelope.value env) (ack task)

let hope_oracle p ~worker =
  let rec loop () =
    let* env =
      Program.recv_where (fun e ->
          Envelope.is_user e && is_task_request (Envelope.value e))
    in
    let a, task =
      match Envelope.value env with
      | Value.Pair (Value.Aid_v a, Value.Int task) -> (a, task)
      | _ -> assert false
    in
    let* () = Program.compute p.validate_cost in
    let* () =
      if fate p task then Program.affirm a
      else
        let* () = Program.incr_counter "pipeline.denials" in
        Program.deny a
    in
    let* () = Program.send worker (ack task) in
    loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let pessimistic_worker p ~oracle =
  Program.for_ 0 (p.tasks - 1) (fun task ->
      let* resp = Rpc.call ~server:oracle (Value.Int task) in
      Program.compute (if Value.to_bool resp then p.task_cost else p.fixup_cost))

let speculative_worker p ~oracle ~window =
  let rec go task =
    if task >= p.tasks then Program.return ()
    else
      (* Bounded scope: do not open assumption [task] before assumption
         [task - window] has been resolved by the oracle. *)
      let* () =
        match window with
        | Some w when task >= w ->
          let* _ = Program.recv_where (is_ack (task - w)) in
          Program.return ()
        | Some _ | None -> Program.return ()
      in
      let* a = Program.aid_init () in
      let* () = Program.send oracle (Value.Pair (Value.Aid_v a, Value.Int task)) in
      let* ok = Program.guess a in
      let* () = Program.compute (if ok then p.task_cost else p.fixup_cost) in
      go (task + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 42) ?obs ?(latency = Hope_net.Latency.man)
    ?(sched_config = Scheduler.epoch_1995_config) ?(on_setup = ignore) ~mode p =
  let w = World.create ~seed ?obs ~latency ~sched_config () in
  let sched = w.World.scheduler in
  on_setup w.runtime;
  let worker_name = "pipeline-worker" in
  let worker_body oracle =
    match mode with
    | Pessimistic -> pessimistic_worker p ~oracle
    | Speculative window -> speculative_worker p ~oracle ~window
  in
  let worker =
    match mode with
    | Pessimistic ->
      let oracle = Scheduler.spawn sched ~node:1 ~name:"oracle" (rpc_oracle p) in
      Scheduler.spawn sched ~node:0 ~name:worker_name (worker_body oracle)
    | Speculative _ ->
      (* The HOPE oracle needs the worker's address for acks; spawn the
         worker first with a forward reference through a mutable cell the
         oracle reads at its first step. *)
      let worker_ref = ref None in
      let oracle =
        Scheduler.spawn sched ~node:1 ~name:"oracle"
          (let* wpid = Program.lift (fun () -> Option.get !worker_ref) in
           hope_oracle p ~worker:wpid)
      in
      let w = Scheduler.spawn sched ~node:0 ~name:worker_name (worker_body oracle) in
      worker_ref := Some w;
      w
  in
  World.run_to_quiescence ~what:"pipeline" ~max_events:50_000_000 w;
  World.check_invariants ~what:"pipeline" w;
  let completion_time = World.makespan ~what:"pipeline" w [ worker ] in
  let m = Engine.metrics w.engine in
  {
    completion_time;
    rollbacks = Metrics.find_counter m "hope.rollbacks";
    messages = Metrics.find_counter m "net.user_and_ctl_sends";
    denials = Metrics.find_counter m "pipeline.denials";
  }
