open Hope_types
module Program = Hope_proc.Program
module Scheduler = Hope_proc.Scheduler
module World = Hope_core.World
module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Rpc = Hope_rpc.Rpc
open Program.Syntax

type params = {
  workers : int;
  converge_at : int;
  iter_cost : float;
  check_cost : float;
}

let default_params =
  { workers = 4; converge_at = 12; iter_cost = 500e-6; check_cost = 100e-6 }

type result = {
  makespan : float;
  wasted_iterations : int;
  rollbacks : int;
  messages : int;
}

let encode_check ~aid ~iter ~worker =
  Value.triple (Value.Aid_v aid) (Value.Int iter) (Value.Int worker)

let is_check_for iter env =
  Envelope.is_user env
  &&
  match Envelope.value env with
  | Value.Pair (Value.Aid_v _, Value.Pair (Value.Int i, Value.Int _)) -> i = iter
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Optimistic protocol                                                 *)
(* ------------------------------------------------------------------ *)

(* Each worker races ahead: one assumption per iteration, guessed before
   the coordinator has seen the residual. The rollback at convergence
   discards exactly the overshoot. *)
let optimistic_worker p ~coordinator ~worker =
  let rec iterate iter =
    let* () = Program.compute p.iter_cost in
    let* () = Program.incr_counter "scientific.iterations" in
    let* not_converged = Program.aid_init () in
    let* () = Program.send coordinator (encode_check ~aid:not_converged ~iter ~worker) in
    let* keep_going = Program.guess not_converged in
    if keep_going then iterate (iter + 1) else Program.return ()
  in
  iterate 0

(* The coordinator gathers one residual per worker per iteration and rules
   on the "not converged" assumptions. *)
let optimistic_coordinator p =
  let rec gather iter =
    let* aids =
      Program.fold 1 p.workers [] (fun acc _ ->
          let* env = Program.recv_where (is_check_for iter) in
          let aid =
            match Envelope.value env with
            | Value.Pair (Value.Aid_v a, _) -> a
            | _ -> assert false
          in
          Program.return (aid :: acc))
    in
    let* () = Program.compute p.check_cost in
    if iter < p.converge_at then
      let* () = Program.iter_list Program.affirm aids in
      gather (iter + 1)
    else Program.iter_list Program.deny aids
  in
  gather 0

(* ------------------------------------------------------------------ *)
(* Pessimistic protocol: a barrier per iteration                       *)
(* ------------------------------------------------------------------ *)

let pessimistic_worker p ~coordinator ~worker =
  let rec iterate iter =
    let* () = Program.compute p.iter_cost in
    let* () = Program.incr_counter "scientific.iterations" in
    let* verdict =
      Rpc.call ~server:coordinator (Value.Pair (Value.Int iter, Value.Int worker))
    in
    if Value.to_bool verdict then iterate (iter + 1) else Program.return ()
  in
  iterate 0

let pessimistic_coordinator p =
  (* Collect the whole group before answering anyone: a real barrier. *)
  let rec gather iter =
    let* waiting =
      Program.fold 1 p.workers [] (fun acc _ ->
          let* env = Program.recv () in
          match Hope_rpc.Protocol.as_request (Envelope.value env) with
          | Some (call_id, reply_to, _) -> Program.return ((call_id, reply_to) :: acc)
          | None -> Program.return acc)
    in
    let* () = Program.compute p.check_cost in
    let continue_ = iter < p.converge_at in
    let* () =
      Program.iter_list
        (fun (call_id, reply_to) ->
          Program.send reply_to
            (Hope_rpc.Protocol.response ~call_id (Value.Bool continue_)))
        waiting
    in
    if continue_ then gather (iter + 1) else Program.return ()
  in
  gather 0

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 42) ?obs ?(latency = Hope_net.Latency.man)
    ?(sched_config = Scheduler.epoch_1995_config) ?(on_setup = ignore) ~mode p =
  let w = World.create ~seed ?obs ~latency ~sched_config () in
  let sched = w.World.scheduler in
  on_setup w.runtime;
  let coordinator =
    Scheduler.spawn sched ~node:0 ~name:"coordinator"
      (match mode with
      | `Pessimistic -> pessimistic_coordinator p
      | `Optimistic -> optimistic_coordinator p)
  in
  let workers =
    List.init p.workers (fun w ->
        Scheduler.spawn sched ~node:(w + 1) ~name:(Printf.sprintf "worker-%d" w)
          (match mode with
          | `Pessimistic -> pessimistic_worker p ~coordinator ~worker:w
          | `Optimistic -> optimistic_worker p ~coordinator ~worker:w))
  in
  World.run_to_quiescence ~what:"scientific" ~max_events:50_000_000 w;
  World.check_invariants ~what:"scientific" w;
  let makespan = World.makespan ~what:"scientific" w workers in
  let m = Engine.metrics w.engine in
  let useful = p.workers * (p.converge_at + 1) in
  {
    makespan;
    wasted_iterations = Metrics.find_counter m "scientific.iterations" - useful;
    rollbacks = Metrics.find_counter m "hope.rollbacks";
    messages = Metrics.find_counter m "net.user_and_ctl_sends";
  }
