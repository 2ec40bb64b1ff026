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
  messages : int;
  crash_rate : float;
  log_cost : float;
  apply_cost : float;
  fate_seed : int;
}

let default_params =
  {
    messages = 30;
    crash_rate = 0.05;
    log_cost = 500e-6;
    apply_cost = 100e-6;
    fate_seed = 13;
  }

type result = {
  makespan : float;
  rollbacks : int;
  crashes : int;
  messages_sent : int;
}

(* Does logging attempt [attempt] of message [i] hit a crash? Retries are
   drawn independently, so recovery always eventually succeeds. *)
let crashes_ p ~msg ~attempt =
  let r = Rng.create ~seed:((p.fate_seed * 52_711) + (msg * 131) + attempt) in
  Rng.bernoulli r ~p:p.crash_rate

let encode_log_request ~aid ~msg ~attempt =
  Value.Pair (Value.Aid_v aid, Value.Pair (Value.Int msg, Value.Int attempt))

(* ------------------------------------------------------------------ *)
(* Stable-storage logger                                               *)
(* ------------------------------------------------------------------ *)

let hope_logger p =
  let rec loop () =
    let* env = Program.recv () in
    let aid, msg, attempt =
      match Envelope.value env with
      | Value.Pair (Value.Aid_v a, Value.Pair (Value.Int m, Value.Int k)) -> (a, m, k)
      | _ -> invalid_arg "recovery: malformed log request"
    in
    let* () = Program.compute p.log_cost in
    let* () =
      if crashes_ p ~msg ~attempt then
        let* () = Program.incr_counter "recovery.crashes" in
        Program.deny aid
      else Program.affirm aid
    in
    loop ()
  in
  loop ()

let rpc_logger p =
  Rpc.serve_forever (fun req ->
      let msg, attempt =
        match req with
        | Value.Pair (Value.Int m, Value.Int k) -> (m, k)
        | _ -> invalid_arg "recovery: malformed log request"
      in
      let* () = Program.compute p.log_cost in
      let crash = crashes_ p ~msg ~attempt in
      let* () =
        if crash then Program.incr_counter "recovery.crashes" else Program.return ()
      in
      Program.return (Value.Bool (not crash)))

(* ------------------------------------------------------------------ *)
(* Senders                                                             *)
(* ------------------------------------------------------------------ *)

(* Optimistic recovery: deliver before the log is stable, under the
   assumption the write survives. A crash denies the assumption, the
   delivery (and everything the receiver did with it) rolls back, and the
   sender retries the logging. *)
let optimistic_sender p ~logger ~receiver =
  let rec send_message msg attempt =
    let* a = Program.aid_init () in
    let* () = Program.send logger (encode_log_request ~aid:a ~msg ~attempt) in
    let* stable = Program.guess a in
    if stable then Program.send receiver (Value.Int msg)
    else send_message msg (attempt + 1)
  in
  Program.for_ 0 (p.messages - 1) (fun msg -> send_message msg 0)

(* Pessimistic logging: wait for the ack before delivering. *)
let pessimistic_sender p ~logger ~receiver =
  let rec send_message msg attempt =
    let* resp = Rpc.call ~server:logger (Value.Pair (Value.Int msg, Value.Int attempt)) in
    if Value.to_bool resp then Program.send receiver (Value.Int msg)
    else send_message msg (attempt + 1)
  in
  Program.for_ 0 (p.messages - 1) (fun msg -> send_message msg 0)

let receiver_body p =
  Program.repeat p.messages
    (let* _ = Program.recv () in
     Program.compute p.apply_cost)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 42) ?obs ?(latency = Hope_net.Latency.man)
    ?(sched_config = Scheduler.epoch_1995_config) ?(on_setup = ignore) ~mode p =
  let w = World.create ~seed ?obs ~latency ~sched_config () in
  let sched = w.World.scheduler in
  on_setup w.runtime;
  let logger =
    Scheduler.spawn sched ~node:1 ~name:"logger"
      (match mode with `Pessimistic -> rpc_logger p | `Optimistic -> hope_logger p)
  in
  let receiver = Scheduler.spawn sched ~node:2 ~name:"receiver" (receiver_body p) in
  let _sender =
    Scheduler.spawn sched ~node:0 ~name:"sender"
      (match mode with
      | `Pessimistic -> pessimistic_sender p ~logger ~receiver
      | `Optimistic -> optimistic_sender p ~logger ~receiver)
  in
  World.run_to_quiescence ~what:"recovery" ~max_events:50_000_000 w;
  World.check_invariants ~what:"recovery" w;
  let makespan = World.makespan ~what:"recovery" w [ receiver ] in
  let m = Engine.metrics w.engine in
  {
    makespan;
    rollbacks = Metrics.find_counter m "hope.rollbacks";
    crashes = Metrics.find_counter m "recovery.crashes";
    messages_sent = Metrics.find_counter m "net.user_and_ctl_sends";
  }
