open Hope_types
module Program = Hope_proc.Program
module Scheduler = Hope_proc.Scheduler
module Runtime = Hope_core.Runtime
module World = Hope_core.World
module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Rpc = Hope_rpc.Rpc
module Protocol = Hope_rpc.Protocol
open Program.Syntax

type params = { sections : int; page_size : int; print_cost : float }

let default_params = { sections = 40; page_size = 20; print_cost = 100e-6 }

let accuracy p = 1.0 -. (2.0 /. float_of_int p.page_size)

let print_request = Value.String "print"
let newpage_request = Value.String "newpage"

(* The print service: state is the current line number on the page.
   [print] appends one line and returns the resulting line number;
   [newpage] resets it. *)
let print_server p =
  Rpc.serve_fold_forever ~init:0 (fun line req ->
      let* () = Program.compute p.print_cost in
      match req with
      | Value.String "print" -> Program.return (line + 1, Value.Int (line + 1))
      | Value.String "newpage" -> Program.return (0, Value.Unit)
      | _ -> Program.return (line, Value.Unit))

(* ------------------------------------------------------------------ *)
(* Figure 1: the pessimistic worker                                    *)
(* ------------------------------------------------------------------ *)

let pessimistic_worker p ~server =
  Program.for_ 1 p.sections (fun _section ->
      (* S1 *)
      let* line_v = Rpc.call ~server print_request in
      let line = Value.to_int line_v in
      (* S2 *)
      let* () =
        if line >= p.page_size then
          let* _ = Rpc.call ~server newpage_request in
          Program.return ()
        else Program.return ()
      in
      (* S3 *)
      let* _ = Rpc.call ~server print_request in
      Program.return ())

(* ------------------------------------------------------------------ *)
(* Figure 2: the optimistic worker and its WorryWart companion         *)
(* ------------------------------------------------------------------ *)

let is_notify v =
  match v with
  | Value.Pair (Value.Aid_v _, Value.Pair (Value.Aid_v _, Value.Int _)) -> true
  | _ -> false

let notify ~part ~order ~call_id =
  Value.triple (Value.Aid_v part) (Value.Aid_v order) (Value.Int call_id)

(* The WorryWart executes S1's result check for each section: it receives
   (PartPage, Order, call_id) from the Worker, awaits the print server's
   response to the asynchronous S1, verifies the Order assumption with
   free_of, and then affirms or denies PartPage (Figure 2). *)
let worrywart p ~sections =
  Program.for_ 1 sections (fun _section ->
      let* env =
        Program.recv_where (fun e -> Envelope.is_user e && is_notify (Envelope.value e))
      in
      let part_v, order_v, call_id_v = Value.to_triple (Envelope.value env) in
      let part = Value.to_aid part_v
      and order = Value.to_aid order_v
      and call_id = Value.to_int call_id_v in
      let* resp = Program.recv_where (Protocol.is_response_to call_id) in
      let line =
        match Protocol.as_response (Envelope.value resp) with
        | Some (_, Value.Int line) -> line
        | Some _ | None -> invalid_arg "worrywart: malformed print response"
      in
      let* () = Program.free_of order in
      if line < p.page_size then Program.affirm part else Program.deny part)

let optimistic_sections p ~server ~worrywart:ww =
  Program.for_ 1 p.sections (fun _section ->
      let* part = Program.aid_init () in
      let* order = Program.aid_init () in
      (* S1, asynchronously: the response goes straight to the WorryWart. *)
      let* call_id = Program.random_int 0x3FFFFFFF in
      let* () =
        Program.send server (Protocol.request ~call_id ~reply_to:ww print_request)
      in
      let* () = Program.send ww (notify ~part ~order ~call_id) in
      (* S2 under the PartPage assumption. *)
      let* ok = Program.guess part in
      let* () = if ok then Program.return () else Rpc.post ~server newpage_request in
      (* S3 under the Order assumption: the summary must not overtake S1. *)
      let* _ = Program.guess order in
      Rpc.post ~server print_request)

let optimistic_worker p ~server =
  let* ww = Program.spawn "worrywart" (worrywart p ~sections:p.sections) in
  optimistic_sections p ~server ~worrywart:ww

(* ------------------------------------------------------------------ *)
(* Measurement driver                                                  *)
(* ------------------------------------------------------------------ *)

type result = {
  completion_time : float;
  rollbacks : int;
  messages : int;
  guesses : int;
  order_violations : int;
}

let run ?(seed = 42) ?obs ?(latency = Hope_net.Latency.wan) ?fifo
    ?(sched_config = Scheduler.epoch_1995_config)
    ?(hope_config = Runtime.default_config) ?on_quiescence
    ?(on_setup = ignore) ~mode p =
  let w = World.create ~seed ?obs ~latency ?fifo ~sched_config ~hope_config () in
  let sched = w.World.scheduler in
  on_setup w.runtime;
  let server = Scheduler.spawn sched ~node:1 ~name:"print-server" (print_server p) in
  let worker_body =
    match mode with
    | `Pessimistic -> pessimistic_worker p ~server
    | `Optimistic -> optimistic_worker p ~server
  in
  let worker = Scheduler.spawn sched ~node:0 ~name:"worker" worker_body in
  World.run_to_quiescence ~what:"report" ~max_events:20_000_000 w;
  World.check_invariants ~what:"report" w;
  (match on_quiescence with Some f -> f w.runtime | None -> ());
  let completion_time = World.makespan ~what:"report" w [ worker ] in
  let m = Engine.metrics w.engine in
  {
    completion_time;
    rollbacks = Metrics.find_counter m "hope.rollbacks";
    messages = Metrics.find_counter m "net.user_and_ctl_sends";
    guesses = Metrics.find_counter m "hope.guesses";
    order_violations = Metrics.find_counter m "hope.free_of_hits";
  }
