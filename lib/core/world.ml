module Engine = Hope_sim.Engine
module Scheduler = Hope_proc.Scheduler

type t = {
  engine : Engine.t;
  scheduler : Scheduler.t;
  runtime : Runtime.t;
}

let create ?(seed = 42) ?obs ?(latency = Hope_net.Latency.lan) ?fifo
    ?sched_config ?hope_config () =
  let engine = Engine.create ~seed ?obs () in
  let scheduler =
    Scheduler.create ~engine ~default_latency:latency ?fifo ?config:sched_config ()
  in
  let runtime = Runtime.install scheduler ?config:hope_config () in
  { engine; scheduler; runtime }

let spawn t ?node ~name body = Scheduler.spawn t.scheduler ?node ~name body

let run ?until ?max_events t =
  ignore (Scheduler.run ?until ?max_events t.scheduler : Engine.stop_reason)

let run_to_quiescence ?(what = "world") ?max_events t =
  match Scheduler.run ?max_events t.scheduler with
  | Engine.Quiescent -> ()
  | reason ->
    failwith
      (Format.asprintf "%s did not quiesce: %a" what Engine.pp_stop_reason reason)

let check_invariants ?(what = "world") t =
  match Invariant.check_all t.runtime with
  | [] -> ()
  | vs ->
    failwith
      (Format.asprintf "@[<v>%s invariant violations:@,%a@]" what
         (Format.pp_print_list Invariant.pp_violation)
         vs)

let status_name = function
  | Scheduler.Running -> "running"
  | Scheduler.Blocked -> "blocked"
  | Scheduler.Terminated -> "terminated"

let makespan ~what t pids =
  List.fold_left
    (fun acc pid ->
      match Scheduler.completion_time t.scheduler pid with
      | Some at -> Float.max acc at
      | None ->
        failwith
          (Printf.sprintf "%s: %s did not terminate (status %s)" what
             (Hope_types.Proc_id.to_string pid)
             (status_name (Scheduler.status t.scheduler pid))))
    0.0 pids

let explain t = Explain.of_runtime t.runtime
