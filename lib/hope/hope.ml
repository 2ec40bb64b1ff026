(** The HOPE library, in one place.

    This facade re-exports the public API so applications can start with a
    single dependency on [hope]:

    {[
      module Program = Hope.Program
      open Program.Syntax

      let () =
        let world = Hope.World.create () in
        let buddy =
          Hope.World.spawn world ~name:"affirmer"
            (let* env = Program.recv () in
             Program.affirm (Hope.Value.to_aid (Hope.Envelope.value env)))
        in
        let _ =
          Hope.World.spawn world ~name:"guesser"
            (let* ok, x = Program.guess_new () in
             let* () = Program.send buddy (Hope.Value.Aid_v x) in
             if ok then Program.lift (fun () -> print_endline "optimistic!")
             else Program.return ())
        in
        Hope.World.run world
    ]}

    The layers remain available individually ([hope.core], [hope.proc],
    …) for users who want only a subset. *)

(** {1 The programming model} *)

module Program = Hope_proc.Program
(** The process DSL: messaging, computation, and the four HOPE primitives
    ([guess] / [affirm] / [deny] / [free_of], plus [aid_init]). *)

module Value = Hope_types.Value
module Aid = Hope_types.Aid
module Proc_id = Hope_types.Proc_id
module Envelope = Hope_types.Envelope

(** {1 Running programs} *)

module Scheduler = Hope_proc.Scheduler
module Runtime = Hope_core.Runtime
module Engine = Hope_sim.Engine
module Latency = Hope_net.Latency
module Network = Hope_net.Network
module Topology = Hope_net.Topology

(** One-call setup for the common case: an engine, a scheduler, and the
    HOPE runtime, wired together. *)
module World = struct
  type t = {
    engine : Engine.t;
    scheduler : Scheduler.t;
    runtime : Runtime.t;
  }

  let create ?(seed = 42) ?(latency = Latency.lan) ?sched_config ?hope_config () =
    let engine = Engine.create ~seed () in
    let scheduler =
      Scheduler.create ~engine ~default_latency:latency ?config:sched_config ()
    in
    let runtime = Runtime.install scheduler ?config:hope_config () in
    { engine; scheduler; runtime }

  let spawn t ?node ~name body = Scheduler.spawn t.scheduler ?node ~name body

  let run ?until ?max_events t =
    ignore (Scheduler.run ?until ?max_events t.scheduler : Engine.stop_reason)

  let run_to_quiescence ?max_events t =
    match Scheduler.run ?max_events t.scheduler with
    | Engine.Quiescent -> ()
    | reason ->
      failwith
        (Format.asprintf "Hope.World: did not quiesce (%a)" Engine.pp_stop_reason
           reason)

  let check_invariants t =
    match Hope_core.Invariant.check_all t.runtime with
    | [] -> ()
    | vs ->
      failwith
        (Format.asprintf "@[<v>HOPE invariant violations:@,%a@]"
           (Format.pp_print_list Hope_core.Invariant.pp_violation)
           vs)

  let explain t = Hope_core.Explain.of_runtime t.runtime
end

(** {1 Introspection and verification} *)

module Invariant = Hope_core.Invariant
module Explain = Hope_core.Explain
module Metrics = Hope_sim.Metrics

(** {1 Higher layers} *)

module Rpc = Hope_rpc.Rpc
module Call_streaming = Hope_rpc.Call_streaming
module Timewarp = Hope_timewarp.Timewarp
module Governor = Hope_gov.Governor
module Gov_policy = Hope_gov.Policy
module Adversary = Hope_gov.Adversary

(** {1 Internals, for tooling} *)

module Aid_machine = Hope_core.Aid_machine
module History = Hope_core.History
module Control = Hope_core.Control
module Wire = Hope_types.Wire
module Interval_id = Hope_types.Interval_id
