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
        Hope.World.run_to_quiescence world;
        Hope.World.check_invariants world
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

module World = Hope_core.World
(** Engine, scheduler and runtime in one call, plus the drivers' shared
    ending: run to quiescence, check invariants, read the makespan. *)

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
