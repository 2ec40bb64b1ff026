(* Shared scenario builders used by the experiment tables (main.ml) and
   the bechamel micro-benchmarks. Each builds a world, runs it to
   quiescence, and returns the measurements the tables print. *)

open Hope_types
module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Scheduler = Hope_proc.Scheduler
module Program = Hope_proc.Program
module Runtime = Hope_core.Runtime
module World = Hope_core.World
module Control = Hope_core.Control
open Program.Syntax

(* --------------------------------------------------------------- *)
(* E2: wait-free primitive execution at varying system sizes        *)
(* --------------------------------------------------------------- *)

type e2_result = {
  processes : int;
  primitives : int;
  parks : int;  (** times a HOPE primitive blocked — must be 0 *)
  recv_parks : int;  (** ordinary receive parks, for contrast *)
  virtual_cost_per_primitive : float;
}

(* Every process runs [rounds] guess/affirm cycles on its own assumptions
   while every other process does the same: local HOPE work must not slow
   down or block as the system grows. *)
let run_e2 ?obs ~processes ~rounds () =
  let config = { Scheduler.epoch_1995_config with primitive_cost = 20e-6 } in
  let w = World.create ~seed:17 ?obs ~sched_config:config () in
  let sched = w.World.scheduler in
  let affirmer_body =
    Program.repeat rounds
      (let* env = Program.recv () in
       Program.affirm (Value.to_aid (Envelope.value env)))
  in
  for i = 0 to processes - 1 do
    let affirmer =
      Scheduler.spawn sched ~node:(i mod 8) ~name:(Printf.sprintf "affirmer-%d" i)
        affirmer_body
    in
    ignore
      (Scheduler.spawn sched ~node:(i mod 8) ~name:(Printf.sprintf "guesser-%d" i)
         (Program.repeat rounds
            (let* x = Program.aid_init () in
             let* () = Program.send affirmer (Value.Aid_v x) in
             let* _ = Program.guess x in
             Program.return ()))
        : Proc_id.t)
  done;
  World.run_to_quiescence ~what:"e2" ~max_events:50_000_000 w;
  World.check_invariants ~what:"e2" w;
  let m = Engine.metrics w.engine in
  let primitives = Metrics.find_counter m "hope.primitive_execs" in
  {
    processes = 2 * processes;
    primitives;
    parks = Scheduler.primitive_parks sched;
    recv_parks = Metrics.find_counter m "sched.parks";
    virtual_cost_per_primitive = config.Scheduler.primitive_cost;
  }

(* --------------------------------------------------------------- *)
(* E3: message cost of speculation depth (the §6 quadratic claim)   *)
(* --------------------------------------------------------------- *)

type e3_result = {
  depth : int;
  intervals : int;
  control_messages : int;
  messages_per_interval : float;
}

(* One worker opens [depth] nested assumptions, then a definite resolver
   affirms them all. Interval k carries k dependencies, so registrations
   alone are depth^2/2: messages per interval grow linearly with depth,
   total quadratically — the cost §6 concedes. *)
let run_e3 ?obs ~depth () =
  let w = World.create ~seed:23 ?obs () in
  let sched = w.World.scheduler in
  let resolver =
    Scheduler.spawn sched ~node:1 ~name:"resolver"
      (let* env = Program.recv () in
       let aids = List.map Value.to_aid (Value.to_list (Envelope.value env)) in
       let* () = Program.compute 0.01 in
       Program.iter_list Program.affirm aids)
  in
  ignore
    (Scheduler.spawn sched ~node:0 ~name:"worker"
       (let rec go k acc =
          if k = 0 then
            Program.send resolver
              (Value.List (List.rev_map (fun x -> Value.Aid_v x) acc))
          else
            let* x = Program.aid_init () in
            let* _ = Program.guess x in
            go (k - 1) (x :: acc)
        in
        go depth [])
      : Proc_id.t);
  World.run_to_quiescence ~what:"e3" ~max_events:50_000_000 w;
  World.check_invariants ~what:"e3" w;
  let m = Engine.metrics w.engine in
  let wire_types = [ "guess"; "affirm"; "deny"; "replace"; "rollback" ] in
  let control_messages =
    List.fold_left
      (fun acc ty -> acc + Metrics.find_counter m (Printf.sprintf "hope.msgs.%s" ty))
      0 wire_types
  in
  {
    depth;
    intervals = Metrics.find_counter m "hope.intervals_started";
    control_messages;
    messages_per_interval = float_of_int control_messages /. float_of_int depth;
  }

(* --------------------------------------------------------------- *)
(* E11 helpers: report workload under runtime-configuration ablations *)
(* --------------------------------------------------------------- *)

let run_report_with_config ~latency ~config p =
  let r = Hope_workloads.Report.run ~latency ~hope_config:config ~mode:`Optimistic p in
  ( r.Hope_workloads.Report.completion_time,
    r.Hope_workloads.Report.messages,
    r.Hope_workloads.Report.rollbacks )

let run_report_gc ~latency p =
  let stats = ref (0, 0) in
  ignore
    (Hope_workloads.Report.run ~latency ~mode:`Optimistic p
       ~on_quiescence:(fun rt ->
         let gc = Runtime.collect_garbage rt in
         stats := (gc.Runtime.swept, gc.Runtime.retired))
      : Hope_workloads.Report.result);
  !stats

(* --------------------------------------------------------------- *)
(* E4: mutual-affirm rings — Algorithm 1 vs Algorithm 2 (§5.3)      *)
(* --------------------------------------------------------------- *)

type e4_result = {
  ring : int;
  quiesced : bool;
  events : int;
  cycle_cuts : int;
  control_messages : int;
  all_true : bool;
}

(* [ring] processes each guess their own assumption and speculatively
   affirm their neighbour's, building the cyclic dependency graph of
   Figure 13 at scale. *)
let run_e4 ?obs ~ring ~algorithm ~event_cap () =
  let { World.engine; scheduler = sched; runtime = rt } =
    World.create ~seed:31 ?obs
      ~hope_config:{ Runtime.default_config with algorithm } ()
  in
  let member i =
    let* env = Program.recv () in
    let aids = List.map Value.to_aid (Value.to_list (Envelope.value env)) in
    let own = List.nth aids i and next = List.nth aids ((i + 1) mod ring) in
    let* _ = Program.guess own in
    Program.affirm next
  in
  let members =
    List.init ring (fun i ->
        Scheduler.spawn sched ~node:i ~name:(Printf.sprintf "member-%d" i) (member i))
  in
  ignore
    (Scheduler.spawn sched ~node:0 ~name:"coordinator"
       (let* aids =
          Program.fold 1 ring [] (fun acc _ ->
              let+ x = Program.aid_init () in
              x :: acc)
        in
        let payload = Value.List (List.rev_map (fun x -> Value.Aid_v x) aids) in
        Program.iter_list (fun m -> Program.send m payload) members)
      : Proc_id.t);
  (* Algorithm 1 may livelock: hitting [event_cap] is a result, not an
     error. Nothing here stops the engine or sets a horizon. *)
  let quiesced = Scheduler.run ~max_events:event_cap sched <> Engine.Event_limit in
  let m = Engine.metrics engine in
  let wire_types = [ "guess"; "affirm"; "deny"; "replace"; "rollback" ] in
  let control_messages =
    List.fold_left
      (fun acc ty -> acc + Metrics.find_counter m (Printf.sprintf "hope.msgs.%s" ty))
      0 wire_types
  in
  let all_true =
    quiesced
    && List.for_all
         (fun a -> Runtime.aid_state rt a = Hope_core.Aid_machine.True_)
         (Runtime.all_aids rt)
  in
  {
    ring;
    quiesced;
    events = Engine.events_processed engine;
    cycle_cuts = Runtime.cycle_cuts rt;
    control_messages;
    all_true;
  }

(* --------------------------------------------------------------- *)
(* Rollback-storage residency: a finalize-heavy stream              *)
(* --------------------------------------------------------------- *)

type compaction_result = {
  messages : int;
  consumed : int;
  resident_final : int;
  peak_resident : int;
  peak_open : int;
  compactions : int;
  reclaimed : int;
  bounded : bool;  (** resident <= max(threshold, 2*open+1) after every round *)
}

(* A sink consumes a long stream of tagged messages, every one of which
   opens a speculative interval; between bursts the driver finalizes all
   of them, the way the runtime's finalize rule would. Without epoch
   compaction the mailbox retains every arrival ever delivered; with it,
   residency must stay bounded by open speculation (plus the compaction
   threshold), no matter how many messages flow through. Hooks fake the
   minimal runtime, replacing the installed one's: interval per tagged
   consumption, finalize from outside. *)
let run_compaction ?(messages = 10_000) ?(burst = 50) () =
  let w =
    World.create ~seed:47 ~latency:(Hope_net.Latency.Constant 1e-4) ~fifo:true
      ~sched_config:Scheduler.free_config ()
  in
  let sched = w.World.scheduler in
  let iid_seq = ref 0 in
  let stack = ref [] in
  let consumed = ref 0 in
  let sink =
    Scheduler.spawn sched ~node:0 ~name:"sink"
      (let rec loop () =
         let* _ = Program.recv () in
         let* () = Program.lift (fun () -> incr consumed) in
         loop ()
       in
       loop ())
  in
  Scheduler.set_hooks sched
    {
      Scheduler.h_tags = (fun _ -> Aid.Set.empty);
      h_current = (fun _ -> (match !stack with [] -> None | i :: _ -> Some i));
      h_aid_init = (fun _ -> Aid.of_proc (Proc_id.of_int 9_998));
      h_guess = (fun _ _ -> Scheduler.Pessimistic);
      h_send_delay = (fun _ -> 0.0);
      h_implicit =
        (fun pid _ ->
          incr iid_seq;
          let iid = Interval_id.make ~owner:pid ~seq:!iid_seq in
          stack := iid :: !stack;
          Scheduler.Accept (Some iid));
      h_affirm = (fun _ _ -> ());
      h_deny = (fun _ _ -> ());
      h_free_of = (fun _ _ -> ());
      h_control = (fun ~self:_ ~src:_ _ -> ());
      h_cancelled = (fun ~self:_ ~iid:_ ~msg_id:_ -> ());
      h_spawned = (fun _ -> ());
      h_spawn_child = (fun ~parent:_ ~child:_ -> None);
    };
  let m = Engine.metrics w.engine in
  let bounded = ref true in
  let peak_resident = ref 0 in
  let peak_open = ref 0 in
  let tag_seq = ref 0 in
  let sent = ref 0 in
  while !sent < messages do
    for _ = 1 to min burst (messages - !sent) do
      incr sent;
      incr tag_seq;
      let tag = Aid.of_proc (Proc_id.of_int (10_000 + !tag_seq)) in
      Scheduler.send_user sched
        ~src:(Proc_id.of_int 9_999)
        ~dst:sink
        ~tags:(Aid.Set.singleton tag)
        (Value.Int !sent)
    done;
    World.run_to_quiescence ~what:"compaction scenario" ~max_events:50_000_000 w;
    peak_open := max !peak_open (Scheduler.open_checkpoints sched sink);
    peak_resident := max !peak_resident (Scheduler.arrivals_resident sched sink);
    (* Finalize-heavy: every interval the burst opened resolves, oldest
       first, exactly as cascade_finalize drains the history window. *)
    List.iter
      (fun iid -> Scheduler.release_interval sched sink iid)
      (List.rev !stack);
    stack := [];
    let resident = Scheduler.arrivals_resident sched sink in
    let open_ = Scheduler.open_checkpoints sched sink in
    if resident > max 64 ((2 * open_) + 1) then bounded := false
  done;
  {
    messages;
    consumed = !consumed;
    resident_final = Scheduler.arrivals_resident sched sink;
    peak_resident = !peak_resident;
    peak_open = !peak_open;
    compactions = Metrics.find_counter m "sched.mailbox_compactions";
    reclaimed = Metrics.find_counter m "sched.arrivals_reclaimed";
    bounded = !bounded;
  }
