open Hope_types
module Program = Hope_proc.Program
module Scheduler = Hope_proc.Scheduler
module Runtime = Hope_core.Runtime
module History = Hope_core.History
module Control = Hope_core.Control
module Invariant = Hope_core.Invariant
module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Telemetry = Hope_sim.Telemetry
module Monitor = Hope_obs.Monitor
open Program.Syntax

type scenario =
  | Bounce
  | Hostile_oracle
  | Corruption
  | Flash_crowd
  | Compaction_stress
  | Contention_storm
  | Cross_shard_straggler

let all =
  [
    Bounce;
    Hostile_oracle;
    Corruption;
    Flash_crowd;
    Compaction_stress;
    Contention_storm;
    Cross_shard_straggler;
  ]

let scenario_name = function
  | Bounce -> "bounce"
  | Hostile_oracle -> "hostile-oracle"
  | Corruption -> "corruption"
  | Flash_crowd -> "flash-crowd"
  | Compaction_stress -> "compaction-stress"
  | Contention_storm -> "contention-storm"
  | Cross_shard_straggler -> "cross-shard-straggler"

let scenario_of_string s =
  match List.find_opt (fun sc -> String.equal (scenario_name sc) s) all with
  | Some sc -> Ok sc
  | None ->
    Error
      (Printf.sprintf
         "unknown adversary %S \
          (bounce|hostile-oracle|corruption|flash-crowd|compaction-stress|contention-storm|cross-shard-straggler)"
         s)

type outcome = {
  scenario : string;
  governed : bool;
  quiesced : bool;
  legal : bool;
  consistent : bool;
  events : int;
  makespan : float;
  guesses : int;
  finalized : int;
  rolled_back : int;
  gated : int;
  send_stalls : int;
  forced_cuts : int;
  diagnostics : int;
  bounce_flagged : bool;
  peak_open : int;
  recovery_vtime : float;
  compactions : int;
  arrivals_reclaimed : int;
  escalations : int;
  acquire_waits : int;
}

(* ------------------------------------------------------------------ *)
(* World plumbing                                                      *)
(* ------------------------------------------------------------------ *)

type world = {
  engine : Engine.t;
  sched : Scheduler.t;
  rt : Runtime.t;
  tele : Telemetry.t;
  gov : Governor.t option;
}

let make_world ~seed ~governed ~policy ~hope_config =
  let { Hope_core.World.engine; scheduler = sched; runtime = rt } =
    Hope_core.World.create ~seed ~fifo:true ~sched_config:Scheduler.free_config
      ~hope_config ()
  in
  (* Deep monitoring arms the replace-churn bounce detector — the
     adversary experiments are exactly the runs where its evidence is
     worth the per-Replace allocation. *)
  let tele = Telemetry.create ~deep:true ~recorder:(Engine.obs engine) () in
  Telemetry.install tele engine;
  let gov = if governed then Some (Governor.install ~policy rt ~tele) else None in
  { engine; sched; rt; tele; gov }

(* ------------------------------------------------------------------ *)
(* Scenario bodies                                                     *)
(* ------------------------------------------------------------------ *)

(* Figure 13's mutual speculative affirms, injected on purpose: p and q
   each guess their own assumption and speculatively affirm the other's.
   Under Algorithm 1 the Replace messages orbit the two-cycle forever. *)
let spawn_bounce w =
  let body other own =
    let* _ = Program.guess own in
    Program.affirm other
  in
  let p =
    Scheduler.spawn w.sched ~name:"p"
      (let* env = Program.recv () in
       let y, x = Value.to_pair (Envelope.value env) in
       body (Value.to_aid x) (Value.to_aid y))
  in
  let q =
    Scheduler.spawn w.sched ~name:"q"
      (let* env = Program.recv () in
       let x, y = Value.to_pair (Envelope.value env) in
       body (Value.to_aid y) (Value.to_aid x))
  in
  let c =
    Scheduler.spawn w.sched ~name:"coordinator"
      (let* x = Program.aid_init () in
       let* y = Program.aid_init () in
       let* () = Program.send p (Value.Pair (Value.Aid_v y, Value.Aid_v x)) in
       Program.send q (Value.Pair (Value.Aid_v x, Value.Aid_v y)))
  in
  [ p; q; c ]

(* An oracle that denies everything, slowly — speculation against it is
   pure waste. A leader announces a handful of shared assumptions; the
   workers keep re-guessing them round after round. Every denial rolls a
   worker back, and (governed) feeds the per-AID throttle, so later
   rounds go pessimistic at the gate instead of re-speculating. *)
let spawn_hostile_oracle w =
  let n_aids = 4 and n_workers = 3 and rounds = 6 in
  let oracle =
    Scheduler.spawn w.sched ~name:"oracle"
      (let rec loop () =
         let* env = Program.recv () in
         match Envelope.value env with
         | Value.Aid_v a ->
           let* () = Program.compute 2e-3 in
           let* () = Program.deny a in
           loop ()
         | _ -> loop ()
       in
       loop ())
  in
  let worker_body =
    let rec collect n acc =
      if n = 0 then Program.return (List.rev acc)
      else
        let* env = Program.recv () in
        collect (n - 1) (Value.to_aid (Envelope.value env) :: acc)
    in
    let* aids = collect n_aids [] in
    let rec round r =
      if r = 0 then Program.return ()
      else
        let rec per = function
          | [] -> round (r - 1)
          | a :: rest ->
            let* ok = Program.guess a in
            (* Optimistic work is 20x the pessimistic fallback: what the
               hostile oracle makes the ungoverned run throw away. *)
            let* () = Program.compute (if ok then 400e-6 else 20e-6) in
            per rest
        in
        per aids
    in
    round rounds
  in
  let workers =
    List.init n_workers (fun i ->
        Scheduler.spawn w.sched ~node:(2 + i)
          ~name:(Printf.sprintf "mark-%d" i)
          worker_body)
  in
  let leader =
    Scheduler.spawn w.sched ~node:1 ~name:"leader"
      (let rec make n acc =
         if n = 0 then Program.return (List.rev acc)
         else
           let* a = Program.aid_init () in
           let* () = Program.send oracle (Value.Aid_v a) in
           make (n - 1) (a :: acc)
       in
       let* aids = make n_aids [] in
       let rec tell = function
         | [] -> Program.return ()
         | pid :: rest ->
           let rec send_all = function
             | [] -> tell rest
             | a :: more ->
               let* () = Program.send pid (Value.Aid_v a) in
               send_all more
           in
           send_all aids
       in
       tell workers)
  in
  leader :: workers

(* A clean speculative pipeline (resolvers affirm everything), so the
   forged Rollbacks injected by [run] are the only source of rollbacks
   and recovery time is attributable to the corruption alone. *)
let spawn_corruption w =
  let n_workers = 3 and tasks = 25 in
  let resolver =
    Scheduler.spawn w.sched ~name:"resolver"
      (let rec loop () =
         let* env = Program.recv () in
         match Envelope.value env with
         | Value.Aid_v a ->
           let* () = Program.compute 400e-6 in
           let* () = Program.affirm a in
           loop ()
         | _ -> loop ()
       in
       loop ())
  in
  let worker_body =
    let rec task n =
      if n = 0 then Program.return ()
      else
        let* x = Program.aid_init () in
        let* () = Program.send resolver (Value.Aid_v x) in
        let* _ = Program.guess x in
        let* () = Program.compute 300e-6 in
        task (n - 1)
    in
    task tasks
  in
  List.init n_workers (fun i ->
      Scheduler.spawn w.sched ~node:(1 + i)
        ~name:(Printf.sprintf "victim-%d" i)
        worker_body)

(* Forge one Rollback against each victim that currently holds live
   speculation: src is an AID process the oldest live interval genuinely
   depends on, so the message is indistinguishable from a real denial
   cascade at the wire level. Returns the number of faults injected. *)
let inject_corruption w victims =
  List.fold_left
    (fun acc pid ->
      match Runtime.history_of w.rt pid with
      | exception Not_found -> acc
      | h -> (
        match History.live h with
        | [] -> acc
        | itv :: _ -> (
          match Aid.Set.choose_opt itv.History.ido with
          | None -> acc
          | Some a ->
            Scheduler.send_wire w.sched ~src:(Aid.to_proc a) ~dst:pid
              (Wire.Rollback { iid = itv.History.iid });
            acc + 1)))
    0 victims

(* A flash crowd of speculating producers piling onto one slow
   validator. Each producer's history window grows as fast as it can
   open intervals and only drains at the validator's pace; governed,
   sends past the window limit pay a stall, which paces the producers
   to the validator. *)
let spawn_flash_crowd w =
  let base = 2 and crowd = 6 and rounds = 60 in
  let validator =
    Scheduler.spawn w.sched ~name:"validator"
      (let rec loop () =
         let* env = Program.recv () in
         match Envelope.value env with
         | Value.Aid_v a ->
           let* () = Program.compute 1.5e-3 in
           let* () = Program.affirm a in
           loop ()
         | _ -> loop ()
       in
       loop ())
  in
  let producer_body ~start =
    let* () = if start > 0.0 then Program.compute start else Program.return () in
    let rec round r =
      if r = 0 then Program.return ()
      else
        let* x = Program.aid_init () in
        let* () = Program.send validator (Value.Aid_v x) in
        let* _ = Program.guess x in
        let* () = Program.compute 100e-6 in
        round (r - 1)
    in
    round rounds
  in
  let base_producers =
    List.init base (fun i ->
        Scheduler.spawn w.sched ~node:(1 + i)
          ~name:(Printf.sprintf "base-%d" i)
          (producer_body ~start:0.0))
  in
  let crowd_producers =
    List.init crowd (fun i ->
        Scheduler.spawn w.sched
          ~node:(1 + base + i)
          ~name:(Printf.sprintf "crowd-%d" i)
          (producer_body ~start:10e-3))
  in
  base_producers @ crowd_producers

(* High-volume retraction pressure aimed at the mailbox. Pumps stream
   speculative tagged messages at one consumer while an oracle affirms
   and denies their assumptions in alternation: every denial retracts
   the in-flight send (a Cancel the consumer must absorb), every affirm
   finalizes the consumer's implicit interval — both make arrivals
   reclaimable, so epoch compaction runs continuously under load. The
   run must stay legal with compaction on; the outcome's [compactions]
   and [arrivals_reclaimed] show the mailbox actually churned. *)
let spawn_compaction_stress w =
  let pumps = 4 and rounds = 120 in
  let consumer =
    Scheduler.spawn w.sched ~name:"consumer"
      (let rec loop () =
         let* _ = Program.recv () in
         loop ()
       in
       loop ())
  in
  let oracle =
    Scheduler.spawn w.sched ~node:1 ~name:"coin-oracle"
      (let rec loop flip =
         let* env = Program.recv () in
         match Envelope.value env with
         | Value.Aid_v a ->
           let* () = Program.compute 100e-6 in
           let* () = if flip then Program.deny a else Program.affirm a in
           loop (not flip)
         | _ -> loop flip
       in
       loop true)
  in
  let pump_body =
    let rec round r =
      if r = 0 then Program.return ()
      else
        let* x = Program.aid_init () in
        let* () = Program.send oracle (Value.Aid_v x) in
        let* _ = Program.guess x in
        let* () = Program.send consumer (Value.Int r) in
        (* Paced just under the oracle's service rate: the speculation
           window stays shallow, so every denial's rollback suffix is
           short and the run converges with or without a governor — the
           stress is on the mailbox, not on window growth (flash-crowd
           covers that). *)
        let* () = Program.compute 500e-6 in
        round (r - 1)
    in
    round rounds
  in
  List.init pumps (fun i ->
      Scheduler.spawn w.sched ~node:(2 + i)
        ~name:(Printf.sprintf "pump-%d" i)
        pump_body)

(* A contention storm aimed at durable assumptions (DESIGN.md §10):
   zipf-skewed clients bracket every round with a guess on a shared
   guard AID — seven rounds in ten land on guard 0 — while a hostile
   oracle denies each round's work assumption outright. Ungoverned,
   every denial rolls back the client's whole speculative suffix
   (later rounds are chained speculation), so the cascade re-executes
   guard guesses and work rounds over and over: pure waste feeding on
   itself. With an escalation-enabled policy the per-guess pressure on
   guard 0, weighted by the global wasted%% analytic, trips queued
   acquisition; a parked acquire has no checkpoint and so is a
   {e speculation barrier} — cascades flatten to a single round, the
   monitor-visible storm (peak open intervals, cascade depth) clears,
   and the run stays legal with every waiter drained. *)
let spawn_contention_storm w =
  let n_clients = 6 and n_guards = 4 and rounds = 20 in
  let oracle =
    Scheduler.spawn w.sched ~name:"abort-oracle"
      (let rec loop () =
         let* env = Program.recv () in
         match Envelope.value env with
         | Value.Aid_v a ->
           let* () = Program.compute 1e-3 in
           let* () = Program.deny a in
           loop ()
         | _ -> loop ()
       in
       loop ())
  in
  let client_body ~client =
    let rec collect n acc =
      if n = 0 then Program.return (Array.of_list (List.rev acc))
      else
        let* env = Program.recv () in
        collect (n - 1) (Value.to_aid (Envelope.value env) :: acc)
    in
    let* guards = collect n_guards [] in
    Program.for_ 0 (rounds - 1) (fun round ->
        (* Deterministic zipf-flavoured draw: guard 0 takes ~70% of the
           traffic, the cold guards share the rest. *)
        let idx =
          if ((client * 13) + (round * 7)) mod 10 < 7 then 0
          else 1 + ((client + round) mod (n_guards - 1))
        in
        let guard = guards.(idx) in
        let* _entered = Program.guess guard in
        let* x = Program.aid_init () in
        let* () = Program.send oracle (Value.Aid_v x) in
        let* ok = Program.guess x in
        (* Optimistic work is 20x the pessimistic fallback — all of it
           wasted, since the oracle denies everything. *)
        let* () = Program.compute (if ok then 400e-6 else 20e-6) in
        Program.release guard)
  in
  let clients =
    List.init n_clients (fun i ->
        Scheduler.spawn w.sched ~node:(2 + i)
          ~name:(Printf.sprintf "storm-%d" i)
          (client_body ~client:i))
  in
  let warden =
    Scheduler.spawn w.sched ~node:1 ~name:"warden"
      (let rec make n acc =
         if n = 0 then Program.return (List.rev acc)
         else
           let* g = Program.aid_init () in
           let* () = Program.affirm g in
           make (n - 1) (g :: acc)
       in
       let* guards = make n_guards [] in
       let rec tell = function
         | [] -> Program.return ()
         | pid :: rest ->
           let rec send_all = function
             | [] -> tell rest
             | g :: more ->
               let* () = Program.send pid (Value.Aid_v g) in
               send_all more
           in
           send_all guards
       in
       tell clients)
  in
  warden :: clients

(* The sharded executor's failure mode, replayed at the HOPE layer: a
   consumer advances its local virtual time against an in-order on-shard
   feed, guessing per event that no straggler will undercut it — while an
   off-shard feeder's deliveries arrive in bursts (cross-shard mailboxes
   batch), each burst carrying timestamps from a window the consumer has
   already passed. Every burst is a straggler volley: the consumer denies
   the earliest violated assumption, rolls back its speculative suffix
   through the journal machinery, and replays the merged order. The
   acceptance claim is Dubois & Guerraoui-style self-stabilization:
   governed or not, every volley must land the run back in a legal
   configuration, with the rollback cascade bounded by the speculation
   depth (not the run length). *)
let spawn_cross_shard_straggler w =
  let local_events = 30 and batches = 3 and per_batch = 4 in
  let total = local_events + (batches * per_batch) in
  let insert ts l =
    let rec go = function
      | [] -> [ ts ]
      | x :: _ as l when ts < x -> ts :: l
      | x :: rest -> x :: go rest
    in
    go l
  in
  let consumer =
    Scheduler.spawn w.sched ~name:"mirror"
      (let rec loop ~lvt ~buffer ~outstanding ~count =
         if count >= total then
           Program.iter_list
             (fun (_, a) -> Program.affirm a)
             (List.rev outstanding)
         else
           match buffer with
           | ts :: rest when ts >= lvt ->
             let* a = Program.aid_init () in
             let* ok = Program.guess a in
             if ok then
               let* () = Program.compute 200e-6 in
               loop ~lvt:ts ~buffer:rest
                 ~outstanding:((ts, a) :: outstanding)
                 ~count:(count + 1)
             else
               (* gate (or a raced denial): process pessimistically —
                  no open assumption, so nothing for a later straggler
                  to void *)
               let* () = Program.compute 20e-6 in
               loop ~lvt:ts ~buffer:rest ~outstanding ~count:(count + 1)
           | ts :: rest
             when not (List.exists (fun (k, _) -> k > ts) outstanding) ->
             (* an uncovered straggler: the work above it was committed
                pessimistically, so accept it out of order (definite,
                conservative-simulator style) *)
             let* () = Program.compute 20e-6 in
             loop ~lvt ~buffer:rest ~outstanding ~count:(count + 1)
           | _ ->
             (* head undercuts lvt with a deny in flight, or buffer is
                empty: wait for traffic (or for our own rollback) *)
             let* env = Program.recv () in
             (match Envelope.value env with
             | Value.Float ts ->
               if ts < lvt then begin
                 match
                   List.filter (fun (k, _) -> k > ts) outstanding
                   |> List.sort compare
                 with
                 | (_, earliest) :: _ ->
                   let* () = Program.incr_counter "shard.stragglers" in
                   let* () = Program.deny earliest in
                   loop ~lvt ~buffer:(insert ts buffer) ~outstanding ~count
                 | [] ->
                   loop ~lvt ~buffer:(insert ts buffer) ~outstanding ~count
               end
               else loop ~lvt ~buffer:(insert ts buffer) ~outstanding ~count
             | _ -> loop ~lvt ~buffer ~outstanding ~count)
       in
       loop ~lvt:neg_infinity ~buffer:[] ~outstanding:[] ~count:0)
  in
  let local_feeder =
    (* in-order, paced: the consumer's lvt tracks this stream *)
    Scheduler.spawn w.sched ~node:1 ~name:"on-shard-feed"
      (Program.for_ 1 local_events (fun i ->
           let* () = Program.compute 1e-3 in
           Program.send consumer (Value.Float (float_of_int i *. 1e-3))))
  in
  let remote_feeder =
    (* bursty: each batch is sent when the consumer's lvt has already
       passed every timestamp in it *)
    Scheduler.spawn w.sched ~node:2 ~name:"off-shard-feed"
      (Program.for_ 1 batches (fun b ->
           let* () = Program.compute 8e-3 in
           Program.iter_list
             (fun j ->
               let ts =
                 ((float_of_int (b - 1) *. 8.0)
                 +. (2.0 *. float_of_int j)
                 -. 0.5)
                 *. 1e-3
               in
               Program.send consumer (Value.Float ts))
             (List.init per_batch (fun j -> j + 1))))
  in
  [ consumer; local_feeder; remote_feeder ]

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 42) ?(policy = Policy.default) ?(max_events = 200_000)
    ~governed scenario =
  let hope_config =
    match scenario with
    (* The bounce is only a livelock under Algorithm 1 — that is the
       point: the governor must resolve what the runtime alone cannot. *)
    | Bounce -> { Runtime.default_config with algorithm = Control.Algorithm_1 }
    | _ -> Runtime.default_config
  in
  let w = make_world ~seed ~governed ~policy ~hope_config in
  let finite = match scenario with
    | Bounce -> spawn_bounce w
    | Hostile_oracle -> spawn_hostile_oracle w
    | Corruption -> spawn_corruption w
    | Flash_crowd -> spawn_flash_crowd w
    | Compaction_stress -> spawn_compaction_stress w
    | Contention_storm -> spawn_contention_storm w
    | Cross_shard_straggler -> spawn_cross_shard_straggler w
  in
  let last_injection = ref 0.0 in
  (match scenario with
  | Corruption ->
    (* Three waves of forged rollbacks, spaced so the pipeline has
       rebuilt live speculation between them. *)
    List.iter
      (fun at ->
        Engine.schedule_call_at w.engine ~at
          (fun eng _ _ ->
            if inject_corruption w finite > 0 then
              last_injection := Engine.now eng)
          0 0)
      [ 5e-3; 15e-3; 25e-3 ]
  | _ -> ());
  let stop = Scheduler.run ~max_events w.sched in
  Telemetry.sample_now w.tele;
  let quiesced = stop = Engine.Quiescent in
  let terminated =
    List.for_all (fun pid -> Scheduler.status w.sched pid = Scheduler.Terminated)
      finite
  in
  let legal =
    quiesced && terminated
    && Runtime.live_intervals w.rt = 0
    && Invariant.check_wait_free w.rt = []
  in
  let consistent = legal && Invariant.check_all w.rt = [] in
  let m = Engine.metrics w.engine in
  let mon = Telemetry.monitor w.tele in
  let bounce_flagged =
    List.exists
      (function Monitor.Bounce_livelock _ -> true | _ -> false)
      (Monitor.diagnostics mon)
  in
  {
    scenario = scenario_name scenario;
    governed;
    quiesced;
    legal;
    consistent;
    events = Engine.events_processed w.engine;
    makespan = Engine.now w.engine;
    guesses = Metrics.find_counter m "hope.guesses";
    finalized = Metrics.find_counter m "hope.finalizes";
    rolled_back = Metrics.find_counter m "hope.rollbacks";
    gated = Metrics.find_counter m "hope.guesses_gated";
    send_stalls = Metrics.find_counter m "hope.send_stalls";
    forced_cuts = (match w.gov with None -> 0 | Some g -> Governor.forced_cuts g);
    diagnostics = Monitor.diagnostics_count mon;
    bounce_flagged;
    peak_open = Monitor.peak_open_intervals mon;
    recovery_vtime =
      (if scenario = Corruption && quiesced && !last_injection > 0.0 then
         Engine.now w.engine -. !last_injection
       else 0.0);
    compactions = Metrics.find_counter m "sched.mailbox_compactions";
    arrivals_reclaimed = Metrics.find_counter m "sched.arrivals_reclaimed";
    escalations = Metrics.find_counter m "hope.escalations";
    acquire_waits = Metrics.find_counter m "hope.acquire_waits";
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%s (%s):@,\
    \  quiesced=%b legal=%b consistent=%b@,\
    \  events=%d makespan=%.6fs peak_open=%d@,\
    \  guesses=%d finalized=%d rolled_back=%d@,\
    \  gated=%d send_stalls=%d forced_cuts=%d@,\
    \  diagnostics=%d bounce_flagged=%b@,\
    \  compactions=%d arrivals_reclaimed=%d@,\
    \  escalations=%d acquire_waits=%d%t@]"
    o.scenario
    (if o.governed then "governed" else "ungoverned")
    o.quiesced o.legal o.consistent o.events o.makespan o.peak_open o.guesses
    o.finalized o.rolled_back o.gated o.send_stalls o.forced_cuts o.diagnostics
    o.bounce_flagged o.compactions o.arrivals_reclaimed o.escalations
    o.acquire_waits
    (fun ppf ->
      if o.recovery_vtime > 0.0 then
        Format.fprintf ppf "@,  recovery=%.6fs" o.recovery_vtime)
