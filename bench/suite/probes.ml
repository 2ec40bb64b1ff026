(* Layer probes: public calls of one layer timed in isolation, shaped by
   the counts the workload's own timed reps produced (queue depth,
   rollback depth, speculation depth, message mix). Where a workload
   bypasses the layer, the probe runs at a fixed default shape.

   Every probe times [batches] batches of about [ops] operations and
   reports the median per-op cost, so one descheduled batch does not move
   the number. *)

module Engine = Hope_sim.Engine
module Rng = Hope_sim.Rng
module Network = Hope_net.Network
module Journal = Hope_proc.Journal
module History = Hope_core.History
module Aid_machine = Hope_core.Aid_machine
module Throttle = Hope_gov.Throttle
module Recorder = Hope_obs.Recorder
module Event = Hope_obs.Event
module Mailbox = Hope_shard.Mailbox
open Hope_types

type budget = { ops : int; batches : int }

let full = { ops = 100_000; batches = 7 }
let quick = { ops = 10_000; batches = 3 }

(* Median ns and minor words per op over the batches. [batch ()] runs
   one batch and returns its op count; [prepare ()] runs untimed before
   each batch. *)
let measure b ?(prepare = ignore) batch =
  let ns = ref [] and mw = ref [] in
  for _ = 1 to b.batches do
    prepare ();
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let ops = batch () in
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    let ops = float_of_int (max 1 ops) in
    ns := ((t1 -. t0) *. 1e9 /. ops) :: !ns;
    mw := ((w1 -. w0) /. ops) :: !mw
  done;
  (Stats.median !ns, Stats.median !mw)

let clamp lo hi x = max lo (min hi x)
let shape ~default x = if x >= 1.0 then int_of_float (Float.round x) else default

(* Engine [schedule_call]/[run] as a hold model: [pending] events stay
   queued, each one's handler schedules its successor. *)
let engine b ~pending =
  let pending = clamp 1 65_536 pending in
  let ops = max b.ops (4 * pending) in
  let eng = Engine.create ~seed:1 () in
  let rng = Rng.create ~seed:7 in
  let delays = Array.init 4096 (fun _ -> Rng.exponential rng ~mean:1.0) in
  let left = ref 0 and k = ref 0 in
  let rec hold e i j =
    if !left > 0 then begin
      decr left;
      incr k;
      Engine.schedule_call e ~delay:delays.(!k land 4095) hold i j
    end
  in
  measure b (fun () ->
      left := ops - pending;
      for i = 1 to pending do
        Engine.schedule_call eng ~delay:delays.(i land 4095) hold i 0
      done;
      ignore (Engine.run eng : Engine.stop_reason);
      ops)

(* [Network.send] through a dispatcher, across two nodes on the
   workload's latency model, [burst] sends per engine turn. *)
let network b ~latency ~burst =
  let burst = clamp 1 64 burst in
  let eng = Engine.create ~seed:1 () in
  let net = Network.create ~engine:eng ~default_latency:latency ~dummy:0 () in
  Network.place net 0 ~node:0;
  Network.place net 1 ~node:1;
  Network.set_dispatcher net (fun ~dst:_ ~src:_ _ -> ());
  measure b (fun () ->
      let sent = ref 0 in
      while !sent < b.ops do
        for i = 1 to burst do
          Network.send net ~src:0 ~dst:1 i
        done;
        sent := !sent + burst;
        ignore (Engine.run eng : Engine.stop_reason)
      done;
      !sent)

let owner = Proc_id.of_int 1
let iid seq = Interval_id.make ~owner ~seq

(* [Journal.rollback_to] the oldest of [depth] segments, and
   [Journal.release_oldest] of each segment in turn. Each segment holds
   one consume and one send record; a batch runs over enough journals to
   undo about [ops] intervals. *)
let journal b ~depth =
  let depth = clamp 1 4096 depth in
  let n = max 1 (b.ops / depth) in
  let js = ref [||] in
  let prepare () =
    js :=
      Array.init n (fun _ ->
          let j = Journal.create ~dummy:0 ~dummy_ck:0 () in
          for s = 1 to depth do
            Journal.open_segment j ~iid:(iid s) ~ck:s;
            Journal.push_consume j s;
            Journal.push_send j ~msg_id:s ~dst:2
          done;
          j)
  in
  let rollback, _ =
    measure b ~prepare (fun () ->
        Array.iter
          (fun j ->
            ignore
              (Journal.rollback_to j (iid 1) ~consume:ignore
                 ~send:(fun ~msg_id:_ ~dst:_ -> ())
                : (int * int) option))
          !js;
        n * depth)
  in
  let release, _ =
    measure b ~prepare (fun () ->
        Array.iter
          (fun j ->
            for s = 1 to depth do
              ignore (Journal.release_oldest j (iid s) ~consume:ignore : bool)
            done)
          !js;
        n * depth)
  in
  (rollback, release)

(* [History.push] then [History.cumulative_ido] — the per-interval work
   of beginning speculation — up to [depth] live intervals. *)
let history b ~depth =
  let depth = clamp 1 1024 depth in
  let n = max 1 (b.ops / depth) in
  let aids = Array.init depth (fun i -> Aid.of_proc (Proc_id.of_int (i + 10))) in
  let hs = ref [||] in
  let prepare () = hs := Array.init n (fun i -> History.create (Proc_id.of_int i)) in
  fst
    (measure b ~prepare (fun () ->
         Array.iter
           (fun h ->
             for d = 0 to depth - 1 do
               ignore
                 (History.push h ~kind:History.Explicit
                    ~ido:(Aid.Set.singleton aids.(d)) ~now:0.0
                   : History.interval);
               ignore (History.cumulative_ido h : Aid.Set.t)
             done)
           !hs;
         n * depth))

(* [Aid_machine.handle_into] over episodes shaped like the workload's
   message mix: per AID, [guesses] Guess messages, [acquires]
   Acquire/Release pairs on an escalated machine, then one Affirm or —
   at [deny_share] of AIDs — one Deny. *)
let aid_machine b ~guesses ~acquires ~deny_share =
  let guesses = clamp 1 256 guesses and acquires = clamp 0 64 acquires in
  let per_episode = guesses + (2 * acquires) + 1 in
  let episodes = max 1 (b.ops / per_episode) in
  let reply _ _ _ = () in
  (* spread the denied episodes evenly at [deny_share] *)
  let denials k = Float.to_int (float_of_int k *. deny_share) in
  fst
    (measure b (fun () ->
         for e = 0 to episodes - 1 do
           let m = Aid_machine.create (Aid.of_proc (Proc_id.of_int (e + 10))) in
           for g = 1 to guesses do
             Aid_machine.handle_into m (Wire.Guess { iid = iid g }) ~reply
           done;
           if acquires > 0 then begin
             Aid_machine.escalate m;
             for q = 1 to acquires do
               let ticket = iid (-q - 1) in
               Aid_machine.handle_into m (Wire.Acquire { iid = ticket }) ~reply;
               Aid_machine.handle_into m (Wire.Release { iid = ticket }) ~reply
             done
           end;
           let resolve =
             if denials (e + 1) > denials e then Wire.Deny { iid = iid 0 }
             else Wire.Affirm { iid = iid 0; ido = Aid.Set.empty }
           in
           Aid_machine.handle_into m resolve ~reply
         done;
         episodes * per_episode))

(* [Throttle.bump] round-robin over [keys] keys as virtual time
   advances. *)
let throttle b ~keys =
  let keys = clamp 1 4096 keys in
  fst
    (measure b (fun () ->
         let t = Throttle.create () in
         for i = 0 to b.ops - 1 do
           Throttle.bump t ~now:(float_of_int i *. 1e-5) ~key:(i mod keys) 0.1
         done;
         b.ops))

(* [Recorder.emit] into a storing recorder, message-path payloads. *)
let recorder b =
  let payload =
    Event.Msg_send { dst = Proc_id.of_int 2; msg_id = 1; tags = Aid.Set.empty }
  in
  let r = Recorder.create () in
  Recorder.enable r;
  fst
    (measure b ~prepare:(fun () -> Recorder.clear r) (fun () ->
         for i = 1 to b.ops do
           Recorder.emit r ~time:(float_of_int i) ~proc:owner payload
         done;
         b.ops))

(* [Mailbox] push on a second domain, pop on this one. *)
let mailbox b =
  fst
    (measure b (fun () ->
         let mb = Mailbox.create ~dummy:0 () in
         let producer =
           Domain.spawn (fun () ->
               for i = 1 to b.ops do
                 Mailbox.push mb i ~while_waiting:ignore
               done)
         in
         let got = ref 0 in
         while !got < b.ops do
           match Mailbox.pop mb with
           | Some _ -> incr got
           | None -> Domain.cpu_relax ()
         done;
         Domain.join producer;
         b.ops))

(* All probes, shaped by the per-layer medians [v] of the timed reps
   ([committed] units per rep). The default width of 64 pending events or
   throttled keys applies where the workload bypasses the layer. *)
let run b ~latency ~committed (v : string -> float) =
  let per_aid name =
    let aids = v "aid.aids_per_commit" in
    if aids > 0.0 then v name /. aids else 0.0
  in
  let engine_ns, engine_mw = engine b ~pending:(shape ~default:64 (v "sim.pool_peak")) in
  let net_ns, net_mw =
    let events = v "sim.events_per_commit" in
    let burst = if events > 0.0 then v "net.sends_per_commit" /. events else 0.0 in
    network b ~latency ~burst:(shape ~default:1 burst)
  in
  let rollback_ns, release_ns =
    journal b ~depth:(shape ~default:1 (v "proc.rollback_depth_mean"))
  in
  let push_ns = history b ~depth:(shape ~default:1 (v "control.spec_depth_mean")) in
  let aid_ns =
    let affirms = v "aid.affirm_msgs_per_commit" and denies = v "aid.deny_msgs_per_commit" in
    aid_machine b
      ~guesses:(shape ~default:1 (per_aid "aid.guess_msgs_per_commit"))
      ~acquires:(shape ~default:0 (per_aid "aid.acquire_msgs_per_commit"))
      ~deny_share:(if affirms +. denies > 0.0 then denies /. (affirms +. denies) else 0.0)
  in
  let bump_ns =
    throttle b
      ~keys:(shape ~default:64 (v "aid.aids_per_commit" *. float_of_int committed))
  in
  [
    ("sim.probe_ns_per_event", engine_ns);
    ("sim.probe_mw_per_event", engine_mw);
    ("net.probe_ns_per_message", net_ns);
    ("net.probe_mw_per_message", net_mw);
    ("proc.probe_rollback_ns_per_interval", rollback_ns);
    ("proc.probe_release_ns_per_interval", release_ns);
    ("control.probe_push_ns", push_ns);
    ("aid.probe_ns_per_msg", aid_ns);
    ("gov.probe_ns_per_bump", bump_ns);
    ("obs.probe_ns_per_emit", recorder b);
    ("shard.probe_ring_ns_per_msg", mailbox b);
  ]
