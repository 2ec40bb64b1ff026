open Hope_types
module Program = Hope_proc.Program
module Scheduler = Hope_proc.Scheduler
module World = Hope_core.World
module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Timewarp = Hope_timewarp.Timewarp
open Program.Syntax

type params = {
  n_lps : int;
  jobs : int;
  mean_delay : float;
  remote_prob : float;
  horizon : float;
  event_cost : float;
  latency : Hope_net.Latency.t;
}

let default_params =
  {
    n_lps = 4;
    jobs = 8;
    mean_delay = 1.0;
    remote_prob = 0.5;
    horizon = 10.0;
    event_cost = 50e-6;
    latency = Hope_net.Latency.lan;
  }

type lp_state = { handled : int; checksum : int }

let model p =
  {
    Timewarp.init = (fun _ -> { handled = 0; checksum = 0 });
    handle =
      (fun ~lp ~ts st (job : Job.t) ->
        let st' =
          {
            handled = st.handled + 1;
            checksum = Job.checksum_mix st.checksum ~lp ~ts job;
          }
        in
        let delay, dest =
          Job.route ~n_lps:p.n_lps ~mean_delay:p.mean_delay
            ~remote_prob:p.remote_prob ~from_lp:lp job
        in
        (st', [ (dest, ts +. delay, { job with Job.hop = job.Job.hop + 1 }) ]));
  }

let seeds p =
  List.init p.jobs (fun j ->
      (j mod p.n_lps, Job.seed_ts { Job.job_id = j; hop = 0 } ~mean_delay:p.mean_delay,
       { Job.job_id = j; hop = 0 }))

type outcome = {
  checksums : int array;
  handled_total : int;
  processed : int;
  rollbacks : int;
  messages : int;
  physical_time : float;
}

(* ------------------------------------------------------------------ *)
(* Sequential reference                                                *)
(* ------------------------------------------------------------------ *)

let run_sequential p =
  let r =
    Timewarp.Sequential.run (model p) ~n_lps:p.n_lps ~horizon:p.horizon
      ~seeds:(seeds p)
  in
  {
    checksums = Array.map (fun s -> s.checksum) r.Timewarp.Sequential.states;
    handled_total = Array.fold_left (fun acc s -> acc + s.handled) 0 r.states;
    processed = r.events;
    rollbacks = 0;
    messages = r.events;
    physical_time = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Time Warp                                                           *)
(* ------------------------------------------------------------------ *)

let run_timewarp ?(seed = 42) p =
  let engine = Engine.create ~seed () in
  let cfg =
    {
      Timewarp.n_lps = p.n_lps;
      physical_latency = p.latency;
      event_cost = p.event_cost;
      gvt_interval = 10e-3;
      horizon = p.horizon;
    }
  in
  let tw = Timewarp.create ~engine cfg (model p) in
  List.iter (fun (dst, ts, job) -> Timewarp.inject tw ~dst ~ts job) (seeds p);
  (match Timewarp.run tw with
  | Engine.(Event_limit | Stopped | Time_limit) as reason ->
    failwith
      (Format.asprintf "phold/timewarp did not quiesce: %a"
         Engine.pp_stop_reason reason)
  | _ -> ());
  let st = Timewarp.stats tw in
  {
    checksums =
      Array.init p.n_lps (fun i -> (Timewarp.state_of tw i).checksum);
    handled_total =
      Array.init p.n_lps (fun i -> (Timewarp.state_of tw i).handled)
      |> Array.fold_left ( + ) 0;
    processed = st.Timewarp.processed;
    rollbacks = st.rollbacks;
    messages = st.messages;
    physical_time = st.physical_time;
  }

(* ------------------------------------------------------------------ *)
(* Sharded Time Warp across OCaml 5 domains                            *)
(* ------------------------------------------------------------------ *)

let shard_spec ?(grain = 0) p =
  let base = model p in
  let handle =
    if grain <= 0 then base.Timewarp.handle
    else fun ~lp ~ts st job ->
      (* Deterministic synthetic event weight: phold's real handler is a
         few dozen ns, far below cross-domain traffic costs, so scaling
         runs give each event [grain] iterations of integer mixing.
         [Sys.opaque_identity] keeps the loop from being reasoned away. *)
      let x = ref (lp + 1) in
      for _ = 1 to grain do
        x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF
      done;
      ignore (Sys.opaque_identity !x);
      base.Timewarp.handle ~lp ~ts st job
  in
  {
    Hope_shard.Shard.model = { base with Timewarp.handle };
    n_lps = p.n_lps;
    horizon = p.horizon;
    seeds = seeds p;
    digest =
      (fun (j : Job.t) -> (j.Job.job_id * 8191) + (j.Job.hop * 131) + 7);
    dummy = { Job.job_id = -1; hop = -1 };
  }

let run_parallel ?(domains = 1) ?grain ?obs_shard p =
  let r = Hope_shard.Shard.run ~domains ?obs_shard (shard_spec ?grain p) in
  ( {
      checksums = Array.map (fun (s : lp_state) -> s.checksum) r.Hope_shard.Shard.states;
      handled_total =
        Array.fold_left (fun acc (s : lp_state) -> acc + s.handled) 0 r.states;
      processed = r.processed;
      rollbacks = r.rollbacks;
      messages = r.committed;
      physical_time = 0.0;
    },
    r )

(* ------------------------------------------------------------------ *)
(* HOPE-expressed optimistic simulation                                *)
(* ------------------------------------------------------------------ *)

let flush_marker = Value.String "flush"

let encode_event ~ts (job : Job.t) =
  Value.triple (Value.Float ts) (Value.Int job.Job.job_id) (Value.Int job.Job.hop)

let decode_event v =
  match v with
  | Value.Pair (Value.Float ts, Value.Pair (Value.Int job_id, Value.Int hop)) ->
    Some (ts, { Job.job_id; hop })
  | _ -> None

(* Per-LP loop state. [buffer] is a reorder buffer of drained events,
   [outstanding] the (ts, aid) pairs of optimistic "no straggler below ts"
   assumptions still open. Everything lives in the continuation, so HOPE
   rollback restores it consistently. *)
type lp_loop = {
  lvt : float;
  buffer : (float * Job.t) list;  (* sorted ascending by ts *)
  outstanding : (float * Aid.t) list;
  st : lp_state;
}

let insert_event (ts, job) buffer =
  let rec go = function
    | [] -> [ (ts, job) ]
    | (ts', _) :: _ as l when ts < ts' -> (ts, job) :: l
    | x :: rest -> x :: go rest
  in
  go buffer

let hope_lp p ~lp_id ~peers ~results =
  let rec loop (s : lp_loop) =
    let* s = drain s in
    match s.buffer with
    | (ts, _) :: _ when ts >= s.lvt -> process s
    | (_, _) :: _ ->
      (* The head undercuts our virtual time: a deny is in flight and our
         own rollback is coming; wait for it rather than compute garbage. *)
      let* env = Program.recv () in
      let* s = ingest s env in
      loop s
    | [] ->
      let* env = Program.recv () in
      let* s = ingest s env in
      loop s
  and drain s =
    let* m = Program.recv_opt () in
    match m with
    | None -> Program.return s
    | Some env ->
      let* s = ingest s env in
      drain s
  and ingest s env =
    let v = Envelope.value env in
    if Value.equal v flush_marker then begin
      (* End of event traffic: commit every surviving assumption. *)
      let* () =
        Program.iter_list (fun (_, a) -> Program.affirm a) s.outstanding
      in
      let* () =
        Program.lift (fun () -> Hashtbl.replace results lp_id s.st)
      in
      Program.return { s with outstanding = [] }
    end
    else
      match decode_event v with
      | None -> Program.return s
      | Some (ts, job) ->
        if ts < s.lvt then begin
          (* Straggler: deny the earliest violated assumption; the denial
             rolls this LP (and every dependent output) back, after which
             the replayed mailbox is consumed in timestamp order. *)
          match
            List.filter (fun (ts_k, _) -> ts_k > ts) s.outstanding
            |> List.sort compare
          with
          | (_, earliest) :: _ ->
            let* () = Program.incr_counter "phold.stragglers" in
            let* () = Program.deny earliest in
            Program.return { s with buffer = insert_event (ts, job) s.buffer }
          | [] ->
            (* No open assumption covers it: can only happen after a
               flush, which the driver only sends at quiescence. *)
            Program.return s
        end
        else Program.return { s with buffer = insert_event (ts, job) s.buffer }
  and process s =
    match s.buffer with
    | [] -> loop s
    | (ts, job) :: rest ->
      let* a = Program.aid_init () in
      let* ok = Program.guess a in
      if not ok then
        (* Our "no straggler" assumption failed: the event goes back to
           the buffer and is re-ordered against the replayed arrivals. *)
        loop { s with buffer = insert_event (ts, job) rest }
      else begin
        let* () = Program.compute p.event_cost in
        let* () = Program.incr_counter "phold.events" in
        let st' =
          {
            handled = s.st.handled + 1;
            checksum = Job.checksum_mix s.st.checksum ~lp:lp_id ~ts job;
          }
        in
        let delay, dest =
          Job.route ~n_lps:p.n_lps ~mean_delay:p.mean_delay
            ~remote_prob:p.remote_prob ~from_lp:lp_id job
        in
        let ts' = ts +. delay in
        let* () =
          if ts' > p.horizon then Program.return ()
          else
            Program.send peers.(dest)
              (encode_event ~ts:ts' { job with Job.hop = job.Job.hop + 1 })
        in
        loop
          {
            lvt = ts;
            buffer = rest;
            outstanding = (ts, a) :: s.outstanding;
            st = st';
          }
      end
  in
  loop { lvt = neg_infinity; buffer = []; outstanding = []; st = { handled = 0; checksum = 0 } }

let run_hope ?(seed = 42) ?obs ?(on_setup = ignore) p =
  let w =
    World.create ~seed ?obs ~latency:p.latency
      ~sched_config:Scheduler.free_config ()
  in
  let sched = w.World.scheduler in
  on_setup w.runtime;
  let results : (int, lp_state) Hashtbl.t = Hashtbl.create 16 in
  let peers = Array.make p.n_lps (Proc_id.of_int 0) in
  for i = 0 to p.n_lps - 1 do
    peers.(i) <-
      Scheduler.spawn sched ~node:i ~name:(Printf.sprintf "lp-%d" i)
        (hope_lp p ~lp_id:i ~peers ~results)
  done;
  let driver = Proc_id.of_int 100_000 in
  List.iter
    (fun (dst, ts, job) ->
      Scheduler.send_user sched ~src:driver ~dst:peers.(dst) ~tags:Aid.Set.empty
        (encode_event ~ts job))
    (seeds p);
  World.run_to_quiescence ~what:"phold/hope events" ~max_events:50_000_000 w;
  Array.iter
    (fun lp ->
      Scheduler.send_user sched ~src:driver ~dst:lp ~tags:Aid.Set.empty flush_marker)
    peers;
  World.run_to_quiescence ~what:"phold/hope flush" ~max_events:50_000_000 w;
  World.check_invariants ~what:"phold/hope" w;
  let m = Engine.metrics w.engine in
  let checksums = Array.make p.n_lps 0 in
  let handled = ref 0 in
  Hashtbl.iter
    (fun lp st ->
      checksums.(lp) <- st.checksum;
      handled := !handled + st.handled)
    results;
  {
    checksums;
    handled_total = !handled;
    processed = Metrics.find_counter m "phold.events";
    rollbacks = Metrics.find_counter m "hope.rollbacks";
    messages = Metrics.find_counter m "net.user_and_ctl_sends";
    physical_time = Engine.now w.engine;
  }
