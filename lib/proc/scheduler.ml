open Hope_types
module Engine = Hope_sim.Engine
module Rng = Hope_sim.Rng
module Metrics = Hope_sim.Metrics
module Vec = Hope_sim.Vec
module Network = Hope_net.Network

type config = {
  send_cost : float;
  recv_cost : float;
  primitive_cost : float;
  rollback_cost : float;
  spawn_cost : float;
  fuel : int;
}

let free_config =
  {
    send_cost = 0.0;
    recv_cost = 0.0;
    primitive_cost = 0.0;
    rollback_cost = 0.0;
    spawn_cost = 0.0;
    fuel = 1_000_000;
  }

let epoch_1995_config =
  {
    send_cost = 50e-6;
    recv_cost = 30e-6;
    primitive_cost = 20e-6;
    rollback_cost = 1e-3;
    spawn_cost = 2e-3;
    fuel = 1_000_000;
  }

type implicit_decision =
  | Accept of Interval_id.t option
  | Reject

type rollback_cause =
  | Assumption_denied of Aid.t
  | Assumption_revoked
  | Message_cancelled of int

type guess_decision =
  | Speculate of Interval_id.t
  | Pessimistic
  | Acquire of { bound : float }
      (** the AID is escalated (DESIGN.md §10): join its pessimistic
          acquisition queue instead of opening a speculative interval;
          [bound] is the virtual-time limit on the queued wait *)

type hooks = {
  h_tags : Proc_id.t -> Aid.Set.t;
  h_current : Proc_id.t -> Interval_id.t option;
  h_aid_init : Proc_id.t -> Aid.t;
  h_guess : Proc_id.t -> Aid.t -> guess_decision;
  h_send_delay : Proc_id.t -> float;
  h_implicit : Proc_id.t -> Envelope.t -> implicit_decision;
  h_affirm : Proc_id.t -> Aid.t -> unit;
  h_deny : Proc_id.t -> Aid.t -> unit;
  h_free_of : Proc_id.t -> Aid.t -> unit;
  h_control : self:Proc_id.t -> src:Proc_id.t -> Wire.t -> unit;
  h_cancelled : self:Proc_id.t -> iid:Interval_id.t -> msg_id:int -> unit;
  h_spawned : Proc_id.t -> unit;
  h_spawn_child : parent:Proc_id.t -> child:Proc_id.t -> Interval_id.t option;
}

type consumption = Not_consumed | Consumed_definite | Consumed_by of Interval_id.t

type arrival = {
  env : Envelope.t;
  mutable consumption : consumption;
  mutable dropped : bool;
}

type checkpoint =
  | Guess_checkpoint of { aid : Aid.t; k : bool -> unit Program.t }
  | Recv_checkpoint of { resume : unit Program.t; trigger : arrival option }
      (** [trigger] is the arrival whose consumption opened the interval
          ([None] for a speculative spawn's whole-body checkpoint); the
          record reference makes the denied-trigger drop O(1) and stays
          valid across mailbox compaction (arrival records are stable
          heap objects — only their [Vec] slots move) *)

type pstate =
  | Runnable of unit Program.t
  | Waiting of { filter : Program.filter; resume : unit Program.t }
  | Acquiring of {
      ticket : Interval_id.t;
      aid : Aid.t;
      k : bool -> unit Program.t;
    }
      (** parked in an escalated AID's acquisition queue; resumes with
          [k true] on Grant (holding the AID) or [k false] on Abort or
          timeout — every acquire completes, so the park is bounded *)
  | Terminated_st

type proc = {
  pid : Proc_id.t;
  pname : string;
  mutable state : pstate;
  mutable gen : int;  (** invalidates stale scheduled resumptions *)
  arrivals : arrival Vec.t;
  prng : Rng.t;
  journal : (arrival, checkpoint) Journal.t;
      (** segmented undo log of speculative effects; one segment (with
          its checkpoint) per live interval, mirroring the runtime's
          history window — see {!Journal} *)
  by_msg_id : (int, arrival) Hashtbl.t;
      (** resident arrivals by message id: O(1) Cancel targeting without
          scanning the mailbox; entries die when the arrival is reclaimed *)
  mutable reclaimable : int;
      (** resident arrivals that are dropped or definitively consumed —
          no live journal segment references them, so epoch compaction
          may evict them from [arrivals] *)
  cancelled_early : (int, unit) Hashtbl.t;
      (** cancels that arrived before their message (non-FIFO networks) *)
  mutable held : (Aid.t * Interval_id.t) list;
      (** pessimistic grants currently held (AID, ticket); released by
          [Program.Release], termination, or rollback *)
  mutable completed_at : float option;
}

type actor = {
  apid : Proc_id.t;
  aname : string;
  handler : self:Proc_id.t -> src:Proc_id.t -> Envelope.t -> unit;
}

type entity = User_proc of proc | Native_actor of actor

type status = Running | Blocked | Terminated

(* Hot-path metric handles, resolved once at [create]: per-emission the
   scheduler touches a record field and bumps an int — no string hashing.
   [c_wire] is indexed by {!Wire.tag}. *)
type hot_metrics = {
  c_all_sends : Metrics.counter;
  c_user_sends : Metrics.counter;
  c_cancel_sends : Metrics.counter;
  c_wire : Metrics.counter array;
  c_untagged : Metrics.counter;
  c_poisoned : Metrics.counter;
  c_consumes : Metrics.counter;
  c_parks : Metrics.counter;
  c_terminations : Metrics.counter;
  c_cancels_received : Metrics.counter;
  c_cancels_to_definite : Metrics.counter;
  c_spawns : Metrics.counter;
  c_actor_spawns : Metrics.counter;
  c_primitive_execs : Metrics.counter;
  c_guesses : Metrics.counter;
  c_guesses_gated : Metrics.counter;
  c_acquire_waits : Metrics.counter;
  c_acquire_timeouts : Metrics.counter;
  c_send_stalls : Metrics.counter;
  c_cancels_sent : Metrics.counter;
  c_rollbacks : Metrics.counter;
  h_rollback_depth : Metrics.histogram;
  c_compactions : Metrics.counter;
  c_arrivals_reclaimed : Metrics.counter;
  c_cancels_orphaned : Metrics.counter;
  g_ckpt_live : Metrics.gauge;
  g_arrivals_resident : Metrics.gauge;
  g_journal_depth : Metrics.gauge;
}

type t = {
  eng : Engine.t;
  net : Envelope.t Network.t;
  cfg : config;
  entities : entity Vec.t;  (** dense: index = pid (pids are sequential) *)
  spawn_order : Proc_id.t Vec.t;  (** user processes, in spawn order *)
  mutable next_msg_id : int;
  mutable hooks : hooks option;
  mutable hope_primitive_parks : int;
  mutable resume_disp : Engine.t -> int -> int -> unit;
      (** the direct-dispatch resume entry point: [(pid, gen)] immediates
          instead of a closure per park/spawn/rollback *)
  mutable next_ticket : int;
      (** next acquisition-ticket sequence; tickets are negative interval
          ids ([seq <= -2]: [-1] is the definite interval) so they route
          through [Interval_id.owner] without colliding with real
          intervals *)
  mutable acquire_disp : Engine.t -> int -> int -> unit;
      (** direct-dispatch acquire-timeout entry point, carrying
          [(pid, ticket_seq)] — no closure per queued acquire *)
  hm : hot_metrics;
  (* Speculative-storage totals behind the [hope.ckpt_live] /
     [hope.arrivals_resident] / [hope.journal_depth] gauges, summed over
     every process and pushed into the registry at each mutation site. *)
  mutable n_ckpt_live : int;
  mutable n_resident : int;
  mutable n_journal : int;
}

exception Process_failure of { pid : Proc_id.t; name : string; exn : exn }

exception Fuel_exhausted of { pid : Proc_id.t; name : string }

let engine t = t.eng
let network t = t.net
let config t = t.cfg
let set_hooks t hooks = t.hooks <- Some hooks

let hooks_exn t =
  match t.hooks with
  | Some h -> h
  | None -> failwith "Scheduler: HOPE runtime not installed (no hooks)"

let metrics t = Engine.metrics t.eng

let counter t name = Metrics.counter (metrics t) name

(* Structured observability: events attributed to the acting process, at
   the current virtual time. Everything the scheduler emits is net-class
   (one or more events per message, the densest part of the stream), so
   its sites guard on [storing]: payloads are not even allocated while
   no recorder stores, whatever tap is attached. *)
let obs_on_net t = Hope_obs.Recorder.storing (Engine.obs t.eng)

let obs_emit t ~proc payload =
  Hope_obs.Recorder.emit (Engine.obs t.eng) ~time:(Engine.now t.eng) ~proc
    payload

let find_proc t pid =
  let i = Proc_id.to_int pid in
  if i < 0 || i >= Vec.length t.entities then
    invalid_arg (Printf.sprintf "Scheduler: unknown process %s" (Proc_id.to_string pid))
  else
    match Vec.get t.entities i with
    | User_proc p -> p
    | Native_actor _ ->
      invalid_arg
        (Printf.sprintf "Scheduler: %s is an actor, not a user process"
           (Proc_id.to_string pid))

let fresh_msg_id t =
  let id = t.next_msg_id in
  t.next_msg_id <- t.next_msg_id + 1;
  id

let fresh_ticket t owner =
  let seq = t.next_ticket in
  t.next_ticket <- t.next_ticket - 1;
  Interval_id.make ~owner ~seq

(* ------------------------------------------------------------------ *)
(* Speculative-storage accounting                                      *)
(* ------------------------------------------------------------------ *)

(* Sentinel payload for the network's delivery-batch pool and the
   mailbox/journal pools: dispatched or released slots are scrubbed with
   these so dead envelopes don't stay reachable through the pools. *)
let dummy_envelope =
  Envelope.make ~id:(-1) ~src:(Proc_id.of_int (-1)) ~dst:(Proc_id.of_int (-1))
    (Envelope.Cancel { msg_id = -1 })

let dummy_arrival =
  { env = dummy_envelope; consumption = Consumed_definite; dropped = true }

let dummy_checkpoint = Recv_checkpoint { resume = Program.Return (); trigger = None }

let sync_storage_gauges t =
  Metrics.set_gauge t.hm.g_ckpt_live (float_of_int t.n_ckpt_live);
  Metrics.set_gauge t.hm.g_arrivals_resident (float_of_int t.n_resident);
  Metrics.set_gauge t.hm.g_journal_depth (float_of_int t.n_journal)

(* An arrival is reclaimable once it can never be consumed again and no
   live journal segment needs to restore it: dropped is sticky, and a
   definite consumption is final (rollback only ever flips [Consumed_by]
   claims, and only from the segment that made them). [p.reclaimable]
   counts these exactly; both transitions below are monotone, so each
   arrival is counted at most once. *)
let is_reclaimable a =
  a.dropped || (match a.consumption with Consumed_definite -> true | _ -> false)

let mark_dropped p a =
  if not (is_reclaimable a) then p.reclaimable <- p.reclaimable + 1;
  a.dropped <- true

let mark_definite p a =
  if not (is_reclaimable a) then p.reclaimable <- p.reclaimable + 1;
  a.consumption <- Consumed_definite

(* Epoch compaction of the arrival log: slide live arrivals down in
   place (receive scans pick the first match in arrival order, so the
   relative order of live arrivals is part of the determinism contract —
   no free-list reuse of interior slots), evict the reclaimable ones
   from the id index, and scrub the tail. Triggered only from safe
   points (delivery, interval release) where no scan holds an index, and
   only by deterministic count-based thresholds. *)
let compact_threshold = 64

let compact_mailbox t p =
  let n = Vec.length p.arrivals in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let a = Vec.get p.arrivals i in
    if is_reclaimable a then Hashtbl.remove p.by_msg_id a.env.Envelope.id
    else begin
      if !kept < i then Vec.set p.arrivals !kept a;
      incr kept
    end
  done;
  let reclaimed = n - !kept in
  Vec.truncate p.arrivals ~keep:!kept ~dummy:dummy_arrival;
  p.reclaimable <- 0;
  t.n_resident <- t.n_resident - reclaimed;
  Metrics.incr t.hm.c_compactions;
  Metrics.add t.hm.c_arrivals_reclaimed reclaimed;
  sync_storage_gauges t;
  if Hope_obs.Recorder.enabled (Engine.obs t.eng) then
    obs_emit t ~proc:p.pid
      (Hope_obs.Event.Mailbox_compact { kept = !kept; reclaimed })

let maybe_compact t p =
  let n = Vec.length p.arrivals in
  if n >= compact_threshold && 2 * p.reclaimable > n then compact_mailbox t p

(* A cancel that arrived before its message only matters while the
   message can still arrive and be consumed. Once the process has
   terminated with no live segment it can never run again (nothing can
   roll it back — rollback needs a checkpoint), so pending early-cancel
   entries are orphans: purge them and count them, closing the leak
   where a message retracted before delivery pinned its entry for the
   process lifetime. *)
let purge_orphaned_cancels t p =
  if
    p.state = Terminated_st
    && Journal.segments p.journal = 0
    && Hashtbl.length p.cancelled_early > 0
  then begin
    Metrics.add t.hm.c_cancels_orphaned (Hashtbl.length p.cancelled_early);
    Hashtbl.reset p.cancelled_early
  end

(* ------------------------------------------------------------------ *)
(* Message transmission                                                *)
(* ------------------------------------------------------------------ *)

let transmit t ~src ~dst payload =
  let id = fresh_msg_id t in
  let env = Envelope.make ~id ~src ~dst payload in
  Metrics.incr t.hm.c_all_sends;
  (match payload with
  | Envelope.Control w -> Metrics.incr t.hm.c_wire.(Wire.tag w)
  | Envelope.User _ -> Metrics.incr t.hm.c_user_sends
  | Envelope.Cancel _ -> Metrics.incr t.hm.c_cancel_sends);
  (* Structured wire-level observability: every transmission becomes a
     typed event; one branch when off. *)
  if obs_on_net t then
    (match payload with
    | Envelope.Control wire -> obs_emit t ~proc:src (Hope_obs.Event.Wire_send { dst; wire })
    | Envelope.User { tags; _ } ->
      obs_emit t ~proc:src (Hope_obs.Event.Msg_send { dst; msg_id = id; tags })
    | Envelope.Cancel { msg_id } ->
      obs_emit t ~proc:src (Hope_obs.Event.Cancel_send { dst; msg_id }));
  Network.send t.net ~src:(Proc_id.to_int src) ~dst:(Proc_id.to_int dst) env;
  id

let send_wire t ~src ~dst wire =
  ignore (transmit t ~src ~dst (Envelope.Control wire) : int)

let send_user t ~src ~dst ~tags value =
  ignore (transmit t ~src ~dst (Envelope.User { value; tags }) : int)

(* Release every pessimistic grant the process holds (termination and
   rollback both end the critical section: the AID must not stay held by
   a process that will never Release it, or the queue deadlocks). *)
let release_held t p =
  match p.held with
  | [] -> ()
  | held ->
    p.held <- [];
    List.iter
      (fun (aid, ticket) ->
        send_wire t ~src:p.pid ~dst:(Aid.to_proc aid)
          (Wire.Release { iid = ticket }))
      held

(* ------------------------------------------------------------------ *)
(* Process stepping                                                    *)
(* ------------------------------------------------------------------ *)

(* [make_runnable] is the only way a parked/new process becomes scheduled:
   it bumps the generation so that any previously scheduled resumption of
   an older continuation is ignored when it fires. The resumption itself
   is a direct-dispatch event carrying [(pid, gen)] — see [handle_resume],
   reached through [t.resume_disp] — so parking allocates no closure. *)
let rec make_runnable t p ~delay prog =
  p.state <- Runnable prog;
  p.gen <- p.gen + 1;
  Engine.schedule_call t.eng ~delay t.resume_disp (Proc_id.to_int p.pid) p.gen

and handle_resume t pidi gen =
  match Vec.get t.entities pidi with
  | User_proc p ->
    if p.gen = gen then (
      match p.state with
      | Runnable prog -> activate t p prog
      | Waiting _ | Acquiring _ | Terminated_st -> ())
  | Native_actor _ -> ()

and activate t p prog =
  try exec t p prog t.cfg.fuel with
  | Process_failure _ as e -> raise e
  | exn -> raise (Process_failure { pid = p.pid; name = p.pname; exn })

(* Execute instructions inline until the process parks or terminates.
   [fuel] bounds the number of zero-cost instructions per activation. *)
and exec : t -> proc -> unit Program.t -> int -> unit =
 fun t p prog fuel ->
  if fuel <= 0 then raise (Fuel_exhausted { pid = p.pid; name = p.pname });
  match prog with
  | Program.Return () -> terminate t p
  | Program.Bind (op, k) -> exec_op t p op k fuel

(* The continuation step shared by every instruction. A top-level member
   of the recursive group rather than a local [let continue_ …] closure:
   the closure would be allocated on every [exec_op] call, which is once
   per executed instruction — the interpreter's innermost loop. *)
and continue_k : type b. t -> proc -> (b -> unit Program.t) -> b -> float -> int -> unit =
 fun t p k x cost fuel ->
  if cost <= 0.0 then exec t p (k x) (fuel - 1)
  else make_runnable t p ~delay:cost (k x)

and exec_op : type b. t -> proc -> b Program.op -> (b -> unit Program.t) -> int -> unit =
 fun t p op k fuel ->
  match op with
  | Program.Send (dst, value) ->
    let tags =
      match t.hooks with Some h -> h.h_tags p.pid | None -> Aid.Set.empty
    in
    let msg_id = transmit t ~src:p.pid ~dst (Envelope.User { value; tags }) in
    (* A send from a speculative interval is journalled so a rollback can
       cancel it: the re-execution may send it again. The newest open
       segment is always the current interval (the segment stack mirrors
       the history), so the record is three pooled stores. *)
    (match t.hooks with
    | Some h -> (
      match h.h_current p.pid with
      | Some _iid ->
        Journal.push_send p.journal ~msg_id ~dst:(Proc_id.to_int dst);
        t.n_journal <- t.n_journal + 1;
        sync_storage_gauges t
      | None -> ())
    | None -> ());
    (* Governor back-pressure: the runtime may charge extra virtual time
       for a send from a deeply speculative process. The ungoverned hook
       returns the constant 0.0, so the branch below keeps the hot path
       on the exact original cost (no float arithmetic, no boxing). *)
    let delay = match t.hooks with Some h -> h.h_send_delay p.pid | None -> 0.0 in
    if delay > 0.0 then begin
      Metrics.incr t.hm.c_send_stalls;
      continue_k t p k () (t.cfg.send_cost +. delay) fuel
    end
    else continue_k t p k () t.cfg.send_cost fuel
  | Program.Recv filter -> try_recv t p filter k fuel
  | Program.Recv_opt filter -> try_recv_opt t p filter k fuel
  | Program.Aid_init ->
    let h = hooks_exn t in
    Metrics.incr t.hm.c_primitive_execs;
    let aid = h.h_aid_init p.pid in
    continue_k t p k aid t.cfg.primitive_cost fuel
  | Program.Guess aid ->
    let h = hooks_exn t in
    Metrics.incr t.hm.c_primitive_execs;
    Metrics.incr t.hm.c_guesses;
    (match h.h_guess p.pid aid with
    | Speculate iid ->
      Journal.open_segment p.journal ~iid ~ck:(Guess_checkpoint { aid; k });
      t.n_ckpt_live <- t.n_ckpt_live + 1;
      sync_storage_gauges t;
      (* guess eagerly returns True (§3); rollback re-enters k with false *)
      continue_k t p k true t.cfg.primitive_cost fuel
    | Pessimistic ->
      (* The governor throttled this assumption: take the pessimistic
         branch immediately — no interval, no checkpoint, no AID round
         trip. Still wait-free: the process continues at primitive cost. *)
      Metrics.incr t.hm.c_guesses_gated;
      continue_k t p k false t.cfg.primitive_cost fuel
    | Acquire { bound } ->
      (* The AID escalated to queued acquisition (DESIGN.md §10): park in
         its FIFO queue instead of opening a speculative interval. A
         Grant resumes [k true] holding the AID — definitely, with no
         checkpoint and no Replace traffic; an Abort resumes [k false].
         The wait is bounded: after [bound] virtual seconds the timeout
         below withdraws the ticket and takes the pessimistic branch, so
         the primitive always completes (wait-freedom, degraded to
         bounded-wait on escalated AIDs only). Re-entrant case: a
         rollback keeps grants, so a re-execution can reach this guess
         while already holding the AID — queueing behind itself would
         deadlock until the timeout; resume with the grant it has. *)
      if List.exists (fun (a, _) -> Aid.equal a aid) p.held then
        continue_k t p k true t.cfg.primitive_cost fuel
      else begin
        Metrics.incr t.hm.c_acquire_waits;
        let ticket = fresh_ticket t p.pid in
        p.state <- Acquiring { ticket; aid; k };
        send_wire t ~src:p.pid ~dst:(Aid.to_proc aid)
          (Wire.Acquire { iid = ticket });
        Engine.schedule_call t.eng ~delay:bound t.acquire_disp
          (Proc_id.to_int p.pid) ticket.Interval_id.seq
      end)
  | Program.Affirm aid ->
    let h = hooks_exn t in
    Metrics.incr t.hm.c_primitive_execs;
    h.h_affirm p.pid aid;
    continue_k t p k () t.cfg.primitive_cost fuel
  | Program.Deny aid ->
    let h = hooks_exn t in
    Metrics.incr t.hm.c_primitive_execs;
    h.h_deny p.pid aid;
    continue_k t p k () t.cfg.primitive_cost fuel
  | Program.Free_of aid ->
    let h = hooks_exn t in
    Metrics.incr t.hm.c_primitive_execs;
    h.h_free_of p.pid aid;
    continue_k t p k () t.cfg.primitive_cost fuel
  | Program.Release aid ->
    Metrics.incr t.hm.c_primitive_execs;
    (match List.partition (fun (a, _) -> Aid.equal a aid) p.held with
    | [], _ -> ()
    | grants, rest ->
      p.held <- rest;
      List.iter
        (fun (_, ticket) ->
          send_wire t ~src:p.pid ~dst:(Aid.to_proc aid)
            (Wire.Release { iid = ticket }))
        grants);
    continue_k t p k () t.cfg.primitive_cost fuel
  | Program.Spawn (name, body) ->
    let pid =
      spawn_internal t ~node:(Network.node_of t.net (Proc_id.to_int p.pid)) ~name body
    in
    (* A child spawned from a speculative parent inherits the parent's
       dependencies: spawning is causally a message. Its checkpoint is the
       whole body, so a denial re-runs the child from scratch. *)
    (match t.hooks with
    | Some h ->
      (match h.h_spawn_child ~parent:p.pid ~child:pid with
      | Some iid ->
        let child = find_proc t pid in
        Journal.open_segment child.journal ~iid
          ~ck:(Recv_checkpoint { resume = body; trigger = None });
        t.n_ckpt_live <- t.n_ckpt_live + 1;
        sync_storage_gauges t
      | None -> ())
    | None -> ());
    continue_k t p k pid 0.0 fuel
  | Program.Compute d ->
    if d < 0.0 then invalid_arg "Program.compute: negative duration";
    make_runnable t p ~delay:d (k ())
  | Program.Now -> continue_k t p k (Engine.now t.eng) 0.0 fuel
  | Program.Self -> continue_k t p k p.pid 0.0 fuel
  | Program.Random_float bound -> continue_k t p k (Rng.float p.prng bound) 0.0 fuel
  | Program.Random_bernoulli prob -> continue_k t p k (Rng.bernoulli p.prng ~p:prob) 0.0 fuel
  | Program.Random_int bound -> continue_k t p k (Rng.int p.prng bound) 0.0 fuel
  | Program.Observe (name, x) ->
    Metrics.observe (Metrics.histogram (metrics t) name) x;
    continue_k t p k () 0.0 fuel
  | Program.Incr_counter name ->
    Metrics.incr (counter t name);
    continue_k t p k () 0.0 fuel
  | Program.Lift f -> continue_k t p k (f ()) 0.0 fuel

(* Scan the arrival log for the first live message matching [filter].
   Consuming a tagged message begins an implicit-guess interval whose
   checkpoint is [resume] (§3: receivers implicitly apply guess to each AID
   in the tag). The runtime may instead reject a message outright when it
   is known-dead (a tag AID already denied); rejected messages are dropped
   and the scan continues. Returns the consumed arrival, or [None] when no
   live match exists. *)
and arrival_matches filter a =
  (not a.dropped)
  && a.consumption = Not_consumed
  && Envelope.is_user a.env
  &&
  match filter with
  | Program.Any -> true
  | Program.From src -> Proc_id.equal a.env.Envelope.src src
  | Program.Where pred -> pred a.env

(* The scan is a member of the recursive group, not a nested [let rec]:
   a local recursive function would be a fresh closure per receive. *)
and scan_consume : t -> proc -> Program.filter -> resume:unit Program.t -> arrival option
    =
 fun t p filter ~resume -> scan_arrivals t p filter resume 0

and scan_arrivals t p filter resume idx =
  if idx >= Vec.length p.arrivals then None
  else begin
    let a = Vec.get p.arrivals idx in
    if not (arrival_matches filter a) then scan_arrivals t p filter resume (idx + 1)
    else
      match
        match t.hooks with
        | None -> Accept None
        | Some h ->
          if Aid.Set.is_empty (Envelope.tags a.env) then begin
            (* Fast path: an untagged message carries no assumptions, so
               the runtime's implicit-guess hook accepts it unconditionally
               without opening an interval — skip the round-trip. O(1): a
               set's cardinal is a field. *)
            Metrics.incr t.hm.c_untagged;
            Accept None
          end
          else h.h_implicit p.pid a.env
      with
      | Reject ->
        a.dropped <- true;
        Metrics.incr t.hm.c_poisoned;
        scan_arrivals t p filter resume (idx + 1)
      | Accept interval ->
        Metrics.incr t.hm.c_consumes;
        let interval =
          match (interval, t.hooks) with
          | Some iid, _ ->
            Journal.open_segment p.journal ~iid
              ~ck:(Recv_checkpoint { resume; trigger = Some a });
            t.n_ckpt_live <- t.n_ckpt_live + 1;
            Some iid
          | None, Some h -> h.h_current p.pid
          | None, None -> None
        in
        (match interval with
        | Some iid ->
          (* The claim is journalled under the newest segment — the
             consuming interval itself for a tagged message, the current
             interval for an untagged one — so rollback restores it by
             walking the suffix, never the whole mailbox. *)
          a.consumption <- Consumed_by iid;
          Journal.push_consume p.journal a;
          t.n_journal <- t.n_journal + 1
        | None ->
          (* No live interval: the consumption is definite on the spot,
             which also makes the arrival reclaimable. *)
          mark_definite p a);
        sync_storage_gauges t;
        if obs_on_net t then
          obs_emit t ~proc:p.pid
            (Hope_obs.Event.Msg_recv
               { src = a.env.Envelope.src; msg_id = a.env.Envelope.id; iid = interval });
        Some a
  end

and try_recv :
    t -> proc -> Program.filter -> (Envelope.t -> unit Program.t) -> int -> unit =
 fun t p filter k fuel ->
  let resume = Program.Bind (Program.Recv filter, k) in
  match scan_consume t p filter ~resume with
  | None ->
    Metrics.incr t.hm.c_parks;
    p.state <- Waiting { filter; resume };
    (* Parking ends the receive scan, so it is a safe point — and the
       natural epoch boundary after a consumption burst: reclaimables
       created mid-scan (definite consumptions) compact here instead of
       waiting for the next delivery. This is what makes the residency
       bound hold at quiescence, not just between deliveries. *)
    maybe_compact t p
  | Some a ->
    if t.cfg.recv_cost <= 0.0 then exec t p (k a.env) (fuel - 1)
    else make_runnable t p ~delay:t.cfg.recv_cost (k a.env)

and try_recv_opt :
    t ->
    proc ->
    Program.filter ->
    (Envelope.t option -> unit Program.t) ->
    int ->
    unit =
 fun t p filter k fuel ->
  let resume = Program.Bind (Program.Recv_opt filter, k) in
  match scan_consume t p filter ~resume with
  | None -> exec t p (k None) (fuel - 1)
  | Some a ->
    if t.cfg.recv_cost <= 0.0 then exec t p (k (Some a.env)) (fuel - 1)
    else make_runnable t p ~delay:t.cfg.recv_cost (k (Some a.env))

and terminate t p =
  release_held t p;
  p.state <- Terminated_st;
  p.gen <- p.gen + 1;
  p.completed_at <- Some (Engine.now t.eng);
  Metrics.incr t.hm.c_terminations;
  (* A termination with live segments is still revivable by rollback;
     the matching purge then happens when the last segment is released. *)
  purge_orphaned_cancels t p

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)
(* ------------------------------------------------------------------ *)

and deliver_to_proc t p (env : Envelope.t) =
  match env.Envelope.payload with
  | Envelope.Control wire ->
    let h = hooks_exn t in
    h.h_control ~self:p.pid ~src:env.Envelope.src wire
  | Envelope.Cancel { msg_id } -> handle_cancel t p ~msg_id
  | Envelope.User _ ->
    let dropped = Hashtbl.mem p.cancelled_early env.Envelope.id in
    if dropped then Hashtbl.remove p.cancelled_early env.Envelope.id;
    let a = { env; consumption = Not_consumed; dropped } in
    (* An arrival born dropped (retracted before delivery) is reclaimable
       immediately. *)
    if dropped then p.reclaimable <- p.reclaimable + 1;
    Vec.push p.arrivals a;
    Hashtbl.replace p.by_msg_id env.Envelope.id a;
    t.n_resident <- t.n_resident + 1;
    sync_storage_gauges t;
    (if not dropped then
       match p.state with
       | Waiting { filter; resume } ->
         let ok =
           match filter with
           | Program.Any -> true
           | Program.From src -> Proc_id.equal env.Envelope.src src
           | Program.Where pred -> pred env
         in
         if ok then make_runnable t p ~delay:0.0 resume
       | Runnable _ | Acquiring _ | Terminated_st -> ());
    (* Delivery is a safe point: no receive scan is in flight, so the
       mailbox may compact under the arrival just pushed. *)
    maybe_compact t p

(* A speculative sender rolled back and retracted this message. If it is
   still unconsumed it simply disappears; if a speculative interval
   consumed it, that interval rolls back (and drops it). A definite
   consumer is impossible: a message is only consumed definitively when
   every tag assumption is already terminal-True, in which case the
   sending interval would have finalized, not rolled back. *)
and handle_cancel t p ~msg_id =
  Metrics.incr t.hm.c_cancels_received;
  (* Resident arrivals are indexed by message id, so targeting a Cancel
     is a table hit instead of a mailbox scan. A miss means the message
     either was never delivered (the cancel overtook it on a non-FIFO
     network) or was already reclaimed by compaction — in both cases the
     early-cancel entry is the correct, idempotent response (ids are
     never reused, so a stale entry can only go unmatched; orphans are
     purged when the process finishes for good). *)
  match Hashtbl.find_opt p.by_msg_id msg_id with
  | None -> Hashtbl.replace p.cancelled_early msg_id ()
  | Some a -> (
    match a.consumption with
    | Not_consumed -> mark_dropped p a
    | Consumed_by iid ->
      let h = hooks_exn t in
      h.h_cancelled ~self:p.pid ~iid ~msg_id;
      (* Whether or not the consumer was still live (it may have been
         rolled back by another cause already, restoring the message),
         the message itself is retracted for good. *)
      mark_dropped p a
    | Consumed_definite ->
      (* The consumer went definite — every tag assumption had resolved
         True — and then the sender was rolled back anyway by a
         NON-denial cause (a cancelled input or a revoked rewiring, whose
         cascades are invisible to dependency tags). A definite
         computation cannot be rolled back, so this delivery stands and
         the sender's re-execution delivers a fresh copy: at-least-once
         semantics in this narrow window (DESIGN.md §3.6). *)
      Metrics.incr t.hm.c_cancels_to_definite);
    (* A Cancel delivery is a safe point like any other delivery, and a
       retraction burst is exactly when drops pile up — compact here so
       mass cancellation cannot leave the mailbox bloated until the next
       user-message delivery. *)
    maybe_compact t p

and dispatch_delivery t ~dst ~src:_ env =
  match Vec.get t.entities dst with
  | User_proc p -> deliver_to_proc t p env
  | Native_actor a -> a.handler ~self:a.apid ~src:env.Envelope.src env

and spawn_internal : t -> node:int -> name:string -> unit Program.t -> Proc_id.t =
 fun t ~node ~name body ->
  let pid = Proc_id.of_int (Vec.length t.entities) in
  let p =
    {
      pid;
      pname = name;
      state = Runnable body;
      gen = 0;
      arrivals = Vec.create ();
      prng = Rng.split (Engine.rng t.eng);
      journal = Journal.create ~dummy:dummy_arrival ~dummy_ck:dummy_checkpoint ();
      by_msg_id = Hashtbl.create 8;
      reclaimable = 0;
      cancelled_early = Hashtbl.create 4;
      held = [];
      completed_at = None;
    }
  in
  Vec.push t.entities (User_proc p);
  Vec.push t.spawn_order pid;
  Network.place t.net (Proc_id.to_int pid) ~node;
  (match t.hooks with Some h -> h.h_spawned pid | None -> ());
  Metrics.incr t.hm.c_spawns;
  make_runnable t p ~delay:t.cfg.spawn_cost body;
  pid

let spawn t ?(node = 0) ~name body = spawn_internal t ~node ~name body

(* ------------------------------------------------------------------ *)
(* Pessimistic acquisition (DESIGN.md §10)                             *)
(* ------------------------------------------------------------------ *)

(* The acquire-timeout event fired: if the process is still queued on
   this exact ticket, withdraw it (Abort to the AID) and resume on the
   pessimistic branch. Anything else — resumed by Grant/Abort already,
   rolled back, terminated, or queued on a newer ticket — makes the
   timeout a stale no-op, which is what the ticket match checks. *)
let handle_acquire_timeout t pidi seq =
  match Vec.get t.entities pidi with
  | User_proc p -> (
    match p.state with
    | Acquiring { ticket; aid; k } when ticket.Interval_id.seq = seq ->
      Metrics.incr t.hm.c_acquire_timeouts;
      send_wire t ~src:p.pid ~dst:(Aid.to_proc aid)
        (Wire.Abort { iid = ticket });
      make_runnable t p ~delay:0.0 (k false)
    | Runnable _ | Waiting _ | Acquiring _ | Terminated_st -> ())
  | Native_actor _ -> ()

(* A Grant or AID-side Abort arrived for [ticket] (the runtime routes
   them here from its control handler). A Grant for a ticket no longer
   waited on — the timeout withdrew it, or the process rolled back, and
   the Grant was already in flight — is declined with a Release back to
   [src] so the AID frees for the next waiter; a stale Abort needs no
   answer (the withdrawal that staled it was itself the abort). *)
let resolve_acquire t pid ~src ~ticket ~granted =
  let p = find_proc t pid in
  match p.state with
  | Acquiring { ticket = tk; aid; k } when Interval_id.equal tk ticket ->
    if granted then begin
      p.held <- (aid, ticket) :: p.held;
      make_runnable t p ~delay:0.0 (k true)
    end
    else make_runnable t p ~delay:0.0 (k false)
  | Runnable _ | Waiting _ | Acquiring _ | Terminated_st ->
    if granted then
      send_wire t ~src:pid ~dst:src (Wire.Release { iid = ticket })

let spawn_actor t ?(node = 0) ~name handler =
  let pid = Proc_id.of_int (Vec.length t.entities) in
  Vec.push t.entities (Native_actor { apid = pid; aname = name; handler });
  Network.place t.net (Proc_id.to_int pid) ~node;
  Metrics.incr t.hm.c_actor_spawns;
  pid

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ~engine ?default_latency ?fifo ?(config = free_config) () =
  let reg = Engine.metrics engine in
  let hm =
    {
      c_all_sends = Metrics.counter reg "net.user_and_ctl_sends";
      c_user_sends = Metrics.counter reg "net.user_sends";
      c_cancel_sends = Metrics.counter reg "net.cancels";
      c_wire =
        Array.init Wire.tag_count (fun i ->
            Metrics.counter reg ("hope.msgs." ^ Wire.tag_name i));
      c_untagged = Metrics.counter reg "sched.untagged_fast_path";
      c_poisoned = Metrics.counter reg "sched.poisoned_messages";
      c_consumes = Metrics.counter reg "sched.consumes";
      c_parks = Metrics.counter reg "sched.parks";
      c_terminations = Metrics.counter reg "sched.terminations";
      c_cancels_received = Metrics.counter reg "sched.cancels_received";
      c_cancels_to_definite = Metrics.counter reg "sched.cancels_to_definite";
      c_spawns = Metrics.counter reg "sched.spawns";
      c_actor_spawns = Metrics.counter reg "sched.actor_spawns";
      c_primitive_execs = Metrics.counter reg "hope.primitive_execs";
      c_guesses = Metrics.counter reg "hope.guesses";
      c_guesses_gated = Metrics.counter reg "hope.guesses_gated";
      c_acquire_waits = Metrics.counter reg "hope.acquire_waits";
      c_acquire_timeouts = Metrics.counter reg "hope.acquire_timeouts";
      c_send_stalls = Metrics.counter reg "hope.send_stalls";
      c_cancels_sent = Metrics.counter reg "hope.cancels_sent";
      c_rollbacks = Metrics.counter reg "hope.rollbacks";
      h_rollback_depth = Metrics.histogram reg "hope.rollback_depth";
      c_compactions = Metrics.counter reg "sched.mailbox_compactions";
      c_arrivals_reclaimed = Metrics.counter reg "sched.arrivals_reclaimed";
      c_cancels_orphaned = Metrics.counter reg "hope.cancels_orphaned";
      g_ckpt_live = Metrics.gauge reg "hope.ckpt_live";
      g_arrivals_resident = Metrics.gauge reg "hope.arrivals_resident";
      g_journal_depth = Metrics.gauge reg "hope.journal_depth";
    }
  in
  let t =
    {
      eng = engine;
      net = Network.create ~engine ?default_latency ?fifo ~dummy:dummy_envelope ();
      cfg = config;
      entities = Vec.create ();
      spawn_order = Vec.create ();
      next_msg_id = 0;
      hooks = None;
      hope_primitive_parks = 0;
      resume_disp = (fun _ _ _ -> ());
      next_ticket = -2;
      acquire_disp = (fun _ _ _ -> ());
      hm;
      n_ckpt_live = 0;
      n_resident = 0;
      n_journal = 0;
    }
  in
  t.resume_disp <- (fun _eng pidi gen -> handle_resume t pidi gen);
  t.acquire_disp <- (fun _eng pidi seq -> handle_acquire_timeout t pidi seq);
  Network.set_dispatcher t.net (fun ~dst ~src env ->
      dispatch_delivery t ~dst ~src env);
  t

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let status t pid =
  match find_proc t pid with
  | { state = Terminated_st; _ } -> Terminated
  | { state = Waiting _ | Acquiring _; _ } -> Blocked
  | { state = Runnable _; _ } -> Running

let all_terminated t =
  let ok = ref true in
  Vec.iter
    (fun pid ->
      match Vec.get t.entities (Proc_id.to_int pid) with
      | User_proc p -> if p.state <> Terminated_st then ok := false
      | Native_actor _ -> ())
    t.spawn_order;
  !ok

let completion_time t pid = (find_proc t pid).completed_at

let primitive_parks t = t.hope_primitive_parks

let arrivals_resident t pid = Vec.length (find_proc t pid).arrivals

let open_checkpoints t pid = Journal.segments (find_proc t pid).journal

let journal_entries t pid = Journal.entries (find_proc t pid).journal

(* ------------------------------------------------------------------ *)
(* Rollback facility                                                   *)
(* ------------------------------------------------------------------ *)

let rollback t pid ~target ~rolled ~cause =
  let p = find_proc t pid in
  let entries_before = Journal.entries p.journal in
  (* One forward walk over the journal suffix owned by the rolled
     intervals — cost proportional to the work being undone, never to
     the mailbox or to process lifetime. Consumption claims flip back to
     [Not_consumed]; journalled sends are retracted with Cancel (the
     re-execution may send them again, and nothing else guarantees the
     originals die: their tags need not contain this rollback's cause).
     The walk is chronological, so the Cancel wire order is identical to
     the eager implementation's. *)
  let result =
    Journal.rollback_to p.journal target
      ~consume:(fun a ->
        match a.consumption with
        | Consumed_by _ -> a.consumption <- Not_consumed
        | Consumed_definite | Not_consumed -> ())
      ~send:(fun ~msg_id ~dst ->
        Metrics.incr t.hm.c_cancels_sent;
        ignore
          (transmit t ~src:pid ~dst:(Proc_id.of_int dst)
             (Envelope.Cancel { msg_id })
            : int))
  in
  let checkpoint, dropped_segs =
    match result with
    | Some r -> r
    | None ->
      invalid_arg
        (Printf.sprintf "Scheduler.rollback: no checkpoint for %s"
          (Interval_id.to_string target))
  in
  t.n_ckpt_live <- t.n_ckpt_live - dropped_segs;
  t.n_journal <- t.n_journal - (entries_before - Journal.entries p.journal);
  (* At most one arrival dies with the rollback, and the two causes are
     mutually exclusive: a [Message_cancelled] retraction kills the
     cancelled input unconditionally (an id-index hit), while an
     [Assumption_denied] kills the checkpoint's trigger only when the
     trigger itself carried the denied assumption (its data was
     predicated on a falsehood; the rolled-back sender re-sends if
     appropriate — a dependency acquired elsewhere leaves the innocent
     message consumable by the re-execution). Both are O(1) now: no
     mailbox scan. *)
  (match (cause, checkpoint) with
  | Message_cancelled msg_id, _ -> (
    match Hashtbl.find_opt p.by_msg_id msg_id with
    | Some a -> mark_dropped p a
    | None -> ())
  | Assumption_denied x, Recv_checkpoint { trigger = Some a; _ } ->
    if Aid.Set.mem x (Envelope.tags a.env) then mark_dropped p a
  | (Assumption_denied _ | Assumption_revoked), _ -> ());
  let resume_prog =
    match checkpoint with
    | Guess_checkpoint { aid; k } -> (
      (* Only this assumption's own denial makes the guess return false; a
         rollback caused by an inherited or replacement-chain dependency,
         a revoked rewiring, or a cancelled input says nothing about it,
         so the guess itself re-executes and resolves against the
         assumption's actual fate. *)
      match cause with
      | Assumption_denied x when Aid.equal x aid -> k false
      | Assumption_denied _ | Assumption_revoked | Message_cancelled _ ->
        Program.Bind (Program.Guess aid, k))
    | Recv_checkpoint { resume; trigger = _ } -> resume
  in
  (* A rollback withdraws any queued ticket (the timeout for it, if it
     later fires, finds a different state and no-ops). Held grants are
     deliberately {e kept}: a rolled-back holder is exactly the process
     that needs its exclusive window for the retry — it releases
     explicitly when the re-execution reaches {!Program.release}, or on
     termination. *)
  (match p.state with
  | Acquiring { ticket; aid; _ } ->
    send_wire t ~src:pid ~dst:(Aid.to_proc aid) (Wire.Abort { iid = ticket })
  | Runnable _ | Waiting _ | Terminated_st -> ());
  if p.state = Terminated_st then p.completed_at <- None;
  Metrics.incr t.hm.c_rollbacks;
  Metrics.observe_int t.hm.h_rollback_depth (List.length rolled);
  sync_storage_gauges t;
  make_runnable t p ~delay:t.cfg.rollback_cost resume_prog

let release_interval t pid iid =
  let p = find_proc t pid in
  let entries_before = Journal.entries p.journal in
  (* Finalize releases the oldest segment: its checkpoint can never be a
     rollback target again (rollback needs a live older interval, and
     there is none), its send records are definite, and its consumption
     claims become definite — which also makes those arrivals
     reclaimable by the next compaction epoch. This is the checkpoint-GC
     rule: storage dies exactly when the paper's finalize rule says the
     speculation does. *)
  let released =
    Journal.release_oldest p.journal iid
      ~consume:(fun a ->
        match a.consumption with
        | Consumed_by _ -> mark_definite p a
        | Consumed_definite | Not_consumed -> ())
  in
  if released then begin
    t.n_ckpt_live <- t.n_ckpt_live - 1;
    t.n_journal <- t.n_journal - (entries_before - Journal.entries p.journal);
    sync_storage_gauges t;
    purge_orphaned_cancels t p;
    maybe_compact t p
  end

let run ?until ?max_events t = Engine.run ?until ?max_events t.eng
