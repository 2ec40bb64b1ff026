open Hope_types
module Scheduler = Hope_proc.Scheduler
module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Network = Hope_net.Network

type aid_placement = Colocate | Fixed_node of int

type config = {
  algorithm : Control.algorithm;
  buffer_speculative_denies : bool;
  aid_placement : aid_placement;
  cache_terminal_states : bool;
}

let default_config =
  {
    algorithm = Control.Algorithm_2;
    buffer_speculative_denies = false;
    aid_placement = Colocate;
    cache_terminal_states = true;
  }

(* Hot-path metric handles, resolved once at [install] — HOPE primitives
   and control handling bump record fields, not string-hashed lookups. *)
type rt_metrics = {
  c_intervals_started : Metrics.counter;
  c_affirms_definite : Metrics.counter;
  c_affirms_speculative : Metrics.counter;
  c_denies : Metrics.counter;
  c_denies_buffered : Metrics.counter;
  c_free_of_hits : Metrics.counter;
  c_free_of_misses : Metrics.counter;
  c_finalizes : Metrics.counter;
  c_intervals_rolled : Metrics.counter;
  c_cycle_cuts : Metrics.counter;
  c_rebinds : Metrics.counter;
  c_implicit_guesses : Metrics.counter;
  c_poisoned_locally : Metrics.counter;
  c_cancel_rollbacks : Metrics.counter;
  c_speculative_spawns : Metrics.counter;
  c_aids_created : Metrics.counter;
  c_aids_retired : Metrics.counter;
  c_escalations : Metrics.counter;
  c_deescalations : Metrics.counter;
  g_escalated : Metrics.gauge;
  h_ido_size : Metrics.histogram;
  h_spec_depth : Metrics.histogram;
}

(* A grow-only set of AIDs as a bitset over {!Aid.index}: [add] is a bit
   store and [mem] a bit test, both allocation-free on the steady-state
   path ([Aid.Set.add] would rebuild its sorted array, O(n) minor words
   per resolved AID over a long run). *)
module Known = struct
  type t = { mutable bits : Bytes.t }

  let create () = { bits = Bytes.empty }

  let mem t aid =
    let i = Aid.index aid in
    let byte = i lsr 3 in
    byte < Bytes.length t.bits
    && Char.code (Bytes.unsafe_get t.bits byte) land (1 lsl (i land 7)) <> 0

  let add t aid =
    let i = Aid.index aid in
    let byte = i lsr 3 in
    if byte >= Bytes.length t.bits then begin
      let n = Bytes.make (max 16 (2 * (byte + 1))) '\000' in
      Bytes.blit t.bits 0 n 0 (Bytes.length t.bits);
      t.bits <- n
    end;
    Bytes.unsafe_set t.bits byte
      (Char.chr (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl (i land 7))))

  (* The escalated-AID set is the one consumer of removal (de-escalation
     clears the bit); the terminal-state caches stay grow-only. *)
  let remove t aid =
    let i = Aid.index aid in
    let byte = i lsr 3 in
    if byte < Bytes.length t.bits then
      Bytes.unsafe_set t.bits byte
        (Char.chr
           (Char.code (Bytes.unsafe_get t.bits byte)
           land lnot (1 lsl (i land 7))))

  let intersects s t =
    (not (Aid.Set.is_empty s)) && Aid.Set.exists (fun a -> mem t a) s

  (* Members of [t] removed from [s]; [s] itself when disjoint (the
     common case — no allocation). *)
  let diff s t =
    if intersects s t then Aid.Set.filter (fun a -> not (mem t a)) s else s
end

(* The actuator surface a speculation governor (lib/gov) plugs into. The
   runtime stays passive: with no governor installed every call site
   below short-circuits on a [None] field test, so the ungoverned hot
   path is byte-identical to the pre-governor runtime. *)
type governor = {
  gate_guess : Proc_id.t -> Aid.t -> bool;
      (* [false] refuses the speculation: the guess returns [false]
         immediately (the pessimistic branch) *)
  cut_replace : target:Interval_id.t -> sender:Aid.t -> candidate:Aid.t -> bool;
      (* rule a Replace replacement candidate a cycle on churn evidence *)
  send_delay : Proc_id.t -> depth:int -> float;
      (* extra virtual cost for a user send at speculation depth [depth] *)
  note_denial : Proc_id.t -> Aid.t -> unit;
      (* observation feedback: [pid] rolled back because [aid] was denied *)
}

type t = {
  sched : Scheduler.t;
  cfg : config;
  histories : (Proc_id.t, History.t) Hashtbl.t;
  aids : (Proc_id.t, Aid_machine.t) Hashtbl.t;
  mutable aid_count : int;
  rm : rt_metrics;
  (* Per-process caches of AIDs observed in a terminal state, learned from
     the source of Replace-with-empty-IDO (True) and Rollback (False)
     messages. Terminal states are final (Figure 4), so the caches are
     sound; they let a process drop known-dead messages without the
     Guess/Rollback round trip and skip registrations with known-True
     AIDs. Realised as dense bitsets over the interned AID index (see
     [Known] below): these caches only grow, so a persistent [Aid.Set]
     would copy its whole array per learned AID. *)
  known_true : (Proc_id.t, Known.t) Hashtbl.t;
  known_false : (Proc_id.t, Known.t) Hashtbl.t;
  definite_iids : (Proc_id.t, Interval_id.t) Hashtbl.t;
      (* per-process definite interval id (seq = -1), cached so definite
         affirms/denies do not rebuild the same record every time *)
  count_cuts : Interval_id.t -> int -> unit;
      (* the one [Control.handle_replace ~on_cycle_cuts] callback: Replace
         handling is per-message hot *)
  mutable cut_event : (Interval_id.t -> Aid.t -> unit) option;
      (* the one [Control.handle_replace ?on_cut_aid] callback, built at
         [install] and passed while the recorder is on *)
  mutable aid_reply : Aid.t -> Interval_id.t -> Wire.t -> unit;
      (* the one [Aid_machine.handle_into ~reply] callback, shared by all
         AID actors — one control message in can mean several out *)
  mutable aid_transition : Aid.t -> Aid_machine.state -> Aid_machine.state -> unit;
      (* the one [Aid_machine.create ~on_transition] observer, shared by
         all machines instead of a closure per spawned AID *)
  mutable gov : governor option;
  mutable gov_cut :
    (target:Interval_id.t -> sender:Aid.t -> candidate:Aid.t -> bool) option;
      (* [Option.map (fun g -> g.cut_replace) gov], materialized once at
         [set_governor] so Replace handling passes it without allocating *)
  escalated : Known.t;
      (* AIDs operating pessimistically (DESIGN.md §10): the guess hook
         tests one bit here per explicit guess, so with nothing escalated
         the path is identical to the pre-escalation runtime *)
  mutable n_escalated : int;
  mutable acquire_bound : float;
      (* virtual-time bound on a queued acquire wait before the ticket is
         withdrawn and the guess takes its pessimistic branch *)
}

let scheduler t = t.sched
let config t = t.cfg

let set_governor t g =
  t.gov <- Some g;
  t.gov_cut <- Some g.cut_replace

let clear_governor t =
  t.gov <- None;
  t.gov_cut <- None

let governed t = t.gov <> None

let now t = Engine.now (Scheduler.engine t.sched)

(* The structured observability channel (lib/obs). The recorder lives in
   the engine; hot call sites guard on [obs_on] so the event payload is
   not even allocated while it is disabled. *)
let obs t = Engine.obs (Scheduler.engine t.sched)

let obs_on t = Hope_obs.Recorder.enabled (obs t)

(* [Dep_resolved] is one event per Replace message — far denser than the
   rest of the core stream — so its site has its own guard class and a
   monitor-only tap pays neither the payload nor the emit closure. *)
let obs_dep_on t = Hope_obs.Recorder.enabled_dep (obs t)

let emit t ~proc payload =
  Hope_obs.Recorder.emit (obs t) ~time:(now t) ~proc payload

let obs_state : Aid_machine.state -> Hope_obs.Event.aid_state = function
  | Aid_machine.Cold -> Hope_obs.Event.Cold
  | Aid_machine.Hot -> Hope_obs.Event.Hot
  | Aid_machine.Maybe -> Hope_obs.Event.Maybe
  | Aid_machine.True_ -> Hope_obs.Event.True_
  | Aid_machine.False_ -> Hope_obs.Event.False_

let obs_kind : History.kind -> Hope_obs.Event.interval_kind = function
  | History.Explicit -> Hope_obs.Event.Explicit
  | History.Implicit -> Hope_obs.Event.Implicit

let obs_cause : Scheduler.rollback_cause -> Hope_obs.Event.rollback_cause =
  function
  | Scheduler.Assumption_denied x -> Hope_obs.Event.Denied x
  | Scheduler.Assumption_revoked -> Hope_obs.Event.Revoked
  | Scheduler.Message_cancelled id -> Hope_obs.Event.Cancelled id

let known_set tbl pid =
  try Hashtbl.find tbl pid
  with Not_found ->
    let r = Known.create () in
    Hashtbl.add tbl pid r;
    r

let learn_true t pid aid =
  if t.cfg.cache_terminal_states then Known.add (known_set t.known_true pid) aid

let learn_false t pid aid =
  if t.cfg.cache_terminal_states then Known.add (known_set t.known_false pid) aid

(* The three lookups below run once or more per HOPE primitive;
   [Hashtbl.find] rather than [find_opt] spares the [Some] box each time. *)
let history_of t pid = Hashtbl.find t.histories pid

let history_or_create t pid =
  try Hashtbl.find t.histories pid
  with Not_found ->
    let h = History.create pid in
    Hashtbl.add t.histories pid h;
    h

let aid_machine t aid = Hashtbl.find t.aids (Aid.to_proc aid)

let aid_state t aid = (aid_machine t aid).Aid_machine.state

(* -------------------- per-AID escalation (§10) -------------------- *)

let set_acquire_bound t bound =
  if bound <= 0.0 then invalid_arg "Runtime.set_acquire_bound: bound <= 0";
  t.acquire_bound <- bound

let escalate_aid t aid =
  if not (Known.mem t.escalated aid) then begin
    Aid_machine.escalate (aid_machine t aid);
    Known.add t.escalated aid;
    t.n_escalated <- t.n_escalated + 1;
    Metrics.incr t.rm.c_escalations;
    Metrics.set_gauge t.rm.g_escalated (float_of_int t.n_escalated)
  end

let deescalate_aid t aid =
  if Known.mem t.escalated aid then begin
    Aid_machine.deescalate (aid_machine t aid) ~reply:t.aid_reply;
    Known.remove t.escalated aid;
    t.n_escalated <- t.n_escalated - 1;
    Metrics.incr t.rm.c_deescalations;
    Metrics.set_gauge t.rm.g_escalated (float_of_int t.n_escalated)
  end

let all_aids t =
  Hashtbl.fold (fun _ m acc -> m.Aid_machine.aid :: acc) t.aids []
  |> List.sort Aid.compare

let live_intervals t =
  Hashtbl.fold (fun _ h acc -> acc + History.depth h) t.histories 0

let cycle_cuts t = Metrics.count t.rm.c_cycle_cuts

let histories t =
  Hashtbl.fold (fun _ h acc -> h :: acc) t.histories []
  |> List.sort (fun a b -> Proc_id.compare (History.owner a) (History.owner b))

(* -------------------- AID garbage collection ---------------------- *)

type gc_stats = { swept : int; retired : int; live : int }

(* The reference-counting GC of §5.2, realised as a sweep over the
   runtime's global knowledge (the simulator can see every reference the
   prototype would have counted): a terminal AID whose identity no live
   interval holds — in IDO, UDO, IHA, or IHD — can never influence
   dependency tracking again. Retiring it frees its DOM and A_IDO sets;
   the tombstone keeps answering late Guess messages from its terminal
   state. In-flight message tags need no scan: a tag AID is always also
   in the sender's live IDO (or the sender rolled back, making the
   message droppable on sight). *)
let collect_garbage t =
  let referenced = ref Aid.Set.empty in
  Hashtbl.iter
    (fun _ hist ->
      (* IDO and UDO come from the history's cumulative caches (cached
         unions); only the usually-empty IHA/IHD sets need a sweep. *)
      referenced := Aid.Set.union !referenced (History.cumulative_ido hist);
      referenced := Aid.Set.union !referenced (History.cumulative_udo hist);
      History.iter_live
        (fun itv ->
          referenced := Aid.Set.union !referenced itv.History.iha;
          referenced := Aid.Set.union !referenced itv.History.ihd)
        hist)
    t.histories;
  let swept = ref 0 and retired = ref 0 and live = ref 0 in
  Hashtbl.iter
    (fun _ machine ->
      incr swept;
      if machine.Aid_machine.retired then incr retired
      else if
        Aid_machine.is_final machine
        && not (Aid.Set.mem machine.Aid_machine.aid !referenced)
      then begin
        Aid_machine.retire machine;
        incr retired;
        Metrics.incr t.rm.c_aids_retired
      end
      else incr live)
    t.aids;
  { swept = !swept; retired = !retired; live = !live }

(* ------------------------------------------------------------------ *)
(* AID processes                                                       *)
(* ------------------------------------------------------------------ *)

let aid_actor_handler t ~self ~src:_ (env : Envelope.t) =
  match env.Envelope.payload with
  | Envelope.Control wire ->
    let machine =
      try Hashtbl.find t.aids self
      with Not_found -> failwith "AID actor without a machine (internal error)"
    in
    Aid_machine.handle_into machine wire ~reply:t.aid_reply
  | Envelope.User _ | Envelope.Cancel _ ->
    failwith
      (Printf.sprintf "AID process %s received a non-control message"
         (Proc_id.to_string self))

let spawn_aid t ~node =
  t.aid_count <- t.aid_count + 1;
  let name = "aid-" ^ string_of_int t.aid_count in
  let apid = Scheduler.spawn_actor t.sched ~node ~name (aid_actor_handler t) in
  let aid = Aid.of_proc apid in
  Hashtbl.add t.aids apid
    (Aid_machine.create ~on_transition:t.aid_transition aid);
  Metrics.incr t.rm.c_aids_created;
  if obs_on t then emit t ~proc:apid (Hope_obs.Event.Aid_create { aid });
  aid

let placement_node t ~creator =
  match t.cfg.aid_placement with
  | Colocate -> Network.node_of (Scheduler.network t.sched) (Proc_id.to_int creator)
  | Fixed_node n -> n

let fresh_aid t ?(node = 0) () = spawn_aid t ~node

(* ------------------------------------------------------------------ *)
(* Interval creation                                                   *)
(* ------------------------------------------------------------------ *)

(* Begin a new speculative interval and register it with every AID it
   depends on (the full-registration reading of §5.2: each interval must
   be in the DOM of every AID in its IDO for Replace/Rollback messages to
   reach it — see DESIGN.md §3.3 and Lemma 5.3). *)
let begin_interval t pid ~kind ~extra_deps =
  let hist = history_or_create t pid in
  (* Inherited dependencies already known True carry no information and
     are skipped; the interval's own new dependencies are always kept so a
     guess on an already-resolved AID still resolves through the normal
     Replace/Rollback reply. *)
  let inherited =
    Known.diff (History.cumulative_ido hist) (known_set t.known_true pid)
  in
  let ido = Aid.Set.union inherited extra_deps in
  let itv = History.push hist ~kind ~ido ~now:(now t) in
  Aid.Set.iter
    (fun y ->
      Scheduler.send_wire t.sched ~src:pid ~dst:(Aid.to_proc y)
        (Wire.Guess { iid = itv.History.iid }))
    ido;
  Metrics.incr t.rm.c_intervals_started;
  Metrics.observe_int t.rm.h_ido_size (Aid.Set.cardinal ido);
  Metrics.observe_int t.rm.h_spec_depth (History.depth hist);
  if obs_on t then
    emit t ~proc:pid
      (Hope_obs.Event.Interval_open
         { iid = itv.History.iid; kind = obs_kind kind; ido });
  itv

(* ------------------------------------------------------------------ *)
(* Affirm / Deny / Free_of                                             *)
(* ------------------------------------------------------------------ *)

let definite_iid t pid =
  try Hashtbl.find t.definite_iids pid
  with Not_found ->
    let iid = Interval_id.make ~owner:pid ~seq:(-1) in
    Hashtbl.add t.definite_iids pid iid;
    iid

let do_affirm t pid x =
  let hist = history_or_create t pid in
  if History.depth hist = 0 then begin
    (* Definite affirm: <Affirm, iid, {}> drives the AID to True. *)
    Scheduler.send_wire t.sched ~src:pid ~dst:(Aid.to_proc x)
      (Wire.Affirm { iid = definite_iid t pid; ido = Aid.Set.empty });
    Metrics.incr t.rm.c_affirms_definite;
    if obs_on t then
      emit t ~proc:pid
        (Hope_obs.Event.Affirm { aid = x; iid = None; speculative = false })
  end
  else begin
    (* Speculative affirm: contingent on the process's dependency set. *)
    let cur = History.top_exn hist in
    let ido = History.cumulative_ido hist in
    cur.History.iha <- Aid.Set.add x cur.History.iha;
    Scheduler.send_wire t.sched ~src:pid ~dst:(Aid.to_proc x)
      (Wire.Affirm { iid = cur.History.iid; ido });
    Metrics.incr t.rm.c_affirms_speculative;
    if obs_on t then
      emit t ~proc:pid
        (Hope_obs.Event.Affirm
           { aid = x; iid = Some cur.History.iid; speculative = true })
  end

let do_deny t pid x =
  let hist = history_or_create t pid in
  if History.depth hist = 0 then begin
    Scheduler.send_wire t.sched ~src:pid ~dst:(Aid.to_proc x)
      (Wire.Deny { iid = definite_iid t pid });
    Metrics.incr t.rm.c_denies;
    if obs_on t then
      emit t ~proc:pid
        (Hope_obs.Event.Deny { aid = x; iid = None; buffered = false })
  end
  else
    let cur = History.top_exn hist in
    if t.cfg.buffer_speculative_denies then begin
      cur.History.ihd <- Aid.Set.add x cur.History.ihd;
      Metrics.incr t.rm.c_denies_buffered;
      if obs_on t then
        emit t ~proc:pid
          (Hope_obs.Event.Deny
             { aid = x; iid = Some cur.History.iid; buffered = true })
    end
    else begin
      (* Table 1: denies are unconditional even from speculative senders. *)
      Scheduler.send_wire t.sched ~src:pid ~dst:(Aid.to_proc x)
        (Wire.Deny { iid = cur.History.iid });
      Metrics.incr t.rm.c_denies;
      if obs_on t then
        emit t ~proc:pid
          (Hope_obs.Event.Deny
             { aid = x; iid = Some cur.History.iid; buffered = false })
    end

let do_free_of t pid x =
  let hist = history_or_create t pid in
  if History.depends_on hist x then begin
    Metrics.incr t.rm.c_free_of_hits;
    if obs_on t then
      emit t ~proc:pid (Hope_obs.Event.Free_of { aid = x; hit = true });
    do_deny t pid x
  end
  else begin
    Metrics.incr t.rm.c_free_of_misses;
    if obs_on t then
      emit t ~proc:pid (Hope_obs.Event.Free_of { aid = x; hit = false });
    do_affirm t pid x
  end

(* ------------------------------------------------------------------ *)
(* Control message interpretation                                      *)
(* ------------------------------------------------------------------ *)

(* Shared tail of every rollback: retract the rolled intervals'
   speculative affirms with Revoke and hand the suffix to the scheduler
   for checkpoint restoration and message cancellation. *)
let perform_rollback t pid ~(target : History.interval) ~rolled ~cause =
  if obs_on t then
    emit t ~proc:pid
      (Hope_obs.Event.Rollback_cascade
         {
           target = target.History.iid;
           rolled = List.map (fun itv -> itv.History.iid) rolled;
           cause = obs_cause cause;
         });
  List.iter
    (fun itv ->
      Aid.Set.iter
        (fun y ->
          Scheduler.send_wire t.sched ~src:pid ~dst:(Aid.to_proc y)
            (Wire.Revoke { iid = itv.History.iid }))
        itv.History.iha;
      Metrics.incr t.rm.c_intervals_rolled)
    rolled;
  Scheduler.rollback t.sched pid ~target:target.History.iid
    ~rolled:(List.map (fun itv -> itv.History.iid) rolled)
    ~cause

let interpret_action t pid = function
  | Control.Send_guess { aid; iid } ->
    Scheduler.send_wire t.sched ~src:pid ~dst:(Aid.to_proc aid) (Wire.Guess { iid })
  | Control.Finalized itv ->
    (* Checkpoint GC: [Finalized] actions come from the front of the
       history ([History.drop_oldest_finalized] — the cumulative-IDO
       cache proving nothing older can roll us back), so the released
       interval is always the scheduler's oldest journal segment and its
       checkpoint, send records, and consumption claims die in one
       stroke — the finalize rule applied to storage. *)
    Scheduler.release_interval t.sched pid itv.History.iid;
    (* Figure 11, finalize: speculative affirms become definite, buffered
       denies are released. *)
    Aid.Set.iter
      (fun y ->
        Scheduler.send_wire t.sched ~src:pid ~dst:(Aid.to_proc y)
          (Wire.Affirm { iid = itv.History.iid; ido = Aid.Set.empty }))
      itv.History.iha;
    Aid.Set.iter
      (fun y ->
        Scheduler.send_wire t.sched ~src:pid ~dst:(Aid.to_proc y)
          (Wire.Deny { iid = itv.History.iid }))
      itv.History.ihd;
    Metrics.incr t.rm.c_finalizes;
    if obs_on t then
      emit t ~proc:pid
        (Hope_obs.Event.Interval_finalize { iid = itv.History.iid })
  | Control.Rolled_back { target; rolled; reason } ->
    (* Figure 11, rollback: a rolled-back interval's speculative affirms
       are retracted with Revoke — returning the AIDs from Maybe to Hot so
       the re-executed affirm can rule again (Theorem 5.1 requires this;
       a terminal Deny here would falsify assumptions whose re-executed,
       eventually-definite affirms say True — see DESIGN.md §3.1).
       Buffered denies (IHD) are simply dropped. *)
    (match (reason, t.gov) with
    | Control.Denial x, Some g -> g.note_denial pid x
    | _ -> ());
    perform_rollback t pid ~target ~rolled
      ~cause:
        (match reason with
        | Control.Denial x -> Scheduler.Assumption_denied x
        | Control.Revocation -> Scheduler.Assumption_revoked)

let on_control t ~self ~src wire =
  let hist = history_or_create t self in
  let src_aid = Aid.of_proc src in
  let actions =
    match wire with
    | Wire.Replace { iid; ido } ->
      if Aid.Set.is_empty ido then learn_true t self src_aid;
      Control.handle_replace
        ?emit:
          (if obs_dep_on t then Some (fun payload -> emit t ~proc:self payload)
           else None)
        ?cut:t.gov_cut
        ?on_cut_aid:(if obs_on t then t.cut_event else None)
        t.cfg.algorithm hist ~target:iid ~sender:src_aid ~ido
        ~on_cycle_cuts:t.count_cuts
    | Wire.Rollback { iid } ->
      learn_false t self src_aid;
      Control.handle_rollback hist ~target:iid ~denied:src_aid
    | Wire.Rebind { iid } ->
      Metrics.incr t.rm.c_rebinds;
      Control.handle_rebind hist ~target:iid ~sender:src_aid
    | Wire.Grant { iid } ->
      Scheduler.resolve_acquire t.sched self ~src ~ticket:iid ~granted:true;
      []
    | Wire.Abort { iid } ->
      Scheduler.resolve_acquire t.sched self ~src ~ticket:iid ~granted:false;
      []
    | Wire.Guess _ | Wire.Affirm _ | Wire.Deny _ | Wire.Revoke _
    | Wire.Acquire _ | Wire.Release _ ->
      failwith
        (Printf.sprintf "user process %s received %s (only AID processes do)"
           (Proc_id.to_string self) (Wire.type_name wire))
  in
  List.iter (interpret_action t self) actions

(* ------------------------------------------------------------------ *)
(* Hook installation                                                   *)
(* ------------------------------------------------------------------ *)

let install sched ?(config = default_config) () =
  let reg = Engine.metrics (Scheduler.engine sched) in
  let rm =
    {
      c_intervals_started = Metrics.counter reg "hope.intervals_started";
      c_affirms_definite = Metrics.counter reg "hope.affirms_definite";
      c_affirms_speculative = Metrics.counter reg "hope.affirms_speculative";
      c_denies = Metrics.counter reg "hope.denies";
      c_denies_buffered = Metrics.counter reg "hope.denies_buffered";
      c_free_of_hits = Metrics.counter reg "hope.free_of_hits";
      c_free_of_misses = Metrics.counter reg "hope.free_of_misses";
      c_finalizes = Metrics.counter reg "hope.finalizes";
      c_intervals_rolled = Metrics.counter reg "hope.intervals_rolled";
      c_cycle_cuts = Metrics.counter reg "hope.cycle_cuts";
      c_rebinds = Metrics.counter reg "hope.rebinds";
      c_implicit_guesses = Metrics.counter reg "hope.implicit_guesses";
      c_poisoned_locally = Metrics.counter reg "hope.messages_poisoned_locally";
      c_cancel_rollbacks = Metrics.counter reg "hope.cancel_rollbacks";
      c_speculative_spawns = Metrics.counter reg "hope.speculative_spawns";
      c_aids_created = Metrics.counter reg "hope.aids_created";
      c_aids_retired = Metrics.counter reg "hope.aids_retired";
      c_escalations = Metrics.counter reg "hope.escalations";
      c_deescalations = Metrics.counter reg "hope.deescalations";
      g_escalated = Metrics.gauge reg "hope.aids_escalated";
      h_ido_size = Metrics.histogram reg "hope.interval_ido_size";
      h_spec_depth = Metrics.histogram reg "hope.speculation_depth";
    }
  in
  let t =
    {
      sched;
      cfg = config;
      histories = Hashtbl.create 64;
      aids = Hashtbl.create 64;
      aid_count = 0;
      rm;
      known_true = Hashtbl.create 64;
      known_false = Hashtbl.create 64;
      definite_iids = Hashtbl.create 64;
      count_cuts = (fun _ n -> Metrics.add rm.c_cycle_cuts n);
      cut_event = None;
      aid_reply = (fun _ _ _ -> ());
      aid_transition = (fun _ _ _ -> ());
      gov = None;
      gov_cut = None;
      escalated = Known.create ();
      n_escalated = 0;
      acquire_bound = 50e-3;
    }
  in
  t.aid_reply <-
    (fun aid iid wire ->
      Scheduler.send_wire t.sched ~src:(Aid.to_proc aid)
        ~dst:(Interval_id.owner iid) wire);
  t.aid_transition <-
    (fun aid from_ to_ ->
      if obs_on t then
        emit t ~proc:(Aid.to_proc aid)
          (Hope_obs.Event.Aid_transition
             { aid; from_ = obs_state from_; to_ = obs_state to_ }));
  (* An interval id's owner is the process whose history holds it, so the
     per-AID cut callback recovers the acting process from [iid] — one
     closure for the runtime's lifetime instead of one per Replace. *)
  t.cut_event <-
    Some
      (fun iid aid ->
        emit t ~proc:(Interval_id.owner iid) (Hope_obs.Event.Cycle_cut { iid; aid }));
  let hooks =
    {
      Scheduler.h_tags =
        (fun pid -> History.cumulative_ido (history_or_create t pid));
      h_current =
        (fun pid ->
          let h = history_or_create t pid in
          if History.depth h = 0 then None
          else Some (History.top_exn h).History.iid);
      h_aid_init = (fun pid -> spawn_aid t ~node:(placement_node t ~creator:pid));
      h_guess =
        (fun pid x ->
          (* Escalated AIDs route to the acquisition queue before the
             governor's cruder gate is consulted: escalation IS the
             governor's stronger answer for this AID. One bit test on
             the (usually empty) escalated set — with nothing escalated
             the path is the pre-escalation one, allocation-free. *)
          if Known.mem t.escalated x then
            Scheduler.Acquire { bound = t.acquire_bound }
          else
            match t.gov with
            | Some g when not (g.gate_guess pid x) -> Scheduler.Pessimistic
            | _ ->
              let itv =
                begin_interval t pid ~kind:History.Explicit
                  ~extra_deps:(Aid.Set.singleton x)
              in
              Scheduler.Speculate itv.History.iid);
      h_send_delay =
        (fun pid ->
          match t.gov with
          | None -> 0.0
          | Some g ->
            g.send_delay pid ~depth:(History.depth (history_or_create t pid)));
      h_implicit =
        (fun pid env ->
          let tags = Envelope.tags env in
          if Aid.Set.is_empty tags then Scheduler.Accept None
          else if
            t.cfg.cache_terminal_states
            && Known.intersects tags (known_set t.known_false pid)
          then begin
            (* A tag AID is already denied: the message's content is
               predicated on a falsehood, so it is dropped without the
               Guess/Rollback round trip. *)
            Metrics.incr t.rm.c_poisoned_locally;
            Scheduler.Reject
          end
          else begin
            let live_tags =
              if t.cfg.cache_terminal_states then
                Known.diff tags (known_set t.known_true pid)
              else tags
            in
            if Aid.Set.is_empty live_tags then
              (* Every tag already resolved True: the message is definite. *)
              Scheduler.Accept None
            else begin
              Metrics.incr t.rm.c_implicit_guesses;
              let itv =
                begin_interval t pid ~kind:History.Implicit ~extra_deps:live_tags
              in
              Scheduler.Accept (Some itv.History.iid)
            end
          end);
      h_affirm = (fun pid x -> do_affirm t pid x);
      h_deny = (fun pid x -> do_deny t pid x);
      h_free_of = (fun pid x -> do_free_of t pid x);
      h_control = (fun ~self ~src wire -> on_control t ~self ~src wire);
      h_cancelled =
        (fun ~self ~iid ~msg_id ->
          (* A message this process consumed was retracted by its
             rolled-back sender: the consuming interval (and everything
             after it) re-executes without it. *)
          let hist = history_or_create t self in
          match History.find hist iid with
          | None -> ()  (* already rolled back by another cause *)
          | Some target ->
            let rolled = History.truncate_from hist iid in
            Metrics.incr t.rm.c_cancel_rollbacks;
            perform_rollback t self ~target ~rolled
              ~cause:(Scheduler.Message_cancelled msg_id));
      h_spawned = (fun pid -> ignore (history_or_create t pid : History.t));
      h_spawn_child =
        (fun ~parent ~child ->
          let deps = History.cumulative_ido (history_or_create t parent) in
          if Aid.Set.is_empty deps then None
          else begin
            Metrics.incr t.rm.c_speculative_spawns;
            let itv =
              begin_interval t child ~kind:History.Implicit ~extra_deps:deps
            in
            Some itv.History.iid
          end);
    }
  in
  Scheduler.set_hooks sched hooks;
  t
