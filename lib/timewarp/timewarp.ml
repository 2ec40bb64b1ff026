module Engine = Hope_sim.Engine
module Rng = Hope_sim.Rng
module Latency = Hope_net.Latency
module Heap = Hope_sim.Heap

type ('s, 'p) model = {
  init : int -> 's;
  handle : lp:int -> ts:float -> 's -> 'p -> 's * (int * float * 'p) list;
}

type config = {
  n_lps : int;
  physical_latency : Latency.t;
  event_cost : float;
  gvt_interval : float;
  horizon : float;
}

let default_config =
  {
    n_lps = 8;
    physical_latency = Latency.lan;
    event_cost = 50e-6;
    gvt_interval = 10e-3;
    horizon = 100.0;
  }

type 'p message = {
  mid : int;
  src_lp : int;
  dst_lp : int;
  send_ts : float;
  recv_ts : float;
  payload : 'p;
}

(* Deterministic processing order: receive timestamp, then message id. *)
let key m = (m.recv_ts, m.mid)

type ('s, 'p) entry = {
  msg : 'p message;
  state_before : 's;
  lvt_before : float;
  sent : 'p message list;
}

type ('s, 'p) lp = {
  id : int;
  mutable st : 's;
  mutable lvt : float;
  mutable pending : 'p message list;  (** sorted by {!key}, ascending *)
  mutable done_ : ('s, 'p) entry list;  (** newest first *)
  mutable gen : int;
  mutable busy : 'p message option;  (** the event being processed, if any *)
}

type ('s, 'p) t = {
  eng : Engine.t;
  cfg : config;
  model : ('s, 'p) model;
  lps : ('s, 'p) lp array;
  rng : Rng.t;
  mutable next_mid : int;
  in_flight : (int, float) Hashtbl.t;
  poisoned : (int, unit) Hashtbl.t;
      (** anti-messages that overtook their positive copy *)
  mutable s_processed : int;
  mutable s_committed : int;
  mutable s_rolled_back : int;
  mutable s_rollbacks : int;
  mutable s_anti : int;
  mutable s_messages : int;
  mutable last_gvt : float;
  mutable phys_done : float;
}

let create ~engine cfg model =
  {
    eng = engine;
    cfg;
    model;
    lps =
      Array.init cfg.n_lps (fun id ->
          {
            id;
            st = model.init id;
            lvt = neg_infinity;
            pending = [];
            done_ = [];
            gen = 0;
            busy = None;
          });
    rng = Rng.split (Engine.rng engine);
    next_mid = 0;
    in_flight = Hashtbl.create 256;
    poisoned = Hashtbl.create 16;
    s_processed = 0;
    s_committed = 0;
    s_rolled_back = 0;
    s_rollbacks = 0;
    s_anti = 0;
    s_messages = 0;
    last_gvt = neg_infinity;
    phys_done = 0.0;
  }

let insert_sorted m pending =
  let rec go = function
    | [] -> [ m ]
    | x :: rest -> if key m < key x then m :: x :: rest else x :: go rest
  in
  go pending

(* ------------------------------------------------------------------ *)
(* Processing                                                          *)
(* ------------------------------------------------------------------ *)

let rec kick t lp =
  if lp.busy = None then begin
    match lp.pending with
    | [] -> ()
    | m :: _ ->
      lp.busy <- Some m;
      lp.gen <- lp.gen + 1;
      let gen = lp.gen in
      Engine.schedule_call t.eng ~delay:t.cfg.event_cost
        (fun _ _ _ -> if lp.gen = gen then complete t lp m)
        0 0
  end

(* Cancel the in-progress event execution, if any. *)
and preempt lp =
  lp.gen <- lp.gen + 1;
  lp.busy <- None

and complete t lp m =
  lp.busy <- None;
  lp.pending <- List.filter (fun x -> x.mid <> m.mid) lp.pending;
  let state_before = lp.st and lvt_before = lp.lvt in
  let st', outputs = t.model.handle ~lp:lp.id ~ts:m.recv_ts lp.st m.payload in
  lp.st <- st';
  lp.lvt <- m.recv_ts;
  t.s_processed <- t.s_processed + 1;
  let sent =
    List.filter_map
      (fun (dst, ts', payload) ->
        if ts' <= m.recv_ts then
          invalid_arg "Timewarp: output timestamp must exceed input timestamp";
        if ts' > t.cfg.horizon then None
        else Some (send_event t ~src_lp:lp.id ~dst ~send_ts:m.recv_ts ~recv_ts:ts' payload))
      outputs
  in
  lp.done_ <- { msg = m; state_before; lvt_before; sent } :: lp.done_;
  kick t lp

and send_event t ~src_lp ~dst ~send_ts ~recv_ts payload =
  let m =
    { mid = t.next_mid; src_lp; dst_lp = dst; send_ts; recv_ts; payload }
  in
  t.next_mid <- t.next_mid + 1;
  t.s_messages <- t.s_messages + 1;
  Hashtbl.replace t.in_flight m.mid m.recv_ts;
  let delay = Latency.sample t.cfg.physical_latency t.rng in
  Engine.schedule_call t.eng ~delay (fun _ _ _ -> deliver_pos t m) 0 0;
  m

(* Roll an LP back so that every processed entry with key >= [upto] is
   undone: their inputs return to the pending queue, their outputs are
   cancelled with anti-messages, and the state snapshot of the earliest
   undone entry is restored. *)
and rollback t lp ~upto ~requeue_cancelled =
  let rec pop undone = function
    | e :: rest when key e.msg >= upto -> pop (e :: undone) rest
    | remaining -> (undone, remaining)
  in
  (* done_ is newest-first, so popping from the front removes the latest
     entries; [undone] ends up oldest-first. *)
  let undone, remaining = pop [] lp.done_ in
  match undone with
  | [] -> ()
  | oldest :: _ ->
    lp.done_ <- remaining;
    lp.st <- oldest.state_before;
    lp.lvt <- oldest.lvt_before;
    t.s_rollbacks <- t.s_rollbacks + 1;
    t.s_rolled_back <- t.s_rolled_back + List.length undone;
    List.iter
      (fun e ->
        if requeue_cancelled e.msg then lp.pending <- insert_sorted e.msg lp.pending;
        List.iter (fun m -> send_anti t m) e.sent)
      undone;
    (* Cancel any in-progress processing: it was based on the undone state. *)
    preempt lp

and send_anti t m =
  t.s_anti <- t.s_anti + 1;
  Hashtbl.replace t.in_flight (-m.mid - 1) m.recv_ts;
  let delay = Latency.sample t.cfg.physical_latency t.rng in
  Engine.schedule_call t.eng ~delay (fun _ _ _ -> deliver_neg t m) 0 0

and deliver_pos t m =
  Hashtbl.remove t.in_flight m.mid;
  if Hashtbl.mem t.poisoned m.mid then Hashtbl.remove t.poisoned m.mid
  else begin
    let lp = t.lps.(m.dst_lp) in
    if m.recv_ts < lp.lvt then
      (* Straggler: undo everything at or above its timestamp. *)
      rollback t lp ~upto:(key m) ~requeue_cancelled:(fun _ -> true);
    (* If the arrival undercuts the event currently being executed, that
       execution must be restarted after the arrival. *)
    (match lp.busy with
    | Some b when key m < key b -> preempt lp
    | Some _ | None -> ());
    lp.pending <- insert_sorted m lp.pending;
    kick t lp
  end

and deliver_neg t m =
  Hashtbl.remove t.in_flight (-m.mid - 1);
  let lp = t.lps.(m.dst_lp) in
  if List.exists (fun x -> x.mid = m.mid) lp.pending then begin
    (* Annihilate the unprocessed positive copy. *)
    lp.pending <- List.filter (fun x -> x.mid <> m.mid) lp.pending;
    (match lp.busy with
    | Some b when b.mid = m.mid -> preempt lp
    | Some _ | None -> ());
    kick t lp
  end
  else if List.exists (fun e -> e.msg.mid = m.mid) lp.done_ then begin
    (* Secondary rollback: the cancelled message was already processed. *)
    rollback t lp ~upto:(key m) ~requeue_cancelled:(fun x -> x.mid <> m.mid);
    kick t lp
  end
  else
    (* The anti-message overtook its positive copy. *)
    Hashtbl.replace t.poisoned m.mid ()

(* ------------------------------------------------------------------ *)
(* GVT and fossil collection                                           *)
(* ------------------------------------------------------------------ *)

let compute_gvt t =
  let acc = ref infinity in
  Hashtbl.iter (fun _ ts -> if ts < !acc then acc := ts) t.in_flight;
  Array.iter
    (fun lp -> List.iter (fun m -> if m.recv_ts < !acc then acc := m.recv_ts) lp.pending)
    t.lps;
  !acc

let fossil_collect t gvt =
  t.last_gvt <- gvt;
  Array.iter
    (fun lp ->
      let keep, commit = List.partition (fun e -> e.msg.recv_ts >= gvt) lp.done_ in
      lp.done_ <- keep;
      t.s_committed <- t.s_committed + List.length commit)
    t.lps

let inject t ~dst ~ts payload =
  ignore
    (send_event t ~src_lp:(-1) ~dst ~send_ts:(min ts 0.0) ~recv_ts:ts payload
      : 'p message)

let run ?(max_events = 50_000_000) t =
  let budget = ref max_events in
  let rec loop () =
    let before = Engine.events_processed t.eng in
    let reason =
      Engine.run ~until:(Engine.now t.eng +. t.cfg.gvt_interval) ~max_events:!budget
        t.eng
    in
    budget := !budget - (Engine.events_processed t.eng - before);
    match reason with
    | Engine.Time_limit ->
      fossil_collect t (compute_gvt t);
      loop ()
    | Engine.Quiescent ->
      t.phys_done <- Engine.now t.eng;
      fossil_collect t infinity;
      Engine.Quiescent
    | (Engine.Event_limit | Engine.Stopped) as r -> r
  in
  loop ()

type stats = {
  processed : int;
  committed : int;
  rolled_back : int;
  rollbacks : int;
  anti_messages : int;
  messages : int;
  final_gvt : float;
  physical_time : float;
}

let stats t =
  {
    processed = t.s_processed;
    committed = t.s_committed;
    rolled_back = t.s_rolled_back;
    rollbacks = t.s_rollbacks;
    anti_messages = t.s_anti;
    messages = t.s_messages;
    final_gvt = t.last_gvt;
    physical_time = t.phys_done;
  }

let state_of t i = t.lps.(i).st

(* ------------------------------------------------------------------ *)
(* Sequential reference execution                                      *)
(* ------------------------------------------------------------------ *)

module Sequential = struct
  type ('s, 'p) run_result = { states : 's array; events : int }

  let run model ~n_lps ~horizon ~seeds =
    let states = Array.init n_lps model.init in
    let queue = Heap.create () in
    List.iter (fun (dst, ts, payload) -> Heap.push queue ~priority:ts (dst, payload)) seeds;
    let events = ref 0 in
    let rec loop () =
      match Heap.pop queue with
      | None -> ()
      | Some (ts, (dst, payload)) ->
        incr events;
        let st', outputs = model.handle ~lp:dst ~ts states.(dst) payload in
        states.(dst) <- st';
        List.iter
          (fun (dst', ts', payload') ->
            if ts' <= ts then
              invalid_arg "Timewarp.Sequential: output timestamp must exceed input";
            if ts' <= horizon then Heap.push queue ~priority:ts' (dst', payload'))
          outputs;
        loop ()
    in
    loop ();
    { states; events = !events }
end
