type t = {
  mutable clock : float;
  queue : event Equeue.t;
  root_rng : Rng.t;
  registry : Metrics.registry;
  obs : Hope_obs.Recorder.t;
  mutable executed : int;
  mutable stop_requested : bool;
  mutable free : event;  (** intrusive free list; [nil_event] terminates it *)
  mutable pool_allocated : int;
  mutable pool_free : int;
  (* Periodic virtual-time sampler. [next_sample] is [infinity] when no
     sampler is installed, so the run loop's due-check is one float
     compare that never fires. *)
  mutable sample_stride : float;
  mutable next_sample : float;
  mutable on_sample : t -> unit;
}

(* A pooled event record: a dispatcher plus its two immediate arguments.
   The network passes its delivery entry point and a batch id, the
   scheduler its resume entry point and a pid, so the hot paths schedule
   without allocating a closure per event; a one-off caller passes its
   own closure and ignores the ints. Records cycle through the free
   list. *)
and event = {
  mutable call : t -> int -> int -> unit;
  mutable i1 : int;
  mutable i2 : int;
  mutable next_free : event;
}

type stop_reason = Quiescent | Time_limit | Event_limit | Stopped

let nop_fn (_ : t) = ()
let nop_call (_ : t) (_ : int) (_ : int) = ()

(* Shared sentinel: terminates free lists and fills vacated queue slots,
   so popped events hold nothing reachable. Never scheduled. *)
let rec nil_event = { call = nop_call; i1 = 0; i2 = 0; next_free = nil_event }

(* Synthetic process id for events the engine itself emits. *)
let engine_proc = Hope_types.Proc_id.of_int (-1)

let create ?(seed = 42) ?obs () =
  {
    clock = 0.0;
    queue = Equeue.create ~dummy:nil_event ();
    root_rng = Rng.create ~seed;
    registry = Metrics.create_registry ();
    obs = (match obs with Some r -> r | None -> Hope_obs.Recorder.create ());
    executed = 0;
    stop_requested = false;
    free = nil_event;
    pool_allocated = 0;
    pool_free = 0;
    sample_stride = infinity;
    next_sample = infinity;
    on_sample = nop_fn;
  }

let set_sampler t ~stride f =
  if not (stride > 0.0) then invalid_arg "Engine.set_sampler: stride <= 0";
  t.sample_stride <- stride;
  t.next_sample <- t.clock;
  t.on_sample <- f

let clear_sampler t =
  t.sample_stride <- infinity;
  t.next_sample <- infinity;
  t.on_sample <- nop_fn

let fire_sampler t =
  t.on_sample t;
  t.next_sample <- t.clock +. t.sample_stride

let now t = t.clock
let rng t = t.root_rng
let metrics t = t.registry
let obs t = t.obs

(* The engine is the component that knows virtual time, so it is the
   emission gateway for the observability layer: every hook below stamps
   the current clock. One branch when no subscriber enabled the
   recorder. *)
let emit t payload =
  Hope_obs.Recorder.emit t.obs ~time:t.clock ~proc:engine_proc payload

(* ------------------------------ pool ------------------------------- *)

let alloc t =
  let ev = t.free in
  if ev == nil_event then begin
    t.pool_allocated <- t.pool_allocated + 1;
    { call = nop_call; i1 = 0; i2 = 0; next_free = nil_event }
  end
  else begin
    t.free <- ev.next_free;
    t.pool_free <- t.pool_free - 1;
    ev.next_free <- nil_event;
    ev
  end

(* Clearing the dispatcher is what makes the pool leak-free: a fired event
   must not keep its closure (and whatever the closure captured — an
   envelope, a continuation) alive until the record is next reused. *)
let release t ev =
  ev.call <- nop_call;
  ev.i1 <- 0;
  ev.i2 <- 0;
  ev.next_free <- t.free;
  t.free <- ev;
  t.pool_free <- t.pool_free + 1

let pool_allocated t = t.pool_allocated
let pool_free t = t.pool_free

(* --------------------------- scheduling ---------------------------- *)

let schedule_call_at t ~at call i1 i2 =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_call_at: at=%g is before now=%g" at
         t.clock);
  let ev = alloc t in
  ev.call <- call;
  ev.i1 <- i1;
  ev.i2 <- i2;
  Equeue.push t.queue ~priority:at ev

let schedule_call t ~delay call i1 i2 =
  if delay < 0.0 then invalid_arg "Engine.schedule_call: negative delay";
  schedule_call_at t ~at:(t.clock +. delay) call i1 i2

let sched_seq t = Equeue.next_seq t.queue

let stop t = t.stop_requested <- true

let stop_reason_name = function
  | Quiescent -> "quiescent"
  | Time_limit -> "time-limit"
  | Event_limit -> "event-limit"
  | Stopped -> "stopped"

let run ?until ?max_events t =
  t.stop_requested <- false;
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let horizon = match until with Some u -> u | None -> infinity in
  (* The queue's minimum priority is read (and its float boxed) once per
     event, serving both the horizon check and the clock update. *)
  let rec loop () =
    if t.stop_requested then Stopped
    else if !budget <= 0 then Event_limit
    else if Equeue.is_empty t.queue then Quiescent
    else begin
      let at = Equeue.min_prio t.queue in
      if at > horizon then begin
        (* Advance the clock to the horizon so repeated bounded runs make
           progress even when the next event lies beyond it. *)
        t.clock <- horizon;
        Time_limit
      end
      else begin
        decr budget;
        let ev = Equeue.pop_min_exn t.queue in
        (* Read the payload out, then recycle the record before running
           it: the handler may schedule (and the pool may hand this
           record back out) — by then we no longer touch it. *)
        let call = ev.call in
        let i1 = ev.i1 in
        let i2 = ev.i2 in
        release t ev;
        t.clock <- at;
        t.executed <- t.executed + 1;
        call t i1 i2;
        if t.clock >= t.next_sample then fire_sampler t;
        loop ()
      end
    end
  in
  let reason = loop () in
  emit t (Hope_obs.Event.Sim_stop { reason = stop_reason_name reason });
  reason

let events_processed t = t.executed
let pending_events t = Equeue.length t.queue

let pp_stop_reason ppf r = Format.pp_print_string ppf (stop_reason_name r)
