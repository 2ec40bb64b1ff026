(** Shared helpers for the test suites. *)

module Engine = Hope_sim.Engine
module Metrics = Hope_sim.Metrics
module Latency = Hope_net.Latency
module Scheduler = Hope_proc.Scheduler
module Program = Hope_proc.Program
module Runtime = Hope_core.Runtime
module Invariant = Hope_core.Invariant

type world = {
  engine : Engine.t;
  sched : Scheduler.t;
  rt : Runtime.t;
}

(** Build an engine + scheduler + installed HOPE runtime. *)
let make_world ?(seed = 42) ?(latency = Latency.lan) ?(fifo = true)
    ?(sched_config = Scheduler.free_config) ?(hope_config = Runtime.default_config)
    () =
  let engine = Engine.create ~seed () in
  let sched =
    Scheduler.create ~engine ~default_latency:latency ~fifo ~config:sched_config ()
  in
  let rt = Runtime.install sched ~config:hope_config () in
  { engine; sched; rt }

(** A bare substrate (no HOPE runtime installed). *)
let make_substrate ?(seed = 42) ?(latency = Latency.lan) ?fifo
    ?(sched_config = Scheduler.free_config) () =
  let engine = Engine.create ~seed () in
  let sched =
    Scheduler.create ~engine ~default_latency:latency ?fifo ~config:sched_config ()
  in
  (engine, sched)

exception Not_quiescent of Engine.stop_reason

(** Run to quiescence; raise if the event budget is exhausted first. *)
let quiesce ?(max_events = 2_000_000) w =
  match Scheduler.run ~max_events w.sched with
  | Hope_sim.Engine.Quiescent -> ()
  | reason -> raise (Not_quiescent reason)

let counter w name = Metrics.find_counter (Engine.metrics w.engine) name

(** Assert that every user process terminated. *)
let check_all_terminated w =
  Alcotest.(check bool) "all user processes terminated" true
    (Scheduler.all_terminated w.sched)

(** Assert that the standard invariants hold. *)
let check_invariants w =
  match Invariant.check_all w.rt with
  | [] -> ()
  | vs ->
    Alcotest.failf "@[<v>invariant violations:@,%a@]"
      (Format.pp_print_list Invariant.pp_violation)
      vs

(** Record execution order from inside programs. *)
let recorder () =
  let log = ref [] in
  let record tag = Program.lift (fun () -> log := tag :: !log) in
  let dump () = List.rev !log in
  (record, dump)

let aid_state_name w aid = Hope_core.Aid_machine.state_name (Runtime.aid_state w.rt aid)

(** The digest of a run's full [--explain] report: every interval's id,
    start time, kind, dependencies at creation, fate and cut flag. *)
let explain_digest rt =
  Digest.to_hex
    (Digest.string
       (Format.asprintf "%a" Hope_core.Explain.pp (Hope_core.Explain.of_runtime rt)))

type cut_stream = {
  observe : Hope_obs.Recorder.tap;
      (** the tap body: folds each [Cycle_cut], ignores every other event *)
  cuts : unit -> int;  (** the cuts folded so far *)
  digest : unit -> string;  (** the order-sensitive digest of those cuts *)
}

(** An order-sensitive digest of a run's [Cycle_cut] [(iid, aid)] stream,
    folded as the events are emitted: a long PHOLD run cuts over a million
    times, too many events to store. Each cut appends its interval id and
    AID to a buffer, which is chained into an MD5 every 64 KiB. *)
let cut_stream () =
  let buf = Buffer.create 65_536 and chained = ref "" and n = ref 0 in
  let observe ~time:_ ~proc:_ = function
    | Hope_obs.Event.Cycle_cut { iid; aid } ->
      incr n;
      Printf.bprintf buf "%s:%d;" (Hope_types.Interval_id.to_string iid)
        (Hope_types.Aid.index aid);
      if Buffer.length buf >= 65_536 then begin
        chained := Digest.string (!chained ^ Buffer.contents buf);
        Buffer.clear buf
      end
    | _ -> ()
  in
  {
    observe;
    cuts = (fun () -> !n);
    digest =
      (fun () -> Digest.to_hex (Digest.string (!chained ^ Buffer.contents buf)));
  }

let test name f = Alcotest.test_case name `Quick f
