(* Tests for the process substrate: the DSL and the scheduler, without
   any HOPE semantics (no runtime installed unless noted). *)

open Hope_types
module Engine = Hope_sim.Engine
module Scheduler = Hope_proc.Scheduler
module Program = Hope_proc.Program
open Program.Syntax
open Test_support.Util

let test name f = Alcotest.test_case name `Quick f

let make ?(sched_config = Scheduler.free_config) ?latency () =
  make_substrate ~sched_config ?latency ()

(* --------------------------- basics ------------------------------- *)

let test_terminates () =
  let engine, sched = make () in
  let p = Scheduler.spawn sched ~name:"noop" (Program.return ()) in
  ignore (Engine.run engine);
  Alcotest.(check bool) "terminated" true (Scheduler.status sched p = Scheduler.Terminated);
  Alcotest.(check bool) "all terminated" true (Scheduler.all_terminated sched)

let test_compute_advances_time () =
  let engine, sched = make () in
  let p =
    Scheduler.spawn sched ~name:"worker"
      (let* () = Program.compute 1.5 in
       let* () = Program.compute 0.5 in
       Program.return ())
  in
  ignore (Engine.run engine);
  Alcotest.(check (option (float 1e-9))) "completion time" (Some 2.0)
    (Scheduler.completion_time sched p)

let test_ping_pong () =
  let engine, sched = make ~latency:(Hope_net.Latency.Constant 1e-3) () in
  let log = ref [] in
  let ponger =
    Scheduler.spawn sched ~node:1 ~name:"ponger"
      (let* env = Program.recv () in
       let* () = Program.lift (fun () -> log := "pong-recv" :: !log) in
       Program.send env.Envelope.src (Value.String "pong"))
  in
  let _pinger =
    Scheduler.spawn sched ~node:0 ~name:"pinger"
      (let* () = Program.send ponger (Value.String "ping") in
       let* v = Program.recv_value () in
       Program.lift (fun () -> log := Value.to_string_payload v :: !log))
  in
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "round trip" [ "pong-recv"; "pong" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "two hops" 2e-3 (Engine.now engine)

let test_recv_filters () =
  let engine, sched = make () in
  let got = ref [] in
  let receiver =
    Scheduler.spawn sched ~name:"receiver"
      (let* v1 =
         Program.recv_where (fun e -> Envelope.value e = Value.String "second")
       in
       let* () =
         Program.lift (fun () -> got := Value.to_string_payload (Envelope.value v1) :: !got)
       in
       let* v2 = Program.recv_value () in
       Program.lift (fun () -> got := Value.to_string_payload v2 :: !got))
  in
  let _sender =
    Scheduler.spawn sched ~name:"sender"
      (let* () = Program.send receiver (Value.String "first") in
       Program.send receiver (Value.String "second"))
  in
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "filtered then leftover" [ "second"; "first" ]
    (List.rev !got)

let test_recv_from () =
  let engine, sched = make () in
  let got = ref [] in
  let receiver_box = ref None in
  let a =
    Scheduler.spawn sched ~name:"a"
      (let* () = Program.compute 0.01 in
       let* r = Program.lift (fun () -> Option.get !receiver_box) in
       Program.send r (Value.Int 1))
  in
  let _b =
    Scheduler.spawn sched ~name:"b"
      (let* r = Program.lift (fun () -> Option.get !receiver_box) in
       Program.send r (Value.Int 2))
  in
  let receiver =
    Scheduler.spawn sched ~name:"receiver"
      (* Wait specifically for a's message even though b's arrives first. *)
      (let* v = Program.recv_value_from a in
       Program.lift (fun () -> got := Value.to_int v :: !got))
  in
  receiver_box := Some receiver;
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "selective receive" [ 1 ] !got

let test_recv_opt () =
  let engine, sched = make () in
  let got = ref [] in
  let receiver =
    Scheduler.spawn sched ~name:"receiver"
      (let* first = Program.recv_opt () in
       let* () = Program.lift (fun () -> got := ("empty", first = None) :: !got) in
       let* () = Program.compute 0.1 in
       let* second = Program.recv_opt () in
       Program.lift (fun () -> got := ("full", second <> None) :: !got))
  in
  let _sender =
    Scheduler.spawn sched ~name:"sender"
      (let* () = Program.compute 0.01 in
       Program.send receiver Value.Unit)
  in
  ignore (Engine.run engine);
  Alcotest.(check (list (pair string bool)))
    "non-blocking receive" [ ("empty", true); ("full", true) ] (List.rev !got)

let test_spawn_hierarchy () =
  let engine, sched = make () in
  let log = ref [] in
  let _parent =
    Scheduler.spawn sched ~name:"parent"
      (let* child =
         Program.spawn "child"
           (let* v = Program.recv_value () in
            Program.lift (fun () -> log := Value.to_int v :: !log))
       in
       Program.send child (Value.Int 99))
  in
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "child ran" [ 99 ] !log;
  Alcotest.(check bool) "all terminated" true (Scheduler.all_terminated sched)

let test_random_ops_deterministic () =
  let run () =
    let engine, sched = make () in
    let out = ref [] in
    ignore
      (Scheduler.spawn sched ~name:"r"
         (Program.for_ 1 10 (fun _ ->
              let* f = Program.random_float 1.0 in
              let* b = Program.random_bernoulli 0.5 in
              let* i = Program.random_int 100 in
              Program.lift (fun () -> out := (f, b, i) :: !out)))
        : Proc_id.t);
    ignore (Engine.run engine);
    !out
  in
  Alcotest.(check bool) "two identical runs agree" true (run () = run ())

let test_fuel_exhaustion () =
  let engine, sched = make ~sched_config:{ Scheduler.free_config with fuel = 100 } () in
  let rec spin () =
    let* () = Program.incr_counter "spin" in
    spin ()
  in
  ignore (Scheduler.spawn sched ~name:"spinner" (spin ()) : Proc_id.t);
  Alcotest.(check bool) "non-terminating pure loop detected" true
    (try
       ignore (Engine.run engine);
       false
     with Scheduler.Process_failure _ | Scheduler.Fuel_exhausted _ -> true)

let test_costs_accounted () =
  let config =
    { Scheduler.free_config with send_cost = 10e-3; recv_cost = 5e-3 }
  in
  let engine, sched = make ~sched_config:config ~latency:(Hope_net.Latency.Constant 1e-3) () in
  let receiver =
    Scheduler.spawn sched ~node:1 ~name:"receiver"
      (let* _ = Program.recv () in
       Program.return ())
  in
  let sender =
    Scheduler.spawn sched ~node:0 ~name:"sender" (Program.send receiver Value.Unit)
  in
  ignore (Engine.run engine);
  (* sender: send_cost; receiver: latency + recv_cost *)
  Alcotest.(check (option (float 1e-9))) "sender paid send cost" (Some 10e-3)
    (Scheduler.completion_time sched sender);
  Alcotest.(check (option (float 1e-9))) "receiver paid latency + recv cost"
    (Some 6e-3)
    (Scheduler.completion_time sched receiver)

let test_send_user_injection () =
  let engine, sched = make () in
  let got = ref [] in
  let receiver =
    Scheduler.spawn sched ~name:"receiver"
      (let* v = Program.recv_value () in
       Program.lift (fun () -> got := Value.to_int v :: !got))
  in
  Scheduler.send_user sched ~src:(Proc_id.of_int 999) ~dst:receiver
    ~tags:Aid.Set.empty (Value.Int 5);
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "injected message received" [ 5 ] !got

let test_hope_ops_require_runtime () =
  let engine, sched = make () in
  ignore
    (Scheduler.spawn sched ~name:"guesser"
       (let* x = Program.aid_init () in
        let* _ = Program.guess x in
        Program.return ())
      : Proc_id.t);
  Alcotest.(check bool) "raises without hooks" true
    (try
       ignore (Engine.run engine);
       false
     with Scheduler.Process_failure _ -> true)

(* Program combinator behaviour (executed, not just constructed). *)
let test_combinators () =
  let engine, sched = make () in
  let out = ref [] in
  ignore
    (Scheduler.spawn sched ~name:"combi"
       (let* () = Program.for_ 1 3 (fun i -> Program.lift (fun () -> out := i :: !out)) in
        let* () = Program.when_ false (Program.lift (fun () -> out := 99 :: !out)) in
        let* () = Program.when_ true (Program.lift (fun () -> out := 4 :: !out)) in
        let* () =
          Program.iter_list (fun i -> Program.lift (fun () -> out := i :: !out)) [ 5; 6 ]
        in
        let* () = Program.repeat 2 (Program.lift (fun () -> out := 7 :: !out)) in
        let* total = Program.fold 1 4 0 (fun acc i -> Program.return (acc + i)) in
        Program.lift (fun () -> out := total :: !out))
      : Proc_id.t);
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "combinators execute in order"
    [ 1; 2; 3; 4; 5; 6; 7; 7; 10 ] (List.rev !out)

(* One send under a storing recorder: the text export lists it once as
   sent and once as received. *)
let test_wire_trace_records_transmissions () =
  let engine, sched = make () in
  let obs = Engine.obs engine in
  Hope_obs.Recorder.enable obs;
  let receiver =
    Scheduler.spawn sched ~name:"receiver"
      (let* _ = Program.recv () in
       Program.return ())
  in
  ignore
    (Scheduler.spawn sched ~name:"sender" (Program.send receiver (Value.Int 9))
      : Proc_id.t);
  ignore (Engine.run engine);
  let words =
    Hope_obs.Obs.export_string Hope_obs.Obs.Text (Hope_obs.Recorder.events obs)
    |> String.map (function '\n' -> ' ' | c -> c)
    |> String.split_on_char ' '
  in
  let count kind = List.length (List.filter (String.equal kind) words) in
  Alcotest.(check int) "one msg-send line" 1 (count "msg-send");
  Alcotest.(check int) "one msg-recv line" 1 (count "msg-recv")

let test_recv_opt_with_filter () =
  let engine, sched = make () in
  let got = ref [] in
  let receiver =
    Scheduler.spawn sched ~name:"receiver"
      (let* () = Program.compute 0.1 in
       (* Both messages have arrived; pick only the matching one. *)
       let* m =
         Program.recv_opt_where (fun e -> Envelope.value e = Value.Int 2)
       in
       let* () =
         Program.lift (fun () ->
             got := (match m with Some e -> Value.to_int (Envelope.value e) | None -> -1) :: !got)
       in
       (* The other message is still there for a plain receive. *)
       let* v = Program.recv_value () in
       Program.lift (fun () -> got := Value.to_int v :: !got))
  in
  ignore
    (Scheduler.spawn sched ~name:"sender"
       (let* () = Program.send receiver (Value.Int 1) in
        Program.send receiver (Value.Int 2))
      : Proc_id.t);
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "filtered poll then leftover" [ 2; 1 ] (List.rev !got)

(* ------------- incremental rollback storage: oracle test ------------- *)

(* Model-based property for the journal/compaction storage layer. A
   random schedule of injections, speculative relay sends, rollbacks and
   finalizes drives the real scheduler, with hooks faking a minimal HOPE
   runtime (every tagged message opens an interval; rollback and
   finalize arrive from outside, as the runtime would issue them). The
   same schedule drives a naive eager-storage oracle in plain OCaml —
   full-scan flips, no journal, no compaction — and the two must agree
   on every observable: the consumed-value log, live checkpoints,
   journalled claims, and a mailbox residency bound of O(open
   speculation). *)
module Storage_oracle = struct
  type m_state = Free | Claimed of int | Definite | Dropped

  type m_arrival = {
    tag : Aid.t option;
    value : int;
    mutable st : m_state;
  }

  type model = {
    s_tag : Aid.t;  (** every relayed message carries this tag *)
    mutable arr : m_arrival list;  (** receiver mailbox, arrival order *)
    mutable stack : (int * m_arrival option) list;
        (** receiver's live intervals, newest first, with trigger *)
    mutable log : int list;  (** consumed values, newest first *)
    mutable seq : int;
    mutable cmds : m_arrival list;  (** sender's command mailbox *)
    mutable sends : m_arrival list;
        (** receiver arrivals journalled under the sender's interval *)
  }

  let create ~s_tag =
    { s_tag; arr = []; stack = []; log = []; seq = 0; cmds = []; sends = [] }

  (* The receiver consumes greedily in arrival order until nothing is
     free — exactly what its recv loop does between driver operations. *)
  let consume_loop m =
    List.iter
      (fun a ->
        if a.st = Free then begin
          (match a.tag with
          | Some _ ->
            m.seq <- m.seq + 1;
            m.stack <- (m.seq, Some a) :: m.stack;
            a.st <- Claimed m.seq
          | None -> (
            match m.stack with
            | (s, _) :: _ -> a.st <- Claimed s
            | [] -> a.st <- Definite));
          m.log <- a.value :: m.log
        end)
      m.arr

  let inject m ~tag v =
    m.arr <- m.arr @ [ { tag; value = v; st = Free } ];
    consume_loop m

  let send_via_s m v =
    let c = { tag = None; value = v; st = Free } in
    m.cmds <- m.cmds @ [ c ];
    c.st <- Claimed 0;
    let a = { tag = Some m.s_tag; value = v; st = Free } in
    m.arr <- m.arr @ [ a ];
    m.sends <- m.sends @ [ a ];
    consume_loop m

  (* Roll the receiver back to the interval at [pos] in the stack
     (0 = newest): flip every claim the rolled suffix holds, drop the
     target's trigger if the cause is its tag's denial, and re-consume. *)
  let flip_rolled m rolled_seqs =
    List.iter
      (fun a ->
        match a.st with
        | Claimed s when List.mem s rolled_seqs -> a.st <- Free
        | _ -> ())
      m.arr

  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []

  let rec drop n = function
    | _ :: rest when n > 0 -> drop (n - 1) rest
    | l -> l

  let r_rollback m pos ~denied =
    let rolled = take (pos + 1) m.stack in
    flip_rolled m (List.map fst rolled);
    (if denied then
       match List.nth m.stack pos with
       | _, Some a -> a.st <- Dropped
       | _, None -> ());
    m.stack <- drop (pos + 1) m.stack;
    consume_loop m

  (* One retraction landing at the receiver. A claim cascades: the
     consuming interval and everything newer roll back, then the message
     itself dies. No re-consumption yet — the batch completes first. *)
  let cancel m a =
    (match a.st with
    | Claimed s ->
      let pos =
        let rec go i = function
          | (s', _) :: rest -> if s' = s then i else go (i + 1) rest
          | [] -> invalid_arg "oracle: claim by unknown interval"
        in
        go 0 m.stack
      in
      flip_rolled m (List.map fst (take (pos + 1) m.stack));
      m.stack <- drop (pos + 1) m.stack;
      a.st <- Dropped
    | Free -> a.st <- Dropped
    | Definite | Dropped -> ())

  (* The sender rolls back: its journalled sends are retracted in send
     order, its command claims reopen, the receiver re-consumes what the
     cascades freed, and then the sender's re-execution re-relays every
     command — fresh messages that arrive after everything resident. *)
  let s_rollback m =
    List.iter (cancel m) m.sends;
    m.sends <- [];
    List.iter (fun c -> if c.st = Claimed 0 then c.st <- Free) m.cmds;
    consume_loop m;
    List.iter
      (fun c ->
        if c.st = Free then begin
          c.st <- Claimed 0;
          let a = { tag = Some m.s_tag; value = c.value; st = Free } in
          m.arr <- m.arr @ [ a ];
          m.sends <- m.sends @ [ a ]
        end)
      m.cmds;
    consume_loop m

  let finalize_oldest m =
    match List.rev m.stack with
    | [] -> ()
    | (s, _) :: _ ->
      List.iter (fun a -> if a.st = Claimed s then a.st <- Definite) m.arr;
      m.stack <- take (List.length m.stack - 1) m.stack

  let live m =
    List.length
      (List.filter
         (fun a -> match a.st with Free | Claimed _ -> true | _ -> false)
         m.arr)

  let claimed m =
    List.length
      (List.filter (fun a -> match a.st with Claimed _ -> true | _ -> false) m.arr)
end

let qcheck_storage_oracle =
  let gen =
    QCheck.(
      pair (int_range 1 10_000)
        (list_of_size Gen.(int_range 20 120) (int_range 0 99)))
  in
  QCheck.Test.make ~name:"journal storage matches the eager oracle" ~count:60 gen
    (fun (seed, ops) ->
      let engine, sched =
        make_substrate ~seed ~latency:(Hope_net.Latency.Constant 1e-3)
          ~fifo:true ~sched_config:Scheduler.free_config ()
      in
      let s_tag = Aid.of_proc (Proc_id.of_int 990) in
      let iid_seq = ref 0 in
      let r_stack = ref [] in
      let s_stack = ref [] in
      let real_log = ref [] in
      let r_pid =
        Scheduler.spawn sched ~node:0 ~name:"r"
          (let rec loop () =
             let* v = Program.recv_value () in
             let* () =
               Program.lift (fun () -> real_log := Value.to_int v :: !real_log)
             in
             loop ()
           in
           loop ())
      in
      let s_pid =
        Scheduler.spawn sched ~node:1 ~name:"s"
          (let* aid = Program.aid_init () in
           let* _ = Program.guess aid in
           let rec loop () =
             let* v = Program.recv_value () in
             let* () = Program.send r_pid v in
             loop ()
           in
           loop ())
      in
      let fresh_iid owner =
        incr iid_seq;
        Interval_id.make ~owner ~seq:!iid_seq
      in
      (* Split the live stack at [iid]: the rolled suffix, oldest first,
         and what survives. *)
      let cut_at iid stack =
        let rec go acc = function
          | [] -> invalid_arg "oracle driver: unknown interval"
          | x :: rest ->
            let acc = x :: acc in
            if Interval_id.equal x iid then (acc, rest) else go acc rest
        in
        go [] stack
      in
      Scheduler.set_hooks sched
        {
          Scheduler.h_tags =
            (fun pid ->
              if Proc_id.equal pid s_pid then Aid.Set.singleton s_tag
              else Aid.Set.empty);
          h_current =
            (fun pid ->
              let st = if Proc_id.equal pid s_pid then s_stack else r_stack in
              match !st with [] -> None | i :: _ -> Some i);
          h_aid_init = (fun _ -> Aid.of_proc (Proc_id.of_int 991));
          h_guess =
            (fun pid _ ->
              let iid = fresh_iid pid in
              s_stack := [ iid ];
              Scheduler.Speculate iid);
          h_send_delay = (fun _ -> 0.0);
          h_implicit =
            (fun pid _ ->
              let iid = fresh_iid pid in
              r_stack := iid :: !r_stack;
              Scheduler.Accept (Some iid));
          h_affirm = (fun _ _ -> ());
          h_deny = (fun _ _ -> ());
          h_free_of = (fun _ _ -> ());
          h_control = (fun ~self:_ ~src:_ _ -> ());
          h_cancelled =
            (fun ~self ~iid ~msg_id ->
              let rolled, rest = cut_at iid !r_stack in
              r_stack := rest;
              Scheduler.rollback sched self ~target:iid ~rolled
                ~cause:(Scheduler.Message_cancelled msg_id));
          h_spawned = (fun _ -> ());
          h_spawn_child = (fun ~parent:_ ~child:_ -> None);
        };
      let m = Storage_oracle.create ~s_tag in
      let next_v = ref 0 in
      let tag_seq = ref 0 in
      let quiesce () =
        match Engine.run engine with
        | Hope_sim.Engine.Quiescent -> ()
        | r ->
          QCheck.Test.fail_reportf "not quiescent: %a" Engine.pp_stop_reason r
      in
      let compare_worlds () =
        if List.rev !real_log <> List.rev m.Storage_oracle.log then
          QCheck.Test.fail_reportf "consumption log diverged:@ real %a@ model %a"
            Format.(pp_print_list ~pp_sep:pp_print_space pp_print_int)
            (List.rev !real_log)
            Format.(pp_print_list ~pp_sep:pp_print_space pp_print_int)
            (List.rev m.Storage_oracle.log);
        let cks = Scheduler.open_checkpoints sched r_pid in
        if cks <> List.length m.Storage_oracle.stack then
          QCheck.Test.fail_reportf "checkpoints: real %d, model %d" cks
            (List.length m.Storage_oracle.stack);
        let entries = Scheduler.journal_entries sched r_pid in
        if entries <> Storage_oracle.claimed m then
          QCheck.Test.fail_reportf "receiver journal entries: real %d, model %d"
            entries (Storage_oracle.claimed m);
        let s_entries = Scheduler.journal_entries sched s_pid in
        let s_model =
          List.length
            (List.filter
               (fun c -> c.Storage_oracle.st = Storage_oracle.Claimed 0)
               m.Storage_oracle.cmds)
          + List.length m.Storage_oracle.sends
        in
        if s_entries <> s_model then
          QCheck.Test.fail_reportf "sender journal entries: real %d, model %d"
            s_entries s_model;
        let resident = Scheduler.arrivals_resident sched r_pid in
        let bound = max 64 ((2 * Storage_oracle.live m) + 1) in
        if resident > bound then
          QCheck.Test.fail_reportf
            "mailbox not bounded by open speculation: resident %d > %d" resident
            bound
      in
      quiesce ();
      List.iter
        (fun op ->
          (if op < 25 then begin
             incr next_v;
             Scheduler.send_user sched ~src:(Proc_id.of_int 999) ~dst:r_pid
               ~tags:Aid.Set.empty (Value.Int !next_v);
             Storage_oracle.inject m ~tag:None !next_v
           end
           else if op < 45 then begin
             incr next_v;
             incr tag_seq;
             let tag = Aid.of_proc (Proc_id.of_int (2000 + !tag_seq)) in
             Scheduler.send_user sched ~src:(Proc_id.of_int 999) ~dst:r_pid
               ~tags:(Aid.Set.singleton tag) (Value.Int !next_v);
             Storage_oracle.inject m ~tag:(Some tag) !next_v
           end
           else if op < 65 then begin
             incr next_v;
             Scheduler.send_user sched ~src:(Proc_id.of_int 999) ~dst:s_pid
               ~tags:Aid.Set.empty (Value.Int !next_v);
             Storage_oracle.send_via_s m !next_v
           end
           else if op < 82 then begin
             let len = List.length !r_stack in
             if len > 0 then begin
               let pos = op mod len in
               let target = List.nth !r_stack pos in
               let rolled, rest = cut_at target !r_stack in
               let denied = op mod 2 = 0 in
               let cause =
                 if denied then
                   match List.nth m.Storage_oracle.stack pos with
                   | _, Some a ->
                     Scheduler.Assumption_denied
                       (Option.get a.Storage_oracle.tag)
                   | _, None -> Scheduler.Assumption_revoked
                 else Scheduler.Assumption_revoked
               in
               let denied =
                 match cause with
                 | Scheduler.Assumption_denied _ -> true
                 | _ -> false
               in
               r_stack := rest;
               Scheduler.rollback sched r_pid ~target ~rolled ~cause;
               Storage_oracle.r_rollback m pos ~denied
             end
           end
           else if op < 92 then (
             match !s_stack with
             | [ iid ] ->
               Scheduler.rollback sched s_pid ~target:iid ~rolled:[ iid ]
                 ~cause:Scheduler.Assumption_revoked;
               Storage_oracle.s_rollback m
             | _ -> ())
           else
             match List.rev !r_stack with
             | [] -> ()
             | oldest :: _ ->
               Scheduler.release_interval sched r_pid oldest;
               r_stack := Storage_oracle.take (List.length !r_stack - 1) !r_stack;
               Storage_oracle.finalize_oldest m);
          quiesce ();
          compare_worlds ())
        ops;
      (* Teardown: finalize everything still open, oldest first. All
         storage must drain — checkpoints, journal entries, and the
         receiver's claims all go definite. *)
      (match !s_stack with
      | [ iid ] ->
        Scheduler.release_interval sched s_pid iid;
        s_stack := []
      | _ -> ());
      List.iter
        (fun iid ->
          Scheduler.release_interval sched r_pid iid;
          Storage_oracle.finalize_oldest m)
        (List.rev !r_stack);
      r_stack := [];
      quiesce ();
      if
        not
          (Scheduler.open_checkpoints sched r_pid = 0
          && Scheduler.journal_entries sched r_pid = 0
          && Scheduler.open_checkpoints sched s_pid = 0
          && Scheduler.journal_entries sched s_pid = 0)
      then QCheck.Test.fail_report "storage failed to drain at teardown";
      let resident = Scheduler.arrivals_resident sched r_pid in
      if resident > max 64 ((2 * Storage_oracle.live m) + 1) then
        QCheck.Test.fail_reportf "drained mailbox still unbounded: resident %d"
          resident;
      true)

let qcheck_determinism =
  QCheck.Test.make ~name:"scheduler: same seed, same completion times" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let run () =
        let engine = Engine.create ~seed () in
        let sched = Scheduler.create ~engine ~default_latency:Hope_net.Latency.lan () in
        let pids =
          List.init 5 (fun i ->
              Scheduler.spawn sched ~name:(Printf.sprintf "w%d" i)
                (let* d = Program.random_float 0.1 in
                 Program.compute d))
        in
        ignore (Engine.run engine);
        List.map (Scheduler.completion_time sched) pids
      in
      run () = run ())

let () =
  Alcotest.run "proc"
    [
      ( "basics",
        [
          test "terminates" test_terminates;
          test "compute advances time" test_compute_advances_time;
          test "ping pong" test_ping_pong;
          test "combinators" test_combinators;
        ] );
      ( "receive",
        [
          test "filters" test_recv_filters;
          test "recv_from is selective" test_recv_from;
          test "recv_opt is non-blocking" test_recv_opt;
          test "recv_opt with filter" test_recv_opt_with_filter;
        ] );
      ( "observability",
        [
          test "wire trace records transmissions" test_wire_trace_records_transmissions;
        ] );
      ( "lifecycle",
        [
          test "spawn hierarchy" test_spawn_hierarchy;
          test "random ops deterministic" test_random_ops_deterministic;
          test "fuel exhaustion detected" test_fuel_exhaustion;
          test "costs accounted" test_costs_accounted;
          test "send_user injection" test_send_user_injection;
          test "hope ops require runtime" test_hope_ops_require_runtime;
          QCheck_alcotest.to_alcotest qcheck_determinism;
        ] );
      ( "storage",
        [ QCheck_alcotest.to_alcotest qcheck_storage_oracle ] );
    ]
