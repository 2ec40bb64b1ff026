(* Sharded Time Warp executor across OCaml 5 domains.

   The paper's thesis — speculation as the parallelization strategy —
   applied to our own executor: the LP space is partitioned across
   domains by the fixed assignment [lp mod shards] (Context.owner), each
   shard runs its partition optimistically against local virtual time,
   and cross-shard deliveries ride lock-free SPSC rings (Mailbox). A
   delivery below the destination LP's LVT is a straggler: the shard
   rolls that LP back locally (state restore + input requeue +
   anti-messages for its sends), exactly Jefferson's protocol, with no
   barrier and no global coordination on the hot path.

   Commitment is by GVT. Every shard publishes a conservative
   lower bound ("floor") on the virtual time of anything it may still
   send; per-directed-pair cumulative sent/recvd counters account for
   messages in flight. Shard 0 doubles as the GVT coordinator (no
   dedicated domain burning a core): it reads all counters, then all
   floors, then the counters again — if the counters are pairwise equal
   (nothing in flight) and unchanged across the reads, min(floors) is a
   valid GVT. Entries below GVT fossil-collect into per-shard commit
   lists; GVT = +inf with stable counters means global quiescence and
   stops the run.

   Soundness of the floor protocol (the part worth stating precisely):
   - a shard publishes its floor at the top of its loop, BEFORE popping
     the minimum pending message, so the floor covers the event it is
     about to execute; model outputs have recv_ts > input ts >= floor;
   - a receiver LOWERS its floor (Atomic min) the moment it takes a
     message off a ring, BEFORE bumping the pair's recvd counter. So if
     the coordinator's stable counter reads cover that recvd bump, the
     floor read between them already reflects the arrival; if they
     don't, the counters differ and the round aborts. Rollback requeues
     only entries with recv_ts >= the arrival's recv_ts, so the lowered
     floor covers those too.

   Determinism: with the fixed assignment, Time Warp commits exactly the
   sequential event set — the merged trace sorts commit records by a key
   (recv_ts, dst_lp, send_ts, src_lp, payload digest) that is
   independent of the domain count, so the chrome trace is
   byte-identical at 1, 2, or 4 domains (pinned in CI). *)

module Equeue = Hope_sim.Equeue
module Context = Hope_sim.Context
module Metrics = Hope_sim.Metrics
module Recorder = Hope_obs.Recorder
module Event = Hope_obs.Event
module Monitor = Hope_obs.Monitor
module Proc_id = Hope_types.Proc_id
module Timewarp = Hope_timewarp.Timewarp

type 'p message = {
  mid : int;  (* globally unique: shard_id + k * shards *)
  src_lp : int;  (* -1 for seed injections *)
  dst_lp : int;
  send_ts : float;
  recv_ts : float;
  payload : 'p;
  anti : bool;
  (* Rollback provenance, meaningful on anti-messages only: the root
     cause of the rollback that generated this anti — the straggler
     positive that started the cascade. Secondary rollbacks triggered by
     this anti inherit it, so every wasted event traces to one root.
     Flat ints (-1 when absent) keep the hot-path message unboxed-ish:
     no option allocation per send. *)
  root_shard : int;
  root_mid : int;
  root_send_ts : float;
}

(* A positive message; the [root_*] fields are filled in on anti-messages
   only. *)
let message ~mid ~src_lp ~dst_lp ~send_ts ~recv_ts payload =
  { mid; src_lp; dst_lp; send_ts; recv_ts; payload; anti = false;
    root_shard = -1; root_mid = -1; root_send_ts = 0.0 }

(* Root-cause identity of a rollback cascade: the straggler that started
   it ([p_shard] = -1 for a local cause). *)
type provenance = { p_shard : int; p_mid : int; p_send_ts : float }

type commit = {
  c_recv_ts : float;
  c_dst_lp : int;
  c_src_lp : int;
  c_send_ts : float;
  c_digest : int;
}

let commit_compare a b =
  let c = Float.compare a.c_recv_ts b.c_recv_ts in
  if c <> 0 then c
  else
    let c = compare a.c_dst_lp b.c_dst_lp in
    if c <> 0 then c
    else
      let c = Float.compare a.c_send_ts b.c_send_ts in
      if c <> 0 then c
      else
        let c = compare a.c_src_lp b.c_src_lp in
        if c <> 0 then c else compare a.c_digest b.c_digest

type ('s, 'p) spec = {
  model : ('s, 'p) Timewarp.model;
  n_lps : int;
  horizon : float;
  seeds : (int * float * 'p) list;
  digest : 'p -> int;
  dummy : 'p;
}

type 's result = {
  states : 's array;
  commits : commit array;
  processed : int;
  committed : int;
  rollbacks : int;
  rolled_back : int;
  stragglers : int;
  anti_messages : int;
  annihilations : int;
  remote_sends : int;
  full_spins : int;
  max_rollback_depth : int;
  gvt_rounds : int;
  domains : int;
  registries : Metrics.registry array;
  samples : Monitor.shard_sample list;
}

(* ---------------------------------------------------------------- *)
(* Shared fabric: everything the domains touch concurrently.         *)

(* Virtual times as integer nanoseconds for the Atomic floor/GVT
   cells (no Atomic float in the stdlib). Round DOWN so a floor never
   overstates the bound. *)
let ns_of ts =
  if ts >= float_of_int max_int /. 1e9 then max_int
  else int_of_float (ts *. 1e9)

type 'p fabric = {
  shards : int;
  rings : 'p message Mailbox.t array;  (* rings.(src * shards + dst) *)
  sent : int Atomic.t array;  (* cumulative, per directed pair *)
  recvd : int Atomic.t array;
  floors : int Atomic.t array;  (* per shard; max_int = idle *)
  gvt_ns : int Atomic.t;
  stop : bool Atomic.t;
}

type ('s, 'p) entry = {
  e_msg : 'p message;
  state_before : 's;
  lvt_before : float;
  sent_msgs : 'p message list;
}

type ('s, 'p) lp = {
  gid : int;
  mutable st : 's;
  mutable lvt : float;
  mutable done_ : ('s, 'p) entry list;  (* newest first, recv_ts descending *)
}

type stats = {
  mutable processed : int;
  mutable rollbacks : int;
  mutable rolled_back : int;
  mutable stragglers : int;
  mutable anti_messages : int;
  mutable annihilations : int;
  mutable remote_sends : int;
  mutable full_spins : int;
  mutable max_rollback : int;
  mutable gvt_rounds : int;
}

type ('s, 'p) shard = {
  id : int;
  spec : ('s, 'p) spec;
  fab : 'p fabric;
  lps : ('s, 'p) lp option array;  (* by global LP id; Some iff local *)
  pending : 'p message Equeue.t;
  tombstones : (int, unit) Hashtbl.t;
      (* mids of pending positives annihilated by an anti that arrived
         first in processing order; Equeue has no removal, so the
         positive is skipped at pop. Pair-FIFO rings guarantee the
         positive is already queued when its anti is handled. *)
  overflow : (int * 'p message) Queue.t;
      (* (pair index, message): unloaded from inbound rings while this
         shard was itself blocked pushing; drained FIFO before the
         rings, preserving per-pair order *)
  stats : stats;
  registry : Metrics.registry;  (* the [shard.*] instruments, post-run *)
  recorder : Recorder.t;  (* per-domain diagnostics ([obs_shard]'s) *)
  mutable samples_rev : Monitor.shard_sample list;
  mutable since_sample : int;
  mutable next_mid : int;
  mutable last_gvt_ns : int;
  mutable commits : commit list;
}

let pair fab ~src ~dst = (src * fab.shards) + dst

let fresh_mid sh =
  let m = sh.id + (sh.next_mid * sh.fab.shards) in
  sh.next_mid <- sh.next_mid + 1;
  m

let local_lp sh gid =
  match sh.lps.(gid) with
  | Some lp -> lp
  | None -> invalid_arg "Shard: message routed to non-local LP"

(* Atomic min on a floor cell. Only this shard raises its own floor (in
   publish_floor); concurrent writers only lower, so a CAS loop settles
   fast. *)
let lower_floor sh ts =
  let cell = sh.fab.floors.(sh.id) in
  let v = ns_of ts in
  let rec go () =
    let cur = Atomic.get cell in
    if v < cur && not (Atomic.compare_and_set cell cur v) then go ()
  in
  go ()

let publish_floor sh =
  let v =
    if Equeue.is_empty sh.pending then max_int else ns_of (Equeue.min_prio sh.pending)
  in
  Atomic.set sh.fab.floors.(sh.id) v

(* Unload inbound rings without processing — safe to call while blocked
   mid-push (even mid-event): no rollback can run under our feet. *)
let unload_inboxes sh =
  let fab = sh.fab in
  for src = 0 to fab.shards - 1 do
    if src <> sh.id then begin
      let p = pair fab ~src ~dst:sh.id in
      match Mailbox.pop fab.rings.(p) with
      | Some m ->
          lower_floor sh m.recv_ts;
          Queue.add (p, m) sh.overflow
      | None -> ()
    end
  done

let remote_push sh ~dst_shard m =
  let fab = sh.fab in
  let p = pair fab ~src:sh.id ~dst:dst_shard in
  (* sent is bumped BEFORE the ring push: while the message is in
     flight the pair's counters differ, which vetoes any GVT round that
     could otherwise miss it. *)
  Atomic.incr fab.sent.(p);
  Mailbox.push fab.rings.(p) m ~while_waiting:(fun () ->
      (* every retry is one full-ring spin: the back-pressure signal the
         monitor's Mailbox_backpressure diagnostic watches *)
      sh.stats.full_spins <- sh.stats.full_spins + 1;
      unload_inboxes sh)

(* ---------------------------------------------------------------- *)
(* Rollback (Jefferson): restore the oldest undone snapshot, requeue
   the undone inputs, send anti-messages for the undone outputs.       *)

let rec rollback sh lp ~upto ~drop_mid ~root ~secondary =
  let rec split undone = function
    | e :: tl when e.e_msg.recv_ts >= upto -> split (e :: undone) tl
    | rest -> (undone, rest)
  in
  (* [undone] comes back oldest-first *)
  let undone, remaining = split [] lp.done_ in
  match undone with
  | [] -> ()
  | oldest :: _ ->
      let lvt_before = lp.lvt in
      lp.done_ <- remaining;
      lp.st <- oldest.state_before;
      lp.lvt <- oldest.lvt_before;
      let n = List.length undone in
      sh.stats.rollbacks <- sh.stats.rollbacks + 1;
      sh.stats.rolled_back <- sh.stats.rolled_back + n;
      if n > sh.stats.max_rollback then sh.stats.max_rollback <- n;
      if Recorder.enabled sh.recorder then
        Recorder.emit sh.recorder ~time:upto ~proc:(Proc_id.of_int lp.gid)
          (Event.Shard_straggler
             {
               lp = lp.gid;
               lvt = lvt_before;
               root_shard = root.p_shard;
               root_mid = root.p_mid;
               root_send_ts = root.p_send_ts;
               rolled = n;
               secondary;
             });
      List.iter
        (fun e ->
          (match drop_mid with
          | Some d when e.e_msg.mid = d ->
              (* the cancelled input meets its anti here: one
                 positive/anti pair annihilated in executed form *)
              sh.stats.annihilations <- sh.stats.annihilations + 1
          | _ -> Equeue.push sh.pending ~priority:e.e_msg.recv_ts e.e_msg);
          List.iter (fun m -> send_anti sh ~root m) e.sent_msgs)
        undone

and send_anti sh ~root m =
  sh.stats.anti_messages <- sh.stats.anti_messages + 1;
  let am =
    {
      m with
      anti = true;
      root_shard = root.p_shard;
      root_mid = root.p_mid;
      root_send_ts = root.p_send_ts;
    }
  in
  let dst_shard = Context.owner ~shards:sh.fab.shards m.dst_lp in
  if dst_shard = sh.id then handle_anti sh am
  else remote_push sh ~dst_shard am

and handle_anti sh am =
  let lp = local_lp sh am.dst_lp in
  if List.exists (fun e -> e.e_msg.mid = am.mid) lp.done_ then
    (* already executed: secondary rollback, dropping the cancelled
       input instead of requeueing it; the cascade keeps the anti's root *)
    rollback sh lp ~upto:am.recv_ts ~drop_mid:(Some am.mid)
      ~root:
        { p_shard = am.root_shard; p_mid = am.root_mid;
          p_send_ts = am.root_send_ts }
      ~secondary:true
  else
    (* FIFO per pair (ring or local synchronous call) means the positive
       is already in pending: tombstone it for annihilation at pop. *)
    Hashtbl.replace sh.tombstones am.mid ()

(* Insert a positive message bound for a local LP, rolling back first if
   it's a straggler — the message itself is the cascade's root cause. *)
let enqueue_local sh m =
  let lp = local_lp sh m.dst_lp in
  if m.recv_ts < lp.lvt then begin
    sh.stats.stragglers <- sh.stats.stragglers + 1;
    let root =
      {
        p_shard =
          (if m.src_lp >= 0 then Context.owner ~shards:sh.fab.shards m.src_lp
           else -1);
        p_mid = m.mid;
        p_send_ts = m.send_ts;
      }
    in
    rollback sh lp ~upto:m.recv_ts ~drop_mid:None ~root ~secondary:false
  end;
  Equeue.push sh.pending ~priority:m.recv_ts m

(* Drain the overflow queue then the inbound rings, processing each
   message (straggler checks, annihilation). Only called from the loop
   top — never mid-event — so rollbacks here are safe. *)
let drain_inboxes sh =
  let fab = sh.fab in
  let handle p m =
    lower_floor sh m.recv_ts;
    if m.anti then handle_anti sh m else enqueue_local sh m;
    (* recvd bumps AFTER the message is fully accounted (floor lowered,
       inserted or annihilated): a stable GVT round implies every
       counted arrival is visible in the floors. *)
    Atomic.incr fab.recvd.(p)
  in
  while not (Queue.is_empty sh.overflow) do
    let p, m = Queue.pop sh.overflow in
    handle p m
  done;
  for src = 0 to fab.shards - 1 do
    if src <> sh.id then begin
      let p = pair fab ~src ~dst:sh.id in
      let rec go () =
        match Mailbox.pop fab.rings.(p) with
        | Some m ->
            handle p m;
            go ()
        | None -> ()
      in
      go ()
    end
  done

(* ---------------------------------------------------------------- *)
(* Event execution.                                                  *)

let process sh m =
  let lp = local_lp sh m.dst_lp in
  let state_before = lp.st and lvt_before = lp.lvt in
  let st', outputs = sh.spec.model.Timewarp.handle ~lp:lp.gid ~ts:m.recv_ts lp.st m.payload in
  lp.st <- st';
  lp.lvt <- m.recv_ts;
  sh.stats.processed <- sh.stats.processed + 1;
  let sent =
    List.filter_map
      (fun (dst, ts', p) ->
        if ts' <= m.recv_ts then
          invalid_arg "Shard: output timestamp must exceed input timestamp";
        if ts' > sh.spec.horizon then None
        else begin
          let out =
            message ~mid:(fresh_mid sh) ~src_lp:lp.gid ~dst_lp:dst
              ~send_ts:m.recv_ts ~recv_ts:ts' p
          in
          let dsh = Context.owner ~shards:sh.fab.shards dst in
          if dsh = sh.id then enqueue_local sh out
          else begin
            sh.stats.remote_sends <- sh.stats.remote_sends + 1;
            remote_push sh ~dst_shard:dsh out
          end;
          Some out
        end)
      outputs
  in
  lp.done_ <- { e_msg = m; state_before; lvt_before; sent_msgs = sent } :: lp.done_

(* ---------------------------------------------------------------- *)
(* Per-shard observability samples.                                   *)

(* Taken at every GVT advance AND every [sample_every] processed events
   — the second cadence is what lets the monitor's Gvt_stall detector
   see a shard burning events while GVT is frozen (a GVT-advance-only
   tap would go silent exactly when it matters). Cumulative counters, so
   cost is O(local LPs + shards) per sample, not per event. *)
let sample_every = 2048

let take_sample sh =
  let fab = sh.fab in
  let lvt =
    Array.fold_left
      (fun acc -> function Some lp -> Float.max acc lp.lvt | None -> acc)
      neg_infinity sh.lps
  in
  let occ = ref 0 and peak = ref 0 in
  for other = 0 to fab.shards - 1 do
    if other <> sh.id then begin
      occ := !occ + max 0 (Mailbox.length fab.rings.(pair fab ~src:other ~dst:sh.id));
      let hw = Mailbox.high_water fab.rings.(pair fab ~src:sh.id ~dst:other) in
      if hw > !peak then peak := hw
    end
  done;
  let lvt = if lvt = neg_infinity then 0.0 else lvt in
  let g_ns = Atomic.get fab.gvt_ns in
  let s : Monitor.shard_sample =
    {
      sh_shard = sh.id;
      (* max_int is the quiescence sentinel (all floors idle): by then
         everything committed, so GVT has caught up to local time *)
      sh_gvt = (if g_ns = max_int then lvt else float_of_int g_ns /. 1e9);
      sh_lvt = lvt;
      sh_events = sh.stats.processed;
      sh_stragglers = sh.stats.rollbacks;
      sh_rolled = sh.stats.rolled_back;
      sh_rollback_depth = sh.stats.max_rollback;
      sh_annihilations = sh.stats.annihilations;
      sh_full_spins = sh.stats.full_spins;
      sh_mailbox_occ = !occ;
      sh_mailbox_peak = !peak;
    }
  in
  sh.samples_rev <- s :: sh.samples_rev;
  sh.since_sample <- 0

let commit sh { e_msg = m; _ } =
  sh.commits <-
    { c_recv_ts = m.recv_ts; c_dst_lp = m.dst_lp; c_src_lp = m.src_lp;
      c_send_ts = m.send_ts; c_digest = sh.spec.digest m.payload }
    :: sh.commits

(* Move entries below the GVT floor into the shard's commit list. *)
let collect_fossils sh =
  let g = Atomic.get sh.fab.gvt_ns in
  if g > sh.last_gvt_ns then begin
    sh.last_gvt_ns <- g;
    let committed = ref 0 in
    let hi = ref 0.0 in
    Array.iter
      (function
        | None -> ()
        | Some lp ->
            let keep, fossil =
              List.partition (fun e -> ns_of e.e_msg.recv_ts >= g) lp.done_
            in
            lp.done_ <- keep;
            List.iter
              (fun e ->
                incr committed;
                if e.e_msg.recv_ts > !hi then hi := e.e_msg.recv_ts;
                commit sh e)
              fossil)
      sh.lps;
    if !committed > 0 && Recorder.enabled sh.recorder then begin
      (* max_int is the quiescence sentinel; report the highest committed
         receive time instead of an astronomically large GVT *)
      let gvt_s = if g = max_int then !hi else float_of_int g /. 1e9 in
      Recorder.emit sh.recorder ~time:gvt_s
        ~proc:(Proc_id.of_int sh.id)
        (Event.Gvt_advance { gvt = gvt_s; committed = !committed })
    end;
    take_sample sh
  end

let commit_remaining sh =
  Array.iter
    (function
      | None -> ()
      | Some lp ->
          List.iter (commit sh) lp.done_;
          lp.done_ <- [])
    sh.lps

(* ---------------------------------------------------------------- *)
(* GVT coordination (runs on shard 0's domain, folded into its loop). *)

let try_gvt fab stats =
  let n = Array.length fab.sent in
  let s1 = Array.init n (fun i -> Atomic.get fab.sent.(i)) in
  let r1 = Array.init n (fun i -> Atomic.get fab.recvd.(i)) in
  let floors = Array.init fab.shards (fun i -> Atomic.get fab.floors.(i)) in
  let s2 = Array.init n (fun i -> Atomic.get fab.sent.(i)) in
  let r2 = Array.init n (fun i -> Atomic.get fab.recvd.(i)) in
  let stable = ref true in
  for i = 0 to n - 1 do
    if s1.(i) <> s2.(i) || r1.(i) <> r2.(i) || s1.(i) <> r1.(i) then
      stable := false
  done;
  if not !stable then ()
  else begin
    stats.gvt_rounds <- stats.gvt_rounds + 1;
    let gvt = Array.fold_left min max_int floors in
    if gvt > Atomic.get fab.gvt_ns then Atomic.set fab.gvt_ns gvt;
    if gvt = max_int then Atomic.set fab.stop true
  end

(* ---------------------------------------------------------------- *)
(* Per-domain main loop.                                             *)

let shard_loop sh =
  let fab = sh.fab in
  let coordinator = sh.id = 0 in
  let since_gvt = ref 0 in
  while not (Atomic.get fab.stop) do
    drain_inboxes sh;
    collect_fossils sh;
    (* floor covers the message we are about to pop *)
    publish_floor sh;
    if Equeue.is_empty sh.pending then begin
      if coordinator then try_gvt fab sh.stats else Domain.cpu_relax ()
    end
    else begin
      let m = Equeue.pop_min_exn sh.pending in
      if Hashtbl.mem sh.tombstones m.mid then begin
        (* the tombstoned positive meets its anti: pair annihilated *)
        Hashtbl.remove sh.tombstones m.mid;
        sh.stats.annihilations <- sh.stats.annihilations + 1
      end
      else begin
        process sh m;
        sh.since_sample <- sh.since_sample + 1;
        if sh.since_sample >= sample_every then take_sample sh
      end;
      if coordinator then begin
        incr since_gvt;
        if !since_gvt >= 32 then begin
          since_gvt := 0;
          try_gvt fab sh.stats
        end
      end
    end
  done;
  commit_remaining sh

(* ---------------------------------------------------------------- *)
(* Run.                                                              *)

let make_shard ~domains ~obs_shard ~dummy_msg spec fab id =
  let lps =
    Array.init spec.n_lps (fun gid ->
        if Context.owner ~shards:domains gid = id then
          Some
            {
              gid;
              st = spec.model.Timewarp.init gid;
              lvt = neg_infinity;
              done_ = [];
            }
        else None)
  in
  let sh =
    {
      id;
      spec;
      fab;
      lps;
      pending = Equeue.create ~dummy:dummy_msg ();
      tombstones = Hashtbl.create 64;
      overflow = Queue.create ();
      stats =
        {
          processed = 0;
          rollbacks = 0;
          rolled_back = 0;
          stragglers = 0;
          anti_messages = 0;
          annihilations = 0;
          remote_sends = 0;
          full_spins = 0;
          max_rollback = 0;
          gvt_rounds = 0;
        };
      registry = Metrics.create_registry ();
      recorder =
        (match Option.bind obs_shard (fun f -> f id) with
        | Some r -> r
        | None -> Recorder.create ());
      samples_rev = [];
      since_sample = 0;
      next_mid = 1;
      last_gvt_ns = 0;
      commits = [];
    }
  in
  (* seed injections for this shard's LPs; lvt = -inf so never stragglers *)
  List.iter
    (fun (dst, ts, p) ->
      if Context.owner ~shards:domains dst = id && ts <= spec.horizon then
        Equeue.push sh.pending ~priority:ts
          (message ~mid:(fresh_mid sh) ~src_lp:(-1) ~dst_lp:dst ~send_ts:0.0
             ~recv_ts:ts p))
    spec.seeds;
  sh

let run ?(domains = 1) ?seed:(_ : int option) ?obs_shard spec =
  if domains <= 0 then invalid_arg "Shard.run: domains must be positive";
  if domains > 64 then invalid_arg "Shard.run: more than 64 domains";
  if spec.n_lps <= 0 then invalid_arg "Shard.run: n_lps must be positive";
  let n = domains in
  let dummy_msg =
    message ~mid:(-1) ~src_lp:(-1) ~dst_lp:(-1) ~send_ts:0.0 ~recv_ts:0.0
      spec.dummy
  in
  let fab =
    {
      shards = n;
      rings =
        Array.init (n * n) (fun _ -> Mailbox.create ~dummy:dummy_msg ());
      sent = Array.init (n * n) (fun _ -> Atomic.make 0);
      recvd = Array.init (n * n) (fun _ -> Atomic.make 0);
      floors = Array.init n (fun _ -> Atomic.make 0);
      gvt_ns = Atomic.make 0;
      stop = Atomic.make false;
    }
  in
  let shards =
    Array.init n (make_shard ~domains:n ~obs_shard ~dummy_msg spec fab)
  in
  let others =
    Array.to_list
      (Array.init (n - 1) (fun i ->
           Domain.spawn (fun () -> shard_loop shards.(i + 1))))
  in
  shard_loop shards.(0);
  List.iter Domain.join others;
  let states =
    Array.init spec.n_lps (fun gid ->
        let owner = Context.owner ~shards:n gid in
        match shards.(owner).lps.(gid) with
        | Some lp -> lp.st
        | None -> assert false)
  in
  let commits =
    Array.of_list (List.concat_map (fun sh -> sh.commits) (Array.to_list shards))
  in
  Array.sort commit_compare commits;
  let sum f = Array.fold_left (fun acc sh -> acc + f sh.stats) 0 shards in
  (* A final sample per shard (post-join, so it reflects quiescence),
     then publish each shard's stats into its metrics registry —
     the per-shard labeled [shard="N"] OpenMetrics families. Runs on the
     joined main domain: no races, zero hot-path cost. The GVT cell still
     holds the quiescence sentinel; pin it to the committed horizon first
     so every shard's closing sample lands on one shared epoch. *)
  let horizon_ts =
    if Array.length commits = 0 then 0.0
    else commits.(Array.length commits - 1).c_recv_ts
  in
  Atomic.set fab.gvt_ns (ns_of horizon_ts);
  Array.iter (fun sh -> take_sample sh) shards;
  Array.iter
    (fun sh ->
      let reg = sh.registry in
      let c name v = Metrics.add (Metrics.counter reg name) v in
      c "shard.events" sh.stats.processed;
      c "shard.stragglers" sh.stats.stragglers;
      c "shard.rollbacks" sh.stats.rollbacks;
      c "shard.wasted_events" sh.stats.rolled_back;
      c "shard.anti_messages" sh.stats.anti_messages;
      c "shard.annihilations" sh.stats.annihilations;
      c "shard.remote_sends" sh.stats.remote_sends;
      c "shard.full_spins" sh.stats.full_spins;
      c "shard.gvt_rounds" sh.stats.gvt_rounds;
      Metrics.set_gauge (Metrics.gauge reg "shard.rollback_depth")
        (float_of_int sh.stats.max_rollback);
      (match sh.samples_rev with
      | s :: _ ->
          Metrics.set_gauge (Metrics.gauge reg "shard.lvt") s.sh_lvt;
          Metrics.set_gauge (Metrics.gauge reg "shard.gvt_lag")
            (Float.max 0.0 (s.sh_lvt -. s.sh_gvt))
      | [] -> ());
      (* per-pair outbound high-water: src = this shard's label, dst in
         the family name *)
      for dst = 0 to n - 1 do
        if dst <> sh.id then
          Metrics.set_gauge
            (Metrics.gauge reg (Printf.sprintf "shard.mailbox_hw.to%d" dst))
            (float_of_int
               (Mailbox.high_water fab.rings.(pair fab ~src:sh.id ~dst)))
      done)
    shards;
  let samples =
    List.sort
      (fun (a : Monitor.shard_sample) b ->
        let c = Float.compare a.sh_gvt b.sh_gvt in
        if c <> 0 then c
        else
          let c = compare a.sh_shard b.sh_shard in
          if c <> 0 then c else compare a.sh_events b.sh_events)
      (List.concat_map
         (fun sh -> List.rev sh.samples_rev)
         (Array.to_list shards))
  in
  {
    states;
    commits;
    processed = sum (fun s -> s.processed);
    committed = Array.length commits;
    rollbacks = sum (fun s -> s.rollbacks);
    rolled_back = sum (fun s -> s.rolled_back);
    stragglers = sum (fun s -> s.stragglers);
    anti_messages = sum (fun s -> s.anti_messages);
    annihilations = sum (fun s -> s.annihilations);
    remote_sends = sum (fun s -> s.remote_sends);
    full_spins = sum (fun s -> s.full_spins);
    max_rollback_depth =
      Array.fold_left (fun acc sh -> max acc sh.stats.max_rollback) 0 shards;
    gvt_rounds = sum (fun s -> s.gvt_rounds);
    domains = n;
    registries = Array.map (fun sh -> sh.registry) shards;
    samples;
  }

(* ---------------------------------------------------------------- *)
(* Deterministic merged trace.                                       *)

let merge_into recorder (r : _ result) =
  Array.iter
    (fun c ->
      Recorder.emit recorder ~time:c.c_recv_ts ~proc:(Proc_id.of_int c.c_dst_lp)
        (Event.Shard_commit
           { src_lp = c.c_src_lp; send_ts = c.c_send_ts; digest = c.c_digest }))
    r.commits

let commits_digest (r : _ result) =
  Array.fold_left
    (fun acc c ->
      let mix h x = ((h * 0x01000193) lxor x) land 0x3FFFFFFFFFFFFFF in
      let f x = int_of_float (x *. 1e9) in
      mix (mix (mix (mix (mix acc (f c.c_recv_ts)) c.c_dst_lp) (f c.c_send_ts))
             c.c_src_lp)
        c.c_digest)
    0x811C9DC5 r.commits
