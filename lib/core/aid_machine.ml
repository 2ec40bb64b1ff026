open Hope_types

type state = Cold | Hot | Maybe | True_ | False_
type mode = Optimistic | Pessimistic

(* DOM as an append-only registry of [Interval_id.index]es, whose int
   order is [Interval_id.compare]'s. A Guess appends in amortised O(1);
   the live prefix [ids.(0 .. len-1)] is sorted and de-duplicated only
   when it is broadcast ([sorted] says it already is), so replies go out
   in the order an [Interval_id.Set] would iterate. Nothing is hashed or
   shared: DOM is never unioned with or compared to another set. *)
type dom = { mutable ids : int array; mutable len : int; mutable sorted : bool }

type t = {
  aid : Aid.t;
  mutable state : state;
  dom : dom;
  mutable a_ido : Aid.Set.t;
  mutable affirmer : Interval_id.t option;
      (** the interval whose speculative affirm put us in [Maybe] *)
  mutable redundant : int;
  mutable user_errors : int;
  mutable retired : bool;
  on_transition : Aid.t -> state -> state -> unit;
      (** observer hook, called as [on_transition aid from to_] at every
          state change (including Maybe-to-Maybe re-affirms); the machine's
          own [aid] is passed back so one shared callback can serve every
          machine *)
  (* -- pessimistic overlay (DESIGN.md §10) -- *)
  mutable mode : mode;
  mutable holder : Interval_id.t option;
      (** the ticket currently granted exclusive access *)
  waiters : Interval_id.t Queue.t;  (** FIFO acquisition queue (tickets) *)
  mutable cancelled : Interval_id.Set.t;
      (** withdrawn tickets still physically in [waiters]; skipped (and
          forgotten) when they reach the head *)
  mutable queued : int;  (** live (non-cancelled) entries in [waiters] *)
  max_queue : int;
  mutable granted : int;  (** Grant replies sent *)
  mutable aborted : int;  (** Abort replies sent *)
}

type action = Reply of { iid : Interval_id.t; wire : Wire.t }

let no_transition _ _ _ = ()

let create ?(on_transition = no_transition) ?(max_queue = 64) aid =
  {
    aid;
    state = Cold;
    dom = { ids = [||]; len = 0; sorted = true };
    a_ido = Aid.Set.empty;
    affirmer = None;
    redundant = 0;
    user_errors = 0;
    retired = false;
    on_transition;
    mode = Optimistic;
    holder = None;
    waiters = Queue.create ();
    cancelled = Interval_id.Set.empty;
    queued = 0;
    max_queue;
    granted = 0;
    aborted = 0;
  }

let set_state t next =
  let prev = t.state in
  t.state <- next;
  t.on_transition t.aid prev next

let state_name = function
  | Cold -> "Cold"
  | Hot -> "Hot"
  | Maybe -> "Maybe"
  | True_ -> "True"
  | False_ -> "False"

(* Append [iid]. An id above the last one keeps the prefix sorted and a
   repeat of the last one is dropped, so in-order registration never
   needs the sort at broadcast. *)
let dom_add d iid =
  let i = Interval_id.index iid in
  let c = if d.len = 0 then -1 else Int.compare d.ids.(d.len - 1) i in
  if c <> 0 then begin
    if d.len = Array.length d.ids then begin
      let ids = Array.make (max 8 (2 * d.len)) 0 in
      Array.blit d.ids 0 ids 0 d.len;
      d.ids <- ids
    end;
    d.ids.(d.len) <- i;
    d.len <- d.len + 1;
    if c > 0 then d.sorted <- false
  end

(* A sorted, de-duplicated copy of the live prefix ([Array.stable_sort]
   sorts whole arrays), and how many of its slots are live. *)
let sorted_unique d =
  let ids = Array.sub d.ids 0 d.len in
  Array.stable_sort Int.compare ids;
  let k = ref (min 1 d.len) in
  for i = 1 to d.len - 1 do
    if ids.(i) <> ids.(!k - 1) then begin
      ids.(!k) <- ids.(i);
      incr k
    end
  done;
  (ids, !k)

let dom_normalise d =
  if not d.sorted then begin
    let ids, len = sorted_unique d in
    d.ids <- ids;
    d.len <- len;
    d.sorted <- true
  end

(* Every DOM member once, in [Interval_id.compare] order. *)
let dom_iter f d =
  dom_normalise d;
  let ids = d.ids in
  for i = 0 to d.len - 1 do
    f (Interval_id.of_index ids.(i))
  done

let dom_size t = if t.dom.sorted then t.dom.len else snd (sorted_unique t.dom)

(* Figure 6: Guess message processing. A Guess is a request for the
   terminal state of the AID; until that state is known the sender is
   recorded in DOM. In state Maybe the AID "passes the buck": the sender
   is told to depend on A_IDO instead. *)
let process_guess t iid ~reply =
  match t.state with
  | Cold ->
    dom_add t.dom iid;
    set_state t Hot
  | Hot -> dom_add t.dom iid
  | Maybe ->
    (* The sender is told to depend on A_IDO instead ("passing the buck"),
       but is still recorded in DOM — a deviation from Figure 6 required
       by revocation: if the speculative affirm is later retracted, every
       rewired dependent must be reachable for the Rebind. Harmless
       otherwise: terminal-state broadcasts to an already-rewired
       dependent are ignored as duplicates by Control. *)
    dom_add t.dom iid;
    reply t.aid iid (Wire.Replace { iid; ido = t.a_ido })
  | True_ -> reply t.aid iid (Wire.Replace { iid; ido = Aid.Set.empty })
  | False_ -> reply t.aid iid (Wire.Rollback { iid })

(* Figure 7: Affirm message processing. An empty M.IDO is a definite
   affirm (terminal state True); a non-empty one is tentative, recorded in
   A_IDO, and every dependent interval is told to replace this AID with
   A_IDO in its own IDO set. *)
let process_affirm t iid ido ~reply =
  match t.state with
  | Cold | Hot | Maybe ->
    t.a_ido <- ido;
    if Aid.Set.is_empty ido then begin
      set_state t True_;
      t.affirmer <- None
    end
    else begin
      set_state t Maybe;
      t.affirmer <- Some iid
    end;
    dom_iter (fun b -> reply t.aid b (Wire.Replace { iid = b; ido })) t.dom
  | True_ -> t.redundant <- t.redundant + 1
  | False_ -> t.user_errors <- t.user_errors + 1

(* ----------------------------------------------------------------- *)
(* Pessimistic overlay (DESIGN.md §10). Orthogonal to the five-state
   machine above: escalation changes how {e access} to the assumption is
   arbitrated (queued, exclusive, definite), not what is known about its
   truth. Guess/Affirm/Deny/Revoke keep flowing through the state
   machine while the overlay serves Acquire/Release/Abort, so
   speculation opened before escalation still resolves normally. *)

let abort_reply t iid ~reply =
  t.aborted <- t.aborted + 1;
  reply t.aid iid (Wire.Abort { iid })

(* Pop cancelled tickets lazily; grant the first live waiter if the AID
   is free. Cancelled entries are forgotten as they surface, so the
   cancelled set never outlives the queue prefix it annotates. *)
let grant_next t ~reply =
  let rec next () =
    match Queue.take_opt t.waiters with
    | None -> ()
    | Some iid ->
      if Interval_id.Set.mem iid t.cancelled then begin
        t.cancelled <- Interval_id.Set.remove iid t.cancelled;
        next ()
      end
      else begin
        t.queued <- t.queued - 1;
        t.holder <- Some iid;
        t.granted <- t.granted + 1;
        reply t.aid iid (Wire.Grant { iid })
      end
  in
  if t.holder = None then next ()

let abort_all_waiters t ~reply =
  Queue.iter
    (fun iid ->
      if not (Interval_id.Set.mem iid t.cancelled) then abort_reply t iid ~reply)
    t.waiters;
  Queue.clear t.waiters;
  t.cancelled <- Interval_id.Set.empty;
  t.queued <- 0

let process_acquire t iid ~reply =
  if t.mode = Optimistic || t.state = False_ then
    (* De-escalation raced the client's Acquire, or the assumption is
       definitively false: bounce to the pessimistic branch. Every
       Acquire completes as exactly one Grant or Abort. *)
    abort_reply t iid ~reply
  else if t.queued >= t.max_queue then abort_reply t iid ~reply
  else begin
    Queue.add iid t.waiters;
    t.queued <- t.queued + 1;
    (* If the AID is free this grants [iid] immediately (the queue was
       all cancelled tombstones or empty) — the uncontended fast path. *)
    grant_next t ~reply
  end

let in_queue t iid =
  (not (Interval_id.Set.mem iid t.cancelled))
  && Queue.fold (fun acc x -> acc || Interval_id.equal x iid) false t.waiters

(* User → AID Abort: the waiter withdrew (acquire timeout, or its
   process rolled back / terminated while queued). No reply — the client
   already resumed on its side; a Grant that raced this withdrawal is
   declined there with a Release, which lands in the holder case. *)
let process_withdraw t iid ~reply =
  match t.holder with
  | Some h when Interval_id.equal h iid ->
    t.holder <- None;
    grant_next t ~reply
  | _ ->
    if in_queue t iid then begin
      t.cancelled <- Interval_id.Set.add iid t.cancelled;
      t.queued <- t.queued - 1
    end
    else t.redundant <- t.redundant + 1

let process_release t iid ~reply =
  match t.holder with
  | Some h when Interval_id.equal h iid ->
    t.holder <- None;
    grant_next t ~reply
  | _ -> t.redundant <- t.redundant + 1

let escalate t = t.mode <- Pessimistic

(* Contention subsided: abort every queued waiter (they re-enter through
   the optimistic guess path) and stop accepting Acquires. The current
   holder keeps its grant — grants are definite and cannot be retracted —
   and its eventual Release is still honoured by [process_release]. *)
let deescalate t ~reply =
  t.mode <- Optimistic;
  abort_all_waiters t ~reply

(* Figure 8: Deny message processing. Denies are unconditional: every
   dependent interval is rolled back and the state becomes final False.
   Queued waiters are aborted — a grant would promise a definitively
   false assumption — while a current holder, whose grant was definite,
   is unaffected (mirrors the affirm-reply-then-Deny user error). *)
let process_deny t ~reply =
  match t.state with
  | Cold | Hot | Maybe ->
    set_state t False_;
    dom_iter (fun b -> reply t.aid b (Wire.Rollback { iid = b })) t.dom;
    abort_all_waiters t ~reply
  | False_ -> t.redundant <- t.redundant + 1
  | True_ -> t.user_errors <- t.user_errors + 1

(* Retract a speculative affirm whose interval rolled back: the affirm
   "never happened", so the state returns to Hot and the (re-executed)
   affirmer may rule again. Stale revokes — the Maybe we are in came from
   a different, later affirm — are ignored. Dependents that had swapped
   this AID for its A_IDO roll back through the A_IDO members themselves
   (the revoking interval's failure cause is always among them) and
   re-register on re-execution. *)
let process_revoke t iid ~reply =
  match t.state with
  | Maybe when t.affirmer = Some iid ->
    set_state t Hot;
    t.a_ido <- Aid.Set.empty;
    t.affirmer <- None;
    (* Every dependent was told to depend on A_IDO instead of us; that
       rewiring is now void — they must depend on us again, or they can
       hang on a chain no surviving execution will resolve. *)
    dom_iter (fun b -> reply t.aid b (Wire.Rebind { iid = b })) t.dom
  | Cold | Hot | Maybe | True_ | False_ -> t.redundant <- t.redundant + 1

(* Replies are emitted through the callback (called as
   [reply aid iid wire]: send [wire] to [iid]'s owner on behalf of [aid])
   in DOM order, the same order the list-returning [handle] exposes. The
   callback form is the runtime's hot path: one long-lived callback and no
   action list per message. *)
let handle_into t wire ~reply =
  match wire with
  | Wire.Guess { iid } -> process_guess t iid ~reply
  | Wire.Affirm { iid; ido } -> process_affirm t iid ido ~reply
  | Wire.Deny _ -> process_deny t ~reply
  | Wire.Revoke { iid } -> process_revoke t iid ~reply
  | Wire.Acquire { iid } -> process_acquire t iid ~reply
  | Wire.Abort { iid } -> process_withdraw t iid ~reply
  | Wire.Release { iid } -> process_release t iid ~reply
  | Wire.Replace _ | Wire.Rollback _ | Wire.Rebind _ | Wire.Grant _ ->
    invalid_arg
      (Printf.sprintf "Aid_machine %s: received %s (AID processes only accept \
                       Guess/Affirm/Deny/Revoke/Acquire/Abort/Release)"
         (Aid.to_string t.aid) (Wire.type_name wire))

let handle t wire =
  let acc = ref [] in
  handle_into t wire ~reply:(fun _aid iid wire -> acc := Reply { iid; wire } :: !acc);
  List.rev !acc

let is_final t = match t.state with True_ | False_ -> true | Cold | Hot | Maybe -> false

(* §5.2: a terminal AID process cannot terminate — late Guess messages
   must still be answered — but its tracking sets are dead weight. Retire
   frees them; the terminal state is all the tombstone needs to answer. *)
let retire t =
  if not (is_final t) then
    invalid_arg
      (Printf.sprintf "Aid_machine.retire: %s is still %s" (Aid.to_string t.aid)
         (state_name t.state));
  t.retired <- true;
  t.dom.ids <- [||];
  t.dom.len <- 0;
  t.dom.sorted <- true;
  t.a_ido <- Aid.Set.empty

let mode t = t.mode
let holder t = t.holder
let queue_length t = t.queued
let mode_name = function Optimistic -> "optimistic" | Pessimistic -> "pessimistic"

let pp ppf t =
  Format.fprintf ppf "%a[%s dom=%d a_ido=%a%s]" Aid.pp t.aid
    (state_name t.state)
    (dom_size t)
    Aid.Set.pp t.a_ido
    (match t.mode with
    | Optimistic -> ""
    | Pessimistic ->
      Printf.sprintf " pess held=%b q=%d" (t.holder <> None) t.queued)
