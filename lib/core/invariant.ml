open Hope_types
module Scheduler = Hope_proc.Scheduler

type violation = { check : string; detail : string }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.check v.detail

let violation check fmt = Format.kasprintf (fun detail -> { check; detail }) fmt

let check_wait_free rt =
  let parks = Scheduler.primitive_parks (Runtime.scheduler rt) in
  if parks = 0 then []
  else [ violation "wait-free" "HOPE primitives parked their process %d times" parks ]

(* Replay the event log into per-interval facts. *)
type fact = {
  ido0 : Aid.Set.t;  (** dependencies at interval creation *)
  mutable finalized : bool;
  mutable rolled : bool;
  mutable cut : bool;  (** some dependency was discarded by the UDO check *)
}

let interval_facts rt =
  let facts : (Interval_id.t, fact) Hashtbl.t = Hashtbl.create 64 in
  Runtime.iter_events
    (fun ev ->
      match ev with
      | Runtime.Interval_started { iid; ido; _ } ->
        Hashtbl.replace facts iid
          { ido0 = ido; finalized = false; rolled = false; cut = false }
      | Runtime.Interval_finalized iid ->
        (match Hashtbl.find_opt facts iid with
        | Some f -> f.finalized <- true
        | None -> ())
      | Runtime.Interval_rolled_back iid ->
        (match Hashtbl.find_opt facts iid with
        | Some f -> f.rolled <- true
        | None -> ())
      | Runtime.Cycle_cut { iid; _ } ->
        (match Hashtbl.find_opt facts iid with
        | Some f -> f.cut <- true
        | None -> ()))
    rt;
  facts

let aid_final_state rt aid =
  match Runtime.aid_state rt aid with s -> Some s | exception Not_found -> None

(* Theorem 5.1, checked at quiescence over the event log.

   Forward: a finalized interval's creation-time dependencies must all have
   resolved True. Intervals that took a cycle cut are exempt: Algorithm 2
   deliberately discards dependencies on cycle members (§5.3), and whether
   those members end True depends on the fate of the affirming intervals.

   Backward: an interval whose creation-time dependencies all resolved
   True must have finalized (and in particular must not have rolled back).

   Exclusivity: no interval may both finalize and roll back. *)
let check_theorem_5_1 rt =
  let facts = interval_facts rt in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  Hashtbl.iter
    (fun iid f ->
      if f.finalized && f.rolled then
        add
          (violation "theorem-5.1"
             "interval %a was both finalized and rolled back"
             Interval_id.pp iid);
      let dep_states =
        Aid.Set.fold
          (fun x acc -> (x, aid_final_state rt x) :: acc)
          f.ido0 []
      in
      let all_true =
        List.for_all
          (fun (_, s) -> s = Some Aid_machine.True_)
          dep_states
      in
      if f.finalized && (not f.cut) && not all_true then
        List.iter
          (fun (x, s) ->
            if s <> Some Aid_machine.True_ then
              add
                (violation "theorem-5.1"
                   "interval %a finalized but dependency %a ended %s"
                   Interval_id.pp iid Aid.pp x
                   (match s with
                   | Some st -> Aid_machine.state_name st
                   | None -> "<unknown>")))
          dep_states;
      (* Note: an interval whose creation-time dependencies all ended True
         can still legitimately roll back — a Replace chain can hand it a
         transient dependency (the affirmer's own failure cause) that is
         denied while the original assumptions go on to be re-affirmed; the
         re-executed guess then resolves True. So "rolled back with
         all-True ido0" is not a violation; what must never happen is an
         interval left hanging: *)
      if all_true && (not f.finalized) && not f.rolled then
        add
          (violation "theorem-5.1"
             "interval %a neither finalized nor rolled back though all its \
              dependencies ended True"
             Interval_id.pp iid))
    facts;
  List.rev !violations

let check_aid_finality rt =
  (* Terminal states are final by construction of the machine; what we can
     check externally is that no machine reports a conflicting history:
     user_errors counts affirm-after-deny / deny-after-affirm attempts. *)
  List.filter_map
    (fun aid ->
      let m = Runtime.aid_machine rt aid in
      if m.Aid_machine.user_errors > 0 then
        Some
          (violation "aid-finality" "%a received %d conflicting affirm/deny"
             Aid.pp aid m.Aid_machine.user_errors)
      else None)
    (Runtime.all_aids rt)

let check_quiescence rt =
  let live = Runtime.live_intervals rt in
  if live = 0 then []
  else [ violation "quiescence" "%d speculative intervals still live" live ]

(* check_aid_finality is not part of check_all: rollback-driven
   re-execution can legitimately re-affirm an AID that a revoked
   speculative affirm drove to False (DESIGN.md §3.2), which the lenient
   machine counts as a user error. [hope_sim --check] reports it as
   informational. *)
let check_all rt = check_wait_free rt @ check_theorem_5_1 rt @ check_quiescence rt

let all_named =
  [
    ("wait-free", check_wait_free, true);
    ("theorem-5.1", check_theorem_5_1, true);
    ("aid-finality", check_aid_finality, false);
    ("quiescence", check_quiescence, true);
  ]
