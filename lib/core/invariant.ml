open Hope_types
module Scheduler = Hope_proc.Scheduler

type violation = { check : string; detail : string }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.check v.detail

let violation check fmt = Format.kasprintf (fun detail -> { check; detail }) fmt

let check_wait_free rt =
  let parks = Scheduler.primitive_parks (Runtime.scheduler rt) in
  if parks = 0 then []
  else [ violation "wait-free" "HOPE primitives parked their process %d times" parks ]

let aid_final_state rt aid =
  match Runtime.aid_state rt aid with s -> Some s | exception Not_found -> None

(* Theorem 5.1, checked at quiescence over every interval the histories
   recorded, in (pid, seq) order.

   Forward: a finalized interval's creation-time dependencies must all have
   resolved True. Intervals that took a cycle cut are exempt: Algorithm 2
   deliberately discards dependencies on cycle members (§5.3), and whether
   those members end True depends on the fate of the affirming intervals.

   Backward: an interval whose creation-time dependencies all resolved
   True must have left the live window. It may have rolled back: a
   Replace chain can hand it a transient dependency (the affirmer's own
   failure cause) that is denied while the original assumptions go on to
   be re-affirmed; the re-executed guess then resolves True. What must
   never happen is an interval left hanging.

   Exclusivity — no interval both finalizes and rolls back — holds by
   construction: an interval leaves the live window once, and its one
   [fate] is written there. *)
let check_interval rt (itv : History.interval) =
  let dep_states =
    Aid.Set.fold (fun x acc -> (x, aid_final_state rt x) :: acc) itv.ido0 []
  in
  if List.for_all (fun (_, s) -> s = Some Aid_machine.True_) dep_states then
    if itv.fate = History.Live then
      [
        violation "theorem-5.1"
          "interval %a neither finalized nor rolled back though all its \
           dependencies ended True"
          Interval_id.pp itv.iid;
      ]
    else []
  else if itv.fate = History.Finalized && not itv.cut then
    List.filter_map
      (fun (x, s) ->
        if s = Some Aid_machine.True_ then None
        else
          Some
            (violation "theorem-5.1"
               "interval %a finalized but dependency %a ended %s" Interval_id.pp
               itv.iid Aid.pp x
               (match s with
               | Some st -> Aid_machine.state_name st
               | None -> "<unknown>")))
      dep_states
  else []

let check_theorem_5_1 rt =
  List.concat_map
    (fun h -> List.concat_map (check_interval rt) (History.intervals h))
    (Runtime.histories rt)

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
