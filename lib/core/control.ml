open Hope_types

type algorithm = Algorithm_1 | Algorithm_2

type rollback_reason = Denial of Aid.t | Revocation

type action =
  | Send_guess of { aid : Aid.t; iid : Interval_id.t }
  | Finalized of History.interval
  | Rolled_back of {
      target : History.interval;
      rolled : History.interval list;
      reason : rollback_reason;
    }

(* The finalize cascade: an interval only becomes definite when it is the
   oldest live interval — earlier intervals can still roll it back — so
   emptied IDO sets finalize from the front of the history, possibly
   several at a time. *)
let cascade_finalize hist =
  let rec loop acc =
    match History.drop_oldest_finalized hist with
    | Some itv -> loop (Finalized itv :: acc)
    | None -> List.rev acc
  in
  loop []

let handle_replace ?emit ?cut ?on_cut_aid algorithm hist ~target ~sender ~ido
    ~on_cycle_cuts =
  match History.find hist target with
  | None -> []  (* stale: the interval was rolled back or finalized *)
  | Some itv ->
    if not (Aid.Set.mem sender itv.History.ido) then
      (* Duplicate Replace for an already-resolved dependency. *)
      []
    else begin
      itv.History.ido <- Aid.Set.remove sender itv.History.ido;
      (* The payload is only built when a recorder is listening: this is
         the Replace hot path, and the record allocation would otherwise
         be pure garbage. *)
      (match emit with
      | Some f ->
        f
          (Hope_obs.Event.Dep_resolved
             {
               iid = target;
               aid = sender;
               remaining = Aid.Set.cardinal itv.History.ido;
             })
      | None -> ());
      (* Figure 15: a replacement already in the UDO is an AID we walked
         through — a dependency cycle — and is discarded. Algorithm 1 has
         no UDO to check. *)
      let udo =
        match algorithm with
        | Algorithm_1 -> Aid.Set.empty
        | Algorithm_2 ->
          itv.History.udo <- Aid.Set.add sender itv.History.udo;
          itv.History.udo
      in
      (* One pass over the replacement set counts its UDO cuts and folds
         over the rest. The governor's actuator rules on every candidate
         the UDO check let through, already-dependent ones included, in
         ascending order: a dynamic, churn-driven cut, Figure 15's
         resolution applied by observed orbits instead of by the static
         walk-through set. Without a governor the fold visits only the
         fresh candidates. *)
      let forced = ref [] in
      let udo_cuts, fresh =
        Aid.Set.count_fold_diff
          (fun y acc ->
            if
              match cut with
              | None -> false
              | Some f -> f ~target ~sender ~candidate:y
            then begin
              forced := y :: !forced;
              acc
            end
            else if Aid.Set.mem y itv.History.ido then
              (* Already dependent (and already registered in y's DOM). *)
              acc
            else y :: acc)
          ido udo
          (match cut with None -> itv.History.ido | Some _ -> Aid.Set.empty)
          []
      in
      let cuts = udo_cuts + List.length !forced in
      if cuts > 0 then begin
        itv.History.cut <- true;
        (match on_cut_aid with
        | None -> ()
        | Some f ->
          (* The UDO cuts and the forced ones together, ascending. *)
          let forced = !forced in
          Aid.Set.iter
            (fun y ->
              if Aid.Set.mem y udo || List.exists (Aid.equal y) forced then
                f target y)
            ido);
        on_cycle_cuts target cuts
      end;
      (* The fresh candidates (collected newest first) join the IDO in one
         union after the fold, which no candidate's test can observe: the
         candidates are distinct. *)
      match fresh with
      | [] -> cascade_finalize hist
      | _ ->
        itv.History.ido <- Aid.Set.union itv.History.ido (Aid.Set.of_list fresh);
        List.rev_map (fun aid -> Send_guess { aid; iid = target }) fresh
        @ cascade_finalize hist
    end

(* The speculative affirm that rewired [target]'s dependency on [sender]
   has been revoked. The rewiring injected the affirmer's dependency set
   into this interval, and those injected assumptions may belong to an
   execution that rolled back and will never be resolved — there is no
   per-assumption provenance to unpick them precisely, so the sound and
   live response is to roll the interval back entirely: the re-execution
   re-registers with the (now Hot again) assumption and acquires a clean
   dependency state. Intervals that never rewired through the sender
   ignore the message. *)
let handle_rebind hist ~target ~sender =
  match History.find hist target with
  | None -> []
  | Some itv ->
    if Aid.Set.mem sender itv.History.udo then begin
      let rolled = History.truncate_from hist itv.History.iid in
      [ Rolled_back { target = itv; rolled; reason = Revocation } ]
    end
    else []

let handle_rollback hist ~target ~denied =
  match History.find hist target with
  | None -> []  (* Figure 10: "if target in history" — duplicate rollback *)
  | Some itv ->
    (* The denying AID sends a Rollback to every interval in its DOM; with
       dependency inheritance the earliest such interval subsumes all the
       later ones, so we roll back to it directly — the later Rollback
       messages then find dead targets and are ignored, and no interval
       whose own assumption is still open spuriously resumes with false. *)
    let itv =
      History.first_depending hist denied |> Option.value ~default:itv
    in
    let rolled = History.truncate_from hist itv.History.iid in
    [ Rolled_back { target = itv; rolled; reason = Denial denied } ]
