open Hope_types

type summary = {
  intervals : int;
  finalized : int;
  rolled_back : int;
  still_open : int;
  aids : int;
  aids_true : int;
  aids_false : int;
  aids_unresolved : int;
  cut_intervals : int;
  speculation_accuracy : float;
}

type t = {
  by_process : (Proc_id.t * History.interval list) list;
      (** ascending pid; only processes that opened an interval *)
  totals : summary;
}

let of_runtime rt =
  let by_process =
    List.filter_map
      (fun h ->
        match History.intervals h with
        | [] -> None
        | itvs -> Some (History.owner h, itvs))
      (Runtime.histories rt)
  in
  (* Tally interval fates and AID outcomes. *)
  let intervals = ref 0 and finalized = ref 0 and rolled = ref 0 and cuts = ref 0 in
  List.iter
    (fun (_, itvs) ->
      List.iter
        (fun (itv : History.interval) ->
          incr intervals;
          if itv.cut then incr cuts;
          match itv.fate with
          | History.Finalized -> incr finalized
          | History.Rolled_back -> incr rolled
          | History.Live -> ())
        itvs)
    by_process;
  let aids_true = ref 0 and aids_false = ref 0 and aids_open = ref 0 in
  List.iter
    (fun aid ->
      match Runtime.aid_state rt aid with
      | Aid_machine.True_ -> incr aids_true
      | Aid_machine.False_ -> incr aids_false
      | Aid_machine.Cold | Aid_machine.Hot | Aid_machine.Maybe -> incr aids_open)
    (Runtime.all_aids rt);
  let closed = !finalized + !rolled in
  let totals =
    {
      intervals = !intervals;
      finalized = !finalized;
      rolled_back = !rolled;
      still_open = !intervals - closed;
      aids = !aids_true + !aids_false + !aids_open;
      aids_true = !aids_true;
      aids_false = !aids_false;
      aids_unresolved = !aids_open;
      cut_intervals = !cuts;
      speculation_accuracy =
        (if closed = 0 then nan else float_of_int !finalized /. float_of_int closed);
    }
  in
  { by_process; totals }

let summary t = t.totals

let intervals_of t pid =
  Option.value (List.assoc_opt pid t.by_process) ~default:[]

let processes t = List.map fst t.by_process

let fate_name = function
  | History.Finalized -> "finalized"
  | History.Rolled_back -> "rolled back"
  | History.Live -> "still open"

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>intervals: %d (%d finalized, %d rolled back, %d open)@,\
     assumptions: %d (%d true, %d false, %d unresolved)@,\
     intervals with a cycle cut: %d@,\
     speculation accuracy: %a@]"
    s.intervals s.finalized s.rolled_back s.still_open s.aids s.aids_true
    s.aids_false s.aids_unresolved s.cut_intervals
    (fun ppf v ->
      if Float.is_nan v then Format.pp_print_string ppf "n/a"
      else Format.fprintf ppf "%.0f%%" (100.0 *. v))
    s.speculation_accuracy

let pp_interval ppf (itv : History.interval) =
  Format.fprintf ppf "%-10s @%8.4fs %-6s deps=%-30s %s%s"
    (Interval_id.to_string itv.iid) itv.started_at
    (match itv.kind with History.Explicit -> "guess" | History.Implicit -> "recv")
    (Format.asprintf "%a" Aid.Set.pp itv.ido0)
    (fate_name itv.fate)
    (if itv.cut then " [cycle cut]" else "")

let pp ppf t =
  Format.fprintf ppf "@[<v>=== speculation report ===@,%a@,@," pp_summary t.totals;
  List.iter
    (fun (pid, itvs) ->
      Format.fprintf ppf "%a:@," Proc_id.pp pid;
      List.iter (fun itv -> Format.fprintf ppf "  %a@," pp_interval itv) itvs)
    t.by_process;
  Format.fprintf ppf "@]"
