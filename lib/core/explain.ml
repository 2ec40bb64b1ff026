open Hope_types

type fate = Finalized | Rolled_back | Still_open

type interval_info = {
  iid : Interval_id.t;
  kind : History.kind;
  ido0 : Aid.Set.t;
  started_at : float;
  fate : fate;
  cycle_cut : bool;
}

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
  by_process : (Proc_id.t, interval_info list) Hashtbl.t;  (** newest first *)
  totals : summary;
}

type building = {
  b_iid : Interval_id.t;
  b_kind : History.kind;
  b_ido0 : Aid.Set.t;
  b_at : float;
  mutable b_fate : fate;
  mutable b_cut : bool;
}

let of_runtime rt =
  let intervals : (Interval_id.t, building) Hashtbl.t = Hashtbl.create 64 in
  let order : Interval_id.t list ref = ref [] in
  Runtime.iter_events
    (fun ev ->
      match ev with
      | Runtime.Interval_started { iid; kind; ido; at } ->
        Hashtbl.replace intervals iid
          {
            b_iid = iid;
            b_kind = kind;
            b_ido0 = ido;
            b_at = at;
            b_fate = Still_open;
            b_cut = false;
          };
        order := iid :: !order
      | Runtime.Interval_finalized iid -> (
        match Hashtbl.find_opt intervals iid with
        | Some b -> b.b_fate <- Finalized
        | None -> ())
      | Runtime.Interval_rolled_back iid -> (
        match Hashtbl.find_opt intervals iid with
        | Some b -> b.b_fate <- Rolled_back
        | None -> ())
      | Runtime.Cycle_cut { iid; _ } -> (
        match Hashtbl.find_opt intervals iid with
        | Some b -> b.b_cut <- true
        | None -> ()))
    rt;
  let by_process = Hashtbl.create 16 in
  List.iter
    (fun iid ->
      let b = Hashtbl.find intervals iid in
      let info =
        {
          iid = b.b_iid;
          kind = b.b_kind;
          ido0 = b.b_ido0;
          started_at = b.b_at;
          fate = b.b_fate;
          cycle_cut = b.b_cut;
        }
      in
      let owner = Interval_id.owner iid in
      let existing = Option.value (Hashtbl.find_opt by_process owner) ~default:[] in
      Hashtbl.replace by_process owner (info :: existing))
    (List.rev !order);
  (* Tally interval fates and AID outcomes. *)
  let finalized = ref 0 and rolled = ref 0 and open_ = ref 0 and cuts = ref 0 in
  Hashtbl.iter
    (fun _ b ->
      if b.b_cut then incr cuts;
      match b.b_fate with
      | Finalized -> incr finalized
      | Rolled_back -> incr rolled
      | Still_open -> incr open_)
    intervals;
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
      intervals = Hashtbl.length intervals;
      finalized = !finalized;
      rolled_back = !rolled;
      still_open = !open_;
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
  Option.value (Hashtbl.find_opt t.by_process pid) ~default:[] |> List.rev

let processes t =
  Hashtbl.fold (fun pid _ acc -> pid :: acc) t.by_process []
  |> List.sort Proc_id.compare

let fate_name = function
  | Finalized -> "finalized"
  | Rolled_back -> "rolled back"
  | Still_open -> "still open"

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

let pp_interval ppf info =
  Format.fprintf ppf "%-10s @%8.4fs %-6s deps=%-30s %s%s"
    (Interval_id.to_string info.iid) info.started_at
    (match info.kind with History.Explicit -> "guess" | History.Implicit -> "recv")
    (Format.asprintf "%a" Aid.Set.pp info.ido0)
    (fate_name info.fate)
    (if info.cycle_cut then " [cycle cut]" else "")

let pp ppf t =
  Format.fprintf ppf "@[<v>=== speculation report ===@,%a@,@," pp_summary t.totals;
  List.iter
    (fun pid ->
      Format.fprintf ppf "%a:@," Proc_id.pp pid;
      List.iter
        (fun info -> Format.fprintf ppf "  %a@," pp_interval info)
        (intervals_of t pid))
    (processes t);
  Format.fprintf ppf "@]"
