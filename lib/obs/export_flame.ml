open Hope_types

let sanitize_frame s =
  String.map (function ';' | ' ' | '\n' | '\t' -> '_' | c -> c) s

let fate_frame (s : Span.t) =
  match s.Span.close with
  | Span.Finalized -> "committed"
  | Span.Rolled_back _ -> "wasted"
  | Span.Still_open -> "open"

let to_string events =
  let end_time = Span.end_time events in
  let spans = Span.of_events events in
  let by_iid = Hashtbl.create 64 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace by_iid s.Span.iid s) spans;
  (* Self time = own duration minus the duration of directly nested
     children (children never outlive their parent under the history's
     stack discipline, so the subtraction cannot double-count). *)
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      match s.Span.parent with
      | None -> ()
      | Some p ->
          let d = Span.duration ~end_time s in
          let prev =
            match Hashtbl.find_opt child_sum p with Some v -> v | None -> 0.0
          in
          Hashtbl.replace child_sum p (prev +. d))
    spans;
  let self (s : Span.t) =
    let nested =
      match Hashtbl.find_opt child_sum s.Span.iid with
      | Some v -> v
      | None -> 0.0
    in
    Float.max 0.0 (Span.duration ~end_time s -. nested)
  in
  let rec chain acc (s : Span.t) =
    let acc = sanitize_frame (Interval_id.to_string s.Span.iid) :: acc in
    match s.Span.parent with
    | None -> acc
    | Some p -> (
        match Hashtbl.find_opt by_iid p with
        | Some parent -> chain acc parent
        | None -> acc)
  in
  let stacks = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      let ns = Float.round (self s *. 1e9) in
      if ns > 0.0 then begin
        let stack =
          String.concat ";"
            (fate_frame s
            :: sanitize_frame (Proc_id.to_string s.Span.proc)
            :: chain [] s)
        in
        let prev =
          match Hashtbl.find_opt stacks stack with Some v -> v | None -> 0.0
        in
        Hashtbl.replace stacks stack (prev +. ns)
      end)
    spans;
  (* Shard events carry no span, so they'd vanish from the flame graph;
     weight them by their virtual-time window instead. A committed
     cross-shard message burns its transit window (recv − send); a
     straggler rollback wastes the window it undid (lvt − upto). GVT
     advances and mailbox compactions are zero-width bookkeeping and
     deliberately contribute no frame. *)
  let add_stack stack ns =
    if ns > 0.0 then begin
      let prev =
        match Hashtbl.find_opt stacks stack with Some v -> v | None -> 0.0
      in
      Hashtbl.replace stacks stack (prev +. ns)
    end
  in
  List.iter
    (fun (e : Event.t) ->
      let proc = sanitize_frame (Proc_id.to_string e.Event.proc) in
      match e.Event.payload with
      | Event.Shard_commit { src_lp; send_ts; _ } when src_lp >= 0 ->
        add_stack
          (String.concat ";" [ "committed"; proc; "shard-transit" ])
          (Float.round ((e.Event.time -. send_ts) *. 1e9))
      | Event.Shard_commit _ -> ()
      | Event.Shard_straggler { lvt; secondary; _ } ->
        let frame = if secondary then "shard-cascade" else "shard-rollback" in
        add_stack
          (String.concat ";" [ "wasted"; proc; frame ])
          (Float.round ((lvt -. e.Event.time) *. 1e9))
      | Event.Gvt_advance _ | Event.Mailbox_compact _ -> ()
      | _ -> ())
    events;
  let lines =
    Hashtbl.fold
      (fun stack ns acc -> Printf.sprintf "%s %.0f" stack ns :: acc)
      stacks []
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun line ->
      Buffer.add_string b line;
      Buffer.add_char b '\n')
    (List.sort String.compare lines);
  Buffer.contents b
