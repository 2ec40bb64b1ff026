open Hope_types

(* A minimal JSON writer. Numbers use fixed-precision formatting so
   serialisation is byte-deterministic across runs; we never emit floats
   through %g (whose shortest-representation choices are stable too, but
   fixed precision keeps diffs humane). *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let str b s =
  Buffer.add_char b '"';
  escape b s;
  Buffer.add_char b '"'

(* Virtual seconds -> trace microseconds, fixed at nanosecond precision. *)
let us b (t : float) = Buffer.add_string b (Printf.sprintf "%.3f" (t *. 1e6))

let field b ~first name writer =
  if not first then Buffer.add_char b ',';
  str b name;
  Buffer.add_char b ':';
  writer b

let obj b fields =
  Buffer.add_char b '{';
  List.iteri (fun i (name, writer) -> field b ~first:(i = 0) name writer) fields;
  Buffer.add_char b '}'

let payload_category = function
  | Event.Aid_create _ | Event.Aid_transition _ -> "aid"
  | Event.Guess _ | Event.Affirm _ | Event.Deny _ | Event.Free_of _ -> "primitive"
  | Event.Interval_open _ | Event.Interval_finalize _ | Event.Rollback_cascade _
    ->
    "interval"
  | Event.Dep_resolved _ | Event.Cycle_cut _ -> "tracking"
  | Event.Wire_send _ | Event.Msg_send _ | Event.Msg_recv _
  | Event.Cancel_send _ ->
    "net"
  | Event.Mailbox_compact _ -> "storage"
  | Event.Sim_stop _ -> "engine"
  | Event.Shard_commit _ | Event.Shard_straggler _ | Event.Gvt_advance _ ->
      "shard"

let span_event b (end_time : float) (s : Span.t) =
  let close = match s.Span.closed_at with Some c -> c | None -> end_time in
  let fate =
    match s.Span.close with
    | Span.Finalized -> "finalized"
    | Span.Rolled_back cause -> "rolled-back:" ^ Event.cause_name cause
    | Span.Still_open -> "still-open"
  in
  obj b
    [
      ("name", fun b -> str b (Interval_id.to_string s.Span.iid));
      ("cat", fun b -> str b "interval");
      ("ph", fun b -> str b "X");
      ("ts", fun b -> us b s.Span.opened_at);
      ("dur", fun b -> us b (Float.max 0.0 (close -. s.Span.opened_at)));
      ("pid", fun b -> Buffer.add_string b (string_of_int (Proc_id.to_int s.Span.proc)));
      ("tid", fun b -> Buffer.add_string b (string_of_int s.Span.depth));
      ( "args",
        fun b ->
          obj b
            [
              ( "kind",
                fun b ->
                  str b
                    (match s.Span.kind with
                    | Event.Explicit -> "explicit"
                    | Event.Implicit -> "implicit") );
              ("fate", fun b -> str b fate);
              ("cascade", fun b -> Buffer.add_string b (string_of_int s.Span.cascade));
              ("ido", fun b -> str b (Format.asprintf "%a" Aid.Set.pp s.Span.ido));
            ] );
    ]

let instant_event b (e : Event.t) =
  obj b
    [
      ("name", fun b -> str b (Event.type_name e.Event.payload));
      ("cat", fun b -> str b (payload_category e.Event.payload));
      ("ph", fun b -> str b "i");
      ("s", fun b -> str b "t");
      ("ts", fun b -> us b e.Event.time);
      ("pid", fun b -> Buffer.add_string b (string_of_int (Proc_id.to_int e.Event.proc)));
      ("tid", fun b -> Buffer.add_string b "0");
      ( "args",
        fun b ->
          obj b
            [
              ( "detail",
                fun b -> str b (Format.asprintf "%a" Event.pp_payload e.Event.payload) );
              ("seq", fun b -> Buffer.add_string b (string_of_int e.Event.seq));
            ] );
    ]

(* Cross-LP causality as Chrome {e flow events}: each committed shard
   message with a real remote producer becomes an arrow from
   (src_lp, send_ts) to (dst_lp, recv_ts). Perfetto draws these over the
   instant events, which turns the merged commit stream into a visual
   provenance DAG. Flow ids reuse the commit's merge-order [seq] — the
   merged stream is byte-deterministic across domain counts, so the flow
   section is too. *)
let flow_events b emit (e : Event.t) =
  match e.Event.payload with
  | Event.Shard_commit { src_lp; send_ts; _ }
    when src_lp >= 0 && src_lp <> Proc_id.to_int e.Event.proc ->
    let id = string_of_int e.Event.seq in
    let half ph ~extra pid ts =
      obj b
        ([
           ("name", fun b -> str b "shard-msg");
           ("cat", fun b -> str b "shard");
           ("ph", fun b -> str b ph);
           ("id", fun b -> Buffer.add_string b id);
           ("ts", fun b -> us b ts);
           ("pid", fun b -> Buffer.add_string b (string_of_int pid));
           ("tid", fun b -> Buffer.add_string b "0");
         ]
        @ extra)
    in
    emit (fun () -> half "s" ~extra:[] src_lp send_ts);
    emit (fun () ->
        half "f"
          ~extra:[ ("bp", fun b -> str b "e") ]
          (Proc_id.to_int e.Event.proc) e.Event.time)
  | _ -> ()

let is_instant (e : Event.t) =
  match e.Event.payload with
  | Event.Interval_open _ | Event.Interval_finalize _ -> false
  (* the span covers these; keep rollback cascades as visible markers *)
  | _ -> true

let to_string events =
  let b = Buffer.create 65536 in
  let end_time = Span.end_time events in
  let spans = Span.of_events events in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit writer =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    writer ()
  in
  List.iter (fun s -> emit (fun () -> span_event b end_time s)) spans;
  List.iter
    (fun e -> if is_instant e then emit (fun () -> instant_event b e))
    events;
  List.iter (fun e -> flow_events b emit e) events;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b
