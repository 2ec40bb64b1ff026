open Hope_types

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s

let interval_node iid = "i:" ^ Interval_id.to_string iid
let aid_node aid = "a:" ^ Aid.to_string aid

type node = { id : string; data : (string * string) list }
type edge = { src : string; dst : string; relation : string }

(* Accumulate nodes and edges in first-seen order, deduplicating by id /
   (src, dst, relation). Insertion order makes the output deterministic
   without relying on hash-table iteration order. *)
type builder = {
  mutable nodes_rev : node list;
  node_ids : (string, unit) Hashtbl.t;
  mutable edges_rev : edge list;
  edge_ids : (string * string * string, unit) Hashtbl.t;
}

let add_node bld id data =
  if not (Hashtbl.mem bld.node_ids id) then begin
    Hashtbl.add bld.node_ids id ();
    bld.nodes_rev <- { id; data } :: bld.nodes_rev
  end

let add_edge bld ~src ~dst relation =
  let key = (src, dst, relation) in
  if not (Hashtbl.mem bld.edge_ids key) then begin
    Hashtbl.add bld.edge_ids key ();
    bld.edges_rev <- { src; dst; relation } :: bld.edges_rev
  end

let to_string events =
  let bld =
    {
      nodes_rev = [];
      node_ids = Hashtbl.create 64;
      edges_rev = [];
      edge_ids = Hashtbl.create 64;
    }
  in
  let spans = Span.of_events events in
  (* Interval nodes, their dependency edges, and their nesting edges. *)
  List.iter
    (fun (s : Span.t) ->
      let fate =
        match s.Span.close with
        | Span.Finalized -> "finalized"
        | Span.Rolled_back cause -> "rolled-back:" ^ Event.cause_name cause
        | Span.Still_open -> "still-open"
      in
      let closed =
        match s.Span.closed_at with Some c -> Printf.sprintf "%.9f" c | None -> ""
      in
      add_node bld (interval_node s.Span.iid)
        [
          ("kind", "interval");
          ( "subkind",
            match s.Span.kind with
            | Event.Explicit -> "explicit"
            | Event.Implicit -> "implicit" );
          ("fate", fate);
          ("proc", Proc_id.to_string s.Span.proc);
          ("opened", Printf.sprintf "%.9f" s.Span.opened_at);
          ("closed", closed);
        ];
      Aid.Set.iter
        (fun aid ->
          add_node bld (aid_node aid) [ ("kind", "aid") ];
          add_edge bld ~src:(interval_node s.Span.iid) ~dst:(aid_node aid)
            "depends-on")
        s.Span.ido;
      match s.Span.parent with
      | Some parent ->
        add_edge bld ~src:(interval_node s.Span.iid) ~dst:(interval_node parent)
          "child-of"
      | None -> ())
    spans;
  (* Terminal AID states, recorded as node data after the fact. *)
  let final_states = Hashtbl.create 16 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.payload with
      | Event.Aid_transition { aid; to_; _ } ->
        Hashtbl.replace final_states (Aid.to_string aid) (Event.aid_state_name to_)
      | _ -> ())
    events;
  (* Edges from the primitive / tracking events. *)
  List.iter
    (fun (e : Event.t) ->
      match e.Event.payload with
      | Event.Guess { iid; aid } ->
        add_node bld (aid_node aid) [ ("kind", "aid") ];
        add_edge bld ~src:(interval_node iid) ~dst:(aid_node aid) "depends-on"
      | Event.Affirm { aid; iid = Some iid; _ } ->
        add_node bld (aid_node aid) [ ("kind", "aid") ];
        add_edge bld ~src:(interval_node iid) ~dst:(aid_node aid) "affirmed"
      | Event.Dep_resolved { iid; aid; _ } ->
        add_node bld (aid_node aid) [ ("kind", "aid") ];
        add_edge bld ~src:(aid_node aid) ~dst:(interval_node iid) "resolved"
      | Event.Rollback_cascade { rolled; cause = Event.Denied aid; _ } ->
        add_node bld (aid_node aid) [ ("kind", "aid") ];
        List.iter
          (fun iid ->
            add_edge bld ~src:(aid_node aid) ~dst:(interval_node iid)
              "rolled-back")
          rolled
      | Event.Cycle_cut { iid; aid } ->
        add_node bld (aid_node aid) [ ("kind", "aid") ];
        add_edge bld ~src:(interval_node iid) ~dst:(aid_node aid) "cycle-cut"
      | _ -> ())
    events;
  (* Cross-shard commit provenance. Each [Shard_commit] in the merged
     stream becomes a commit node [c:<idx>] (idx = appearance order,
     which under {!Shard.merge_into} is the deterministic merge order);
     its causal parent is the commit that {e produced} the message — in
     Time Warp the producing execution is the commit at [src_lp] whose
     receive time equals this message's [send_ts], so a (lp, ts) lookup
     over the commits already seen recovers the whole cascade DAG from
     merged data alone. Byte-identical at any domain count. *)
  let commit_at = Hashtbl.create 256 in
  let n_commits = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.payload with
      | Event.Shard_commit { src_lp; send_ts; digest } ->
        let id = Printf.sprintf "c:%d" !n_commits in
        incr n_commits;
        add_node bld id
          [
            ("kind", "commit");
            ("proc", Proc_id.to_string e.Event.proc);
            ("opened", Printf.sprintf "%.9f" e.Event.time);
            ("src", string_of_int src_lp);
            ("sent", Printf.sprintf "%.9f" send_ts);
            ("digest", string_of_int digest);
          ];
        (if src_lp >= 0 then
           match
             Hashtbl.find_opt commit_at (src_lp, Printf.sprintf "%.9f" send_ts)
           with
           | Some parent -> add_edge bld ~src:id ~dst:parent "caused-by"
           | None -> ());
        let key = (Proc_id.to_int e.Event.proc, Printf.sprintf "%.9f" e.Event.time) in
        if not (Hashtbl.mem commit_at key) then Hashtbl.add commit_at key id
      | _ -> ())
    events;
  let b = Buffer.create 65536 in
  Buffer.add_string b "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  Buffer.add_string b
    "<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n";
  let keys =
    [
      ("k_kind", "node", "kind");
      ("k_subkind", "node", "subkind");
      ("k_fate", "node", "fate");
      ("k_proc", "node", "proc");
      ("k_opened", "node", "opened");
      ("k_closed", "node", "closed");
      ("k_state", "node", "state");
      ("k_src", "node", "src");
      ("k_sent", "node", "sent");
      ("k_digest", "node", "digest");
      ("k_relation", "edge", "relation");
    ]
  in
  List.iter
    (fun (id, target, name) ->
      Buffer.add_string b
        (Printf.sprintf
           "  <key id=\"%s\" for=\"%s\" attr.name=\"%s\" attr.type=\"string\"/>\n"
           id target name))
    keys;
  Buffer.add_string b "  <graph id=\"hope-causal\" edgedefault=\"directed\">\n";
  let data key v =
    Buffer.add_string b "      <data key=\"k_";
    Buffer.add_string b key;
    Buffer.add_string b "\">";
    escape b v;
    Buffer.add_string b "</data>\n"
  in
  List.iter
    (fun n ->
      Buffer.add_string b "    <node id=\"";
      escape b n.id;
      Buffer.add_string b "\">\n";
      List.iter (fun (k, v) -> if v <> "" then data k v) n.data;
      (match Hashtbl.find_opt final_states (String.sub n.id 2 (String.length n.id - 2)) with
      | Some state when List.mem_assoc "kind" n.data && List.assoc "kind" n.data = "aid" ->
        data "state" state
      | Some _ | None -> ());
      Buffer.add_string b "    </node>\n")
    (List.rev bld.nodes_rev);
  List.iteri
    (fun i e ->
      Buffer.add_string b
        (Printf.sprintf "    <edge id=\"e%d\" source=\"" i);
      escape b e.src;
      Buffer.add_string b "\" target=\"";
      escape b e.dst;
      Buffer.add_string b "\">\n";
      data "relation" e.relation;
      Buffer.add_string b "    </edge>\n")
    (List.rev bld.edges_rev);
  Buffer.add_string b "  </graph>\n</graphml>\n";
  Buffer.contents b
