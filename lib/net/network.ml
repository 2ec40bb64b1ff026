module Engine = Hope_sim.Engine
module Rng = Hope_sim.Rng
module Vec = Hope_sim.Vec

type addr = int

(* FIFO floor per ordered addr pair. A single-float record is an unboxed
   float record, so the per-send [c.fl <- a] store allocates nothing
   (a float directly in the Hashtbl would be re-boxed on every store). *)
type cell = { mutable fl : float }

(* A batch of same-tick deliveries to one endpoint, dispatched by a single
   pooled engine event. Srcs and payloads live in parallel growable arrays;
   the arrival time lives in the network's [btimes] array (a float field
   here would be boxed on every store). Batches are identified by a dense
   id and recycled through [free_batch]. *)
type 'a batch = {
  mutable b_dst : addr;
  mutable b_srcs : int array;
  mutable b_pays : 'a array;
  mutable b_n : int;
  mutable b_free_next : int;  (** free-list link; -1 terminates *)
}

type 'a t = {
  engine : Engine.t;
  rng : Rng.t;
  default_latency : Latency.t;
  fifo : bool;
  dummy : 'a;  (** fills every batch slot that holds no pending payload *)
  mutable nodes : int array;  (** node per addr; dense, default 0 *)
  links : (int, Latency.t) Hashtbl.t;  (** keyed by packed node pair *)
  mutable on_deliver : dst:addr -> src:addr -> 'a -> unit;
  last_delivery : (int, cell) Hashtbl.t;  (** keyed by packed addr pair *)
  batches : 'a batch Vec.t;
  mutable btimes : float array;  (** arrival time per batch id *)
  mutable free_batch : int;
  mutable last_batch : int;  (** coalescing candidate; -1 none *)
  mutable last_seq : int;  (** engine sched_seq right after it was scheduled *)
  mutable disp : Engine.t -> int -> int -> unit;
  mutable sent : int;
  mutable delivered : int;
  mutable coalesced : int;
  mutable prune_countdown : int;
}

(* Ordered pairs of small non-negative ints (addresses, node ids) packed
   into one immediate key — no tuple allocation per lookup. Collision-free
   while both halves stay below 2^31, far beyond simulation scale. *)
let pack a b = (a lsl 31) lor b

let prune_interval = 1024

(* The dispatcher until [set_dispatcher] installs one: a payload with
   nowhere to go is a wiring error, not something to hold on to. *)
let no_dispatcher ~dst ~src:_ _ =
  invalid_arg
    (Printf.sprintf "Network: delivery to address %d before set_dispatcher" dst)

let run_batch t id =
  (* A fired batch is no longer a coalescing target: later sends at the
     same timestamp must schedule their own (later-seq) event. *)
  if t.last_batch = id then t.last_batch <- -1;
  let b = Vec.get t.batches id in
  let n = b.b_n in
  for i = 0 to n - 1 do
    t.delivered <- t.delivered + 1;
    t.on_deliver ~dst:b.b_dst ~src:b.b_srcs.(i) b.b_pays.(i)
  done;
  Array.fill b.b_pays 0 n t.dummy;
  b.b_n <- 0;
  b.b_free_next <- t.free_batch;
  t.free_batch <- id

let create ~engine ?(default_latency = Latency.lan) ?(fifo = true) ~dummy () =
  let t =
    {
      engine;
      rng = Rng.split (Engine.rng engine);
      default_latency;
      fifo;
      dummy;
      nodes = [||];
      links = Hashtbl.create 16;
      on_deliver = no_dispatcher;
      last_delivery = Hashtbl.create 16;
      batches = Vec.create ();
      btimes = [||];
      free_batch = -1;
      last_batch = -1;
      last_seq = 0;
      disp = (fun _ _ _ -> ());
      sent = 0;
      delivered = 0;
      coalesced = 0;
      prune_countdown = prune_interval;
    }
  in
  t.disp <- (fun _eng id _ -> run_batch t id);
  t

let place t addr ~node =
  if node <> 0 || (addr < Array.length t.nodes && t.nodes.(addr) <> 0) then begin
    if addr >= Array.length t.nodes then begin
      let a = Array.make (max 64 (2 * (addr + 1))) 0 in
      Array.blit t.nodes 0 a 0 (Array.length t.nodes);
      t.nodes <- a
    end;
    t.nodes.(addr) <- node
  end

let node_of t addr = if addr < Array.length t.nodes then t.nodes.(addr) else 0

let set_dispatcher t h = t.on_deliver <- h

let set_link t ~src ~dst latency = Hashtbl.replace t.links (pack src dst) latency

let latency_between t ~src ~dst =
  let ns = node_of t src and nd = node_of t dst in
  try Hashtbl.find t.links (pack ns nd)
  with Not_found -> if ns = nd then Latency.local else t.default_latency

let grow_btimes t id =
  let capacity = max 16 (2 * Array.length t.btimes) in
  let capacity = max capacity (id + 1) in
  let btimes = Array.make capacity 0.0 in
  Array.blit t.btimes 0 btimes 0 (Array.length t.btimes);
  t.btimes <- btimes

let alloc_batch t ~dst ~time =
  let id =
    if t.free_batch >= 0 then begin
      let id = t.free_batch in
      let b = Vec.get t.batches id in
      t.free_batch <- b.b_free_next;
      b.b_free_next <- -1;
      b.b_dst <- dst;
      id
    end
    else begin
      let id = Vec.length t.batches in
      Vec.push t.batches
        {
          b_dst = dst;
          b_srcs = Array.make 4 0;
          b_pays = Array.make 4 t.dummy;
          b_n = 0;
          b_free_next = -1;
        };
      if id >= Array.length t.btimes then grow_btimes t id;
      id
    end
  in
  t.btimes.(id) <- time;
  id

(* The two columns grow together, and a payload slot past [b_n] holds the
   dummy, so only undelivered payloads are reachable from the pool. *)
let batch_append t b src payload =
  let n = b.b_n in
  if n = Array.length b.b_srcs then begin
    let srcs = Array.make (2 * n) 0 and pays = Array.make (2 * n) t.dummy in
    Array.blit b.b_srcs 0 srcs 0 n;
    Array.blit b.b_pays 0 pays 0 n;
    b.b_srcs <- srcs;
    b.b_pays <- pays
  end;
  b.b_srcs.(n) <- src;
  b.b_pays.(n) <- payload;
  b.b_n <- n + 1

let send t ~src ~dst payload =
  t.sent <- t.sent + 1;
  let delay = Latency.sample (latency_between t ~src ~dst) t.rng in
  let arrival = Engine.now t.engine +. delay in
  let arrival =
    if not t.fifo then arrival
    else begin
      (* FIFO per ordered pair: never deliver before an earlier send. *)
      let key = pack src dst in
      let cell =
        try Hashtbl.find t.last_delivery key
        with Not_found ->
          let c = { fl = 0.0 } in
          Hashtbl.add t.last_delivery key c;
          c
      in
      let a = if arrival > cell.fl then arrival else cell.fl in
      cell.fl <- a;
      t.prune_countdown <- t.prune_countdown - 1;
      if t.prune_countdown <= 0 then begin
        (* A floor at or before the clock can no longer raise any future
           arrival (arrivals are >= now), so dropping it is free — this
           keeps the FIFO table bounded on long runs with many pairs. *)
        t.prune_countdown <- prune_interval;
        let now = Engine.now t.engine in
        Hashtbl.filter_map_inplace
          (fun _ c -> if c.fl <= now then None else Some c)
          t.last_delivery
      end;
      a
    end
  in
  let lb = t.last_batch in
  if
    lb >= 0
    && t.btimes.(lb) = arrival
    && (Vec.get t.batches lb).b_dst = dst
    && Engine.sched_seq t.engine = t.last_seq
  then begin
    (* Same endpoint, same timestamp, and nothing has entered the event
       queue since the batch's event was scheduled — so a fresh event
       would pop immediately after it among equal priorities, and
       appending to the batch delivers in exactly that order. *)
    t.coalesced <- t.coalesced + 1;
    batch_append t (Vec.get t.batches lb) src payload
  end
  else begin
    let id = alloc_batch t ~dst ~time:arrival in
    batch_append t (Vec.get t.batches id) src payload;
    Engine.schedule_call_at t.engine ~at:arrival t.disp id 0;
    t.last_batch <- id;
    t.last_seq <- Engine.sched_seq t.engine
  end

let in_flight t = t.sent - t.delivered
let messages_sent t = t.sent
let messages_delivered t = t.delivered
let deliveries_coalesced t = t.coalesced
