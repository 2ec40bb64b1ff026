(** Simulated message-passing network.

    The network delivers opaque payloads between integer-addressed
    endpoints over the simulation engine. Endpoints live on {e nodes}
    (machines); latency is looked up per node pair, defaulting to
    {!Latency.local} for same-node traffic and a configurable default for
    cross-node traffic. Delivery per ordered endpoint pair is FIFO by
    default (like PVM's TCP channels); cross-pair ordering is whatever the
    latency draws give, which is exactly the reordering hazard the paper's
    [free_of] example (§3.1) exists to catch.

    Sends never block and never fail: this is the reliable-delivery,
    unbounded-buffer abstraction the HOPE algorithm is specified over. *)

type addr = int
(** Endpoint address (the process id of the owning process). *)

type 'a t
(** A network carrying payloads of type ['a]. *)

val create :
  engine:Hope_sim.Engine.t ->
  ?default_latency:Latency.t ->
  ?fifo:bool ->
  dummy:'a ->
  unit ->
  'a t
(** [create ~engine ~dummy ()] makes a network. [default_latency]
    (default {!Latency.lan}) applies to cross-node pairs without an
    explicit link; [fifo] (default [true]) enforces per-pair FIFO
    delivery. [dummy] is a sentinel payload written over each
    delivery-batch slot once it is dispatched, so a delivered payload
    does not stay reachable through the batch pool. Install a dispatcher
    with {!set_dispatcher} before the first delivery fires. *)

val place : 'a t -> addr -> node:int -> unit
(** Assign an endpoint to a node. Unplaced endpoints live on node 0. *)

val node_of : 'a t -> addr -> int

val set_link : 'a t -> src:int -> dst:int -> Latency.t -> unit
(** Override latency for the ordered node pair [(src, dst)]. *)

val set_dispatcher : 'a t -> (dst:addr -> src:addr -> 'a -> unit) -> unit
(** Install the routing dispatcher: every delivery is handed to it, with
    its destination address, and the dispatcher routes by address (the
    scheduler looks the destination up in its dense entity table).
    Replaces any previous dispatcher. Until one is installed, a delivery
    raises [Invalid_argument] naming its destination address, out of
    {!Hope_sim.Engine.run}. *)

val send : 'a t -> src:addr -> dst:addr -> 'a -> unit
(** Asynchronously deliver a payload. Returns immediately. *)

val in_flight : 'a t -> int
(** Messages sent but not yet handed to the dispatcher. *)

val messages_sent : 'a t -> int
val messages_delivered : 'a t -> int

val deliveries_coalesced : 'a t -> int
(** Deliveries that rode an already-scheduled same-tick batch to their
    endpoint instead of their own engine event. Coalescing is only
    attempted when nothing else has entered the event queue since the
    batch was scheduled, which makes it order-preserving (the fresh event
    would have popped immediately after the batch anyway). *)

val latency_between : 'a t -> src:addr -> dst:addr -> Latency.t
(** The model that would be used for a send between these endpoints. *)
