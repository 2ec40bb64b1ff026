(** The communicating-sequential-process DSL.

    User processes are values of type [unit t]: purely functional programs
    over an instruction set of message passing, HOPE primitives, and
    virtual computation. Writing processes as first-class programs is what
    makes the paper's "rollback facility" (§5) trivial to realise: a
    checkpoint is the continuation captured at a [guess] or a tagged
    receive, and rolling back is re-entering that continuation. Process
    state must be threaded through the continuations (ordinary OCaml
    values); there are deliberately no mutable-cell instructions, so a
    rollback can never observe stale state.

    The HOPE instructions follow §3 of the paper:
    - {!aid_init} creates an assumption identifier ahead of time;
    - {!guess} eagerly returns [true]; if the assumption is later denied
      the process re-executes from the guess with [false];
    - {!affirm} / {!deny} assert an assumption's fate, from any process;
    - {!free_of} affirms the AID if the calling process does not depend on
      it, and denies it if it does.

    None of these instructions ever blocks: that is the wait-free property
    the paper's title claims, and the scheduler enforces it (only {!recv}
    can park a process). *)

open Hope_types

type filter =
  | Any  (** first available message *)
  | From of Proc_id.t  (** first available message from this sender *)
  | Where of (Envelope.t -> bool)  (** first available match *)

type _ op =
  | Send : Proc_id.t * Value.t -> unit op
  | Recv : filter -> Envelope.t op
  | Recv_opt : filter -> Envelope.t option op
  | Aid_init : Aid.t op
  | Guess : Aid.t -> bool op
  | Affirm : Aid.t -> unit op
  | Deny : Aid.t -> unit op
  | Free_of : Aid.t -> unit op
  | Release : Aid.t -> unit op
  | Spawn : string * unit t -> Proc_id.t op
  | Compute : float -> unit op
  | Now : float op
  | Self : Proc_id.t op
  | Random_float : float -> float op
  | Random_bernoulli : float -> bool op
  | Random_int : int -> int op
  | Observe : string * float -> unit op
  | Incr_counter : string -> unit op
  | Lift : (unit -> 'b) -> 'b op

and 'a t = Return : 'a -> 'a t | Bind : 'b op * ('b -> 'a t) -> 'a t

(** {1 Monad} *)

val return : 'a -> 'a t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : ('a -> 'b) -> 'a t -> 'b t
val perform : 'a op -> 'a t

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
  val ( >>= ) : 'a t -> ('a -> 'b t) -> 'b t
end

(** {1 Messaging} *)

val send : Proc_id.t -> Value.t -> unit t
val recv : unit -> Envelope.t t
val recv_from : Proc_id.t -> Envelope.t t
val recv_where : (Envelope.t -> bool) -> Envelope.t t

val recv_value : unit -> Value.t t
(** [recv () ] projected to the payload value. *)

val recv_value_from : Proc_id.t -> Value.t t

val recv_opt : unit -> Envelope.t option t
(** Non-blocking receive: consume and return the first available message,
    or return [None] immediately when the mailbox has none. *)

val recv_opt_where : (Envelope.t -> bool) -> Envelope.t option t

(** {1 HOPE primitives} *)

val aid_init : unit -> Aid.t t

val guess : Aid.t -> bool t

val guess_new : unit -> (bool * Aid.t) t
(** The paper's guess-with-null-argument: "if the argument is ⊥, then
    guess infers that this is a new optimistic assumption and spawns a new
    AID process" (§5.2). Equivalent to [aid_init] followed by [guess];
    returns the eager [true] plus the fresh AID to hand to a verifier. *)

val affirm : Aid.t -> unit t
val deny : Aid.t -> unit t
val free_of : Aid.t -> unit t

val release : Aid.t -> unit t
(** Release a pessimistic grant held on [aid] (DESIGN.md §10): a guess
    routed through an escalated AID's acquisition queue that returned
    [true] holds the AID exclusively until released. A no-op when no
    grant on [aid] is held — so hybrid code can call it unconditionally
    after the critical section, whichever path the guess took. The
    scheduler also auto-releases held grants on termination; a rollback
    deliberately keeps them, so a denied holder retries inside its
    exclusive window. *)

(** {1 Process control and time} *)

val spawn : string -> unit t -> Proc_id.t t
val compute : float -> unit t
(** Consume the given amount of virtual CPU time. *)

val now : unit -> float t
val self : unit -> Proc_id.t t

(** {1 Randomness (per-process deterministic stream)} *)

val random_float : float -> float t
val random_bernoulli : float -> bool t
val random_int : int -> int t

(** {1 Instrumentation} *)

val lift : (unit -> 'a) -> 'a t
(** Escape hatch: run an OCaml thunk inline for its result or side effect.
    The effect is {b not} rolled back — a rolled-back process re-runs it on
    re-execution. Use for instrumentation (observing execution order in
    tests, printing in examples), never for process state. *)

val observe : string -> float -> unit t
(** Record a sample into the named engine histogram. *)

val incr_counter : string -> unit t

(** {1 Control-flow helpers} *)

val iter_list : ('a -> unit t) -> 'a list -> unit t
val for_ : int -> int -> (int -> unit t) -> unit t
(** [for_ lo hi f] runs [f lo; ...; f hi] in sequence (inclusive). *)

val when_ : bool -> unit t -> unit t
val repeat : int -> unit t -> unit t
val fold : int -> int -> 'acc -> ('acc -> int -> 'acc t) -> 'acc t
(** [fold lo hi acc f] threads an accumulator over the inclusive range. *)
