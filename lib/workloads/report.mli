(** The page-printing report workload of §3.1 (Figures 1 and 2).

    A Worker prints a report on a remote print server. Each report section
    performs the paper's three statements:

    - S1: [line = call print("Total is", total)] — an RPC returning the
      current line number;
    - S2: [if line > page_size then call newpage()];
    - S3: [call print("Summary ...")].

    The {e pessimistic} worker (Figure 1) performs S1–S3 as synchronous
    RPCs, paying a round trip per statement. The {e optimistic} worker
    (Figure 2) runs S1 in a WorryWart process and assumes the report does
    not end exactly at the bottom of the page ([PartPage]); a second
    assumption ([Order]) asserts that S3's message does not overtake S1's
    and invalidate its line count — the WorryWart checks it with
    [free_of]. Both hazards are detected and repaired by rollback.

    Section prints advance the server's line counter by 2 (total +
    summary), so a page boundary is crossed — and the PartPage assumption
    fails — roughly every [page_size / 2] sections: the assumption
    accuracy is [1 - 2/page_size], tunable through [page_size]. *)

open Hope_types
module Program = Hope_proc.Program

type params = {
  sections : int;  (** report sections to print *)
  page_size : int;  (** lines per page; sets assumption accuracy *)
  print_cost : float;  (** server CPU time per print request *)
}

val default_params : params
(** 40 sections, 20-line pages, 100 µs prints. *)

val accuracy : params -> float
(** The expected fraction of correct PartPage assumptions,
    [1 - 2/page_size]. *)

val print_server : params -> unit Program.t
(** The remote print service: [Print] requests append a line and return
    the new line number; [NewPage] requests reset the line counter. Serves
    forever. *)

val print_request : Value.t
val newpage_request : Value.t

val pessimistic_worker : params -> server:Proc_id.t -> unit Program.t
(** Figure 1: synchronous RPCs, three per section. *)

val optimistic_worker : params -> server:Proc_id.t -> unit Program.t
(** Figure 2: Call Streaming with the PartPage and Order assumptions. *)

type result = {
  completion_time : float;  (** worker start-to-finish virtual time *)
  rollbacks : int;
  messages : int;  (** user + control messages sent *)
  guesses : int;
  order_violations : int;
      (** free_of hits — the WorryWart caught S3 overtaking S1 (only
          possible on non-FIFO networks) *)
}

val run :
  ?seed:int ->
  ?obs:Hope_obs.Recorder.t ->
  ?latency:Hope_net.Latency.t ->
  ?fifo:bool ->
  ?sched_config:Hope_proc.Scheduler.config ->
  ?hope_config:Hope_core.Runtime.config ->
  ?on_quiescence:(Hope_core.Runtime.t -> unit) ->
  ?on_setup:(Hope_core.Runtime.t -> unit) ->
  mode:[ `Pessimistic | `Optimistic ] ->
  params ->
  result
(** Build a two-node world (worker on node 0, server on node 1), run to
    quiescence, and measure. [hope_config] selects runtime variants for
    ablation experiments; [on_quiescence] runs against the runtime after
    the invariant checks (used e.g. to exercise garbage collection).
    @raise Failure if the run does not quiesce or an invariant is
    violated. *)
