(** Post-mortem reconstruction of a run's speculation structure.

    Rebuilds, from the runtime's event log, what happened to every
    interval of every process — opened how (explicit guess, tagged
    receive), depending on what, and its fate (finalized, rolled back, or
    still open) — plus the fate of every assumption. Used by the CLI's
    [--explain] flag and by tests that assert on speculation structure.

    This is the observability a real deployment of an optimism runtime
    needs: "why did this computation re-execute?" is answered by the
    rolled-back interval's dependency set. *)

open Hope_types

type fate = Finalized | Rolled_back | Still_open

type interval_info = {
  iid : Interval_id.t;
  kind : History.kind;
  ido0 : Aid.Set.t;  (** dependencies at creation *)
  started_at : float;  (** virtual time the interval opened *)
  fate : fate;
  cycle_cut : bool;  (** Algorithm 2 discarded a dependency of it *)
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
      (** intervals that took at least one cycle cut; the number of cuts,
          which one interval can take many times, is
          {!Runtime.cycle_cuts} *)
  speculation_accuracy : float;
      (** finalized / (finalized + rolled_back); [nan] if no interval
          closed *)
}

type t

val of_runtime : Runtime.t -> t

val summary : t -> summary

val intervals_of : t -> Proc_id.t -> interval_info list
(** Oldest first. *)

val processes : t -> Proc_id.t list
(** Every process that opened at least one interval, ascending. *)

val pp : Format.formatter -> t -> unit
(** The full report: summary plus a per-process interval timeline. *)

val pp_summary : Format.formatter -> summary -> unit
