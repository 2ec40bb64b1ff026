(** Executable checks of the paper's correctness properties.

    These are run by tests, workload drivers ({!World.check_invariants})
    and [hope_sim --check] after a simulation reaches quiescence. Each
    check returns the list of violations found — empty means the
    property held.

    - {!check_wait_free}: no HOPE primitive ever parked its process
      (the title property; §5's design criterion).
    - {!check_theorem_5_1}: "for all intervals B, finalize(B) occurs iff
      affirm(X) is applied to all of the AIDs X in B.IDO by intervals that
      eventually become definite." Verified over the event log: every
      finalized interval's dependencies must all have ended True, no
      interval is both finalized and rolled back, and every started
      interval whose dependencies all ended True must have finalized.
    - ["aid-finality"] (in {!all_named} only): AID processes in
      True/False never left that state (monotonicity of the terminal
      states, Figure 4).
    - ["quiescence"]: with every assumption resolved, no live speculative
      intervals remain (the liveness counterpart). *)

type violation = { check : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

val check_wait_free : Runtime.t -> violation list

val check_theorem_5_1 : Runtime.t -> violation list

val check_all : Runtime.t -> violation list
(** Wait-freedom, Theorem 5.1, and quiescence, concatenated. *)

val all_named : (string * (Runtime.t -> violation list) * bool) list
(** Every check with a stable CLI-facing name and whether a violation is
    authoritative ([true]) or informational ([false] — today only
    ["aid-finality"], which flags AIDs that received conflicting
    affirm/deny messages: rollback-driven re-execution can legitimately
    re-affirm an AID whose speculative affirm was revoked, see DESIGN.md
    §3.2). Drives [hope_sim --check]. *)
