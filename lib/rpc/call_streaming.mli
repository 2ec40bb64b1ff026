(** The Call Streaming transformation (§3.1, Figures 1–2; after Bacon &
    Strom's optimistic parallelization of CSP).

    Given two sequential statements where [S2] branches on the response of
    [S1]'s RPC, the transformation moves [S1] into a {e WorryWart} process
    and lets the Worker proceed on an optimistic assumption about the
    branch, verified by the WorryWart in parallel:

    {v
      Worker                          WorryWart
      aid_init x ───spawn──────────▶  resp = call server S1
      if guess x                      if verify resp then affirm x
      then (optimistic S2')           else deny x
      else (pessimistic S2)
      S3 ...
    v}

    [guess_call] packages the whole pattern; it returns what [guess]
    returns — eagerly [true], and [false] only after a rollback caused by
    the WorryWart's denial. *)

open Hope_types
module Program = Hope_proc.Program

val guess_call :
  ?name:string ->
  server:Proc_id.t ->
  request:Value.t ->
  verify:(Value.t -> bool Program.t) ->
  unit ->
  bool Program.t
(** [guess_call ~server ~request ~verify ()] spawns a WorryWart that
    performs [call ~server request] and affirms the assumption when
    [verify response] holds, denying it otherwise. Eagerly returns [true].
    The calling process never waits for the server. *)
