(** GraphML export of the causal dependency DAG.

    Nodes are speculation intervals and AIDs; edges record why each
    depended on, resolved, or destroyed the other:

    - [depends-on]: interval → AID it guessed on (IDO membership);
    - [child-of]: interval → the enclosing interval it nested under;
    - [affirmed]: interval → AID it (speculatively) affirmed;
    - [resolved]: AID → interval whose dependency on it was replaced away;
    - [rolled-back]: denied AID → each interval its denial discarded;
    - [cycle-cut]: interval → AID dropped by Algorithm 2's cycle cut.

    The layout follows the iGraph/GraphML convention (keys declared up
    front, data elements per node/edge) so the file loads in yEd, Gephi,
    or igraph for cascade forensics. Output is byte-deterministic. *)

val to_string : Event.t list -> string
(** Serialise the DAG of a captured stream (events in emission order). *)
