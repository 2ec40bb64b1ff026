(** Structural message payloads.

    User messages carry a single self-describing value, so processes with
    different roles can exchange data without a shared payload type
    parameter infecting every substrate module (the moral equivalent of
    PVM's pack/unpack buffers). Constructors cover what the workloads and
    examples need; [Pair] and [List] compose. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Pid of Proc_id.t
  | Aid_v of Aid.t
  | Pair of t * t
  | List of t list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Convenience projections}

    Each projection raises [Invalid_argument] with the constructor name on
    a shape mismatch: workload code treats a mis-shaped message as a
    protocol bug, and wants it loud. *)

val to_bool : t -> bool
val to_int : t -> int
val to_pid : t -> Proc_id.t
val to_aid : t -> Aid.t
val to_pair : t -> t * t
val to_list : t -> t list
val to_string_payload : t -> string
(** Projects [String s]. *)

val triple : t -> t -> t -> t
(** [triple a b c] is [Pair (a, Pair (b, c))]. *)

val to_triple : t -> t * t * t

val size_bytes : t -> int
(** Rough serialised size, for byte accounting in the network metrics. *)
