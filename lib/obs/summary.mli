(** Human-readable run summary.

    The quick look: event counts per type, the full {!Analytics} report,
    and the rollback cascades one per line. For machines, use the Chrome
    or GraphML exporters instead. *)

val pp : Format.formatter -> Event.t list -> unit

val to_string : Event.t list -> string
