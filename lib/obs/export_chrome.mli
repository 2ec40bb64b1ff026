(** Chrome trace-event JSON exporter.

    Produces the Trace Event Format that Perfetto ({{:https://ui.perfetto.dev}
    ui.perfetto.dev}) and chrome://tracing load directly: speculation
    intervals become complete ("ph":"X") duration events on their owning
    process's track, and every point transition (primitives, AID moves,
    control traffic) becomes an instant ("ph":"i") event. Timestamps are
    virtual-sim microseconds.

    Output is byte-deterministic: events are serialised in capture order
    with fixed-precision numeric formatting, so two identical runs yield
    identical files. *)

val to_string : Event.t list -> string
(** Serialise a captured stream. Events must be in emission order. *)
