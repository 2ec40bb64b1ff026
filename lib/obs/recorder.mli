(** The event sink the runtime emits into.

    A recorder is a growable in-memory log of {!Event.t}. It is created
    disabled: every emission site in the runtime guards on one branch, so
    the hot path pays nothing when nobody subscribed. A recorder keeps
    every event — analytics passes and exporters need the complete
    stream — so enable it for bounded experiment runs, not unbounded
    services.

    For long-running services there is a second, storage-free consumer: a
    {e tap}. A tap is a callback invoked with the raw payload at emission
    time, before (and independent of) any storage. With only a tap
    attached, no {!Event.t} record is ever built and the log stays empty —
    this is what the online {!Monitor} rides on. Taps never see net-class
    events on their own: the high-density message-path emission sites
    ([Wire_send], [Msg_send], [Msg_recv], [Cancel_send]) guard on
    {!storing}, so with only a tap attached they stay disabled entirely
    (while the store is on, the tap is fed those events too). A tap may
    opt into the dependency-tracking class ([Dep_resolved], one per
    Replace control message — the runtime's hottest core emission) with
    [dep = true]: its site guards on {!enabled_dep}. *)

type t

type tap = time:float -> proc:Hope_types.Proc_id.t -> Event.payload -> unit
(** A live event consumer. Called synchronously from the emission site;
    must not re-enter the recorder. *)

val create : unit -> t
(** Fresh, disabled recorder with no tap. *)

val enable : t -> unit
(** Start storing events. *)

val disable : t -> unit
(** Stop storing events. An attached tap keeps firing. *)

val enabled : t -> bool
(** True when emissions reach anyone: the store is on or a tap is set.
    Emission sites for core events guard on this. *)

val enabled_dep : t -> bool
(** Like {!enabled} but for [Dep_resolved]: true when the store is on or
    a tap with [~dep:true] is set. One such event is emitted per Replace
    control message handled, so this class is orders of magnitude denser
    than the rest of the core stream; a monitor-only tap leaves it off. *)

val storing : t -> bool
(** True when events are being appended to the log (i.e. {!enable}d).
    The net-class emission sites guard on this, so a monitor-only tap
    pays nothing per message. *)

val set_tap : t -> ?dep:bool -> tap -> unit
(** Install [f] as the live consumer (replacing any previous tap).
    [dep] (default [false]) opts in to the [Dep_resolved] class. *)

val emit : t -> time:float -> proc:Hope_types.Proc_id.t -> Event.payload -> unit
(** Feed the tap (if any), then append an event stamped with the next
    sequence number (if storing). No-op (one branch) while disabled. *)

val size : t -> int
(** Events currently held. *)

val events : t -> Event.t list
(** All events, in emission order. *)

val iter : (Event.t -> unit) -> t -> unit

val clear : t -> unit
(** Drop all events and reset the sequence counter. *)
