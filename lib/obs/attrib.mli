(** Causal flow-completion-time attribution: per-flow stall accounting.

    For every tracked flow the module maintains a mutually-exclusive state
    clock over the seven reasons a sender can fail to make progress:

    - [Handshake]: connection not yet established;
    - [App_limited]: nothing to send and nothing in flight;
    - [Cwnd_limited]: data available but the congestion window binds;
    - [Rwnd_limited_native]: the tenant's own advertised receive window
      binds;
    - [Rwnd_limited_enforced]: the vSwitch-enforced (AC/DC-rewritten)
      receive window binds — the direct measurement of the paper's
      mechanism;
    - [Rto_recovery]: between an RTO firing and the next cumulative ACK;
    - [In_flight]: everything submitted is in the network, waiting for
      ACKs.

    The clock is exact by construction: on every transition the time since
    the previous transition is added to the state being left, so when a
    flow {!complete}s, the per-state durations sum to the flow's FCT (time
    from {!start} to {!complete}) to the nanosecond.  That exactness is
    the module's hard invariant — unit-tested, QCheck-tested, and checked
    as a fuzz-harness invariant.

    The [In_flight] component is additionally decomposed per network hop
    using the INT sojourn stamps the receiving vSwitch strips
    ({!absorb_hops}), so "waiting for the network" can be split into
    "queued at which switch port".

    Like {!Prof} and the tracer, the ambient instance
    ({!Runtime.attrib}) is disabled by default; every instrumentation
    point guards with {!enabled}, so the disabled path costs one load and
    one branch and allocates nothing. *)

type t

type state =
  | Handshake
  | App_limited
  | Cwnd_limited
  | Rwnd_limited_native
  | Rwnd_limited_enforced
  | Rto_recovery
  | In_flight

val all_states : state list
(** The seven states, in canonical (report/JSON) order. *)

val state_label : state -> string
(** Snake-case label used in trace events, timeseries channel names and
    report keys ("handshake", "app_limited", ..., "in_flight"). *)

(** What a send-decision point can observe locally.  [Blocked_rwnd] is
    resolved to [Rwnd_limited_native] or [Rwnd_limited_enforced] inside
    the module, from the flag the vSwitch maintains via
    {!set_enforced} — the TCP endpoint cannot tell who wrote the window
    field it sees. *)
type cause =
  | Blocked_handshake
  | Blocked_app
  | Blocked_cwnd
  | Blocked_rwnd
  | Blocked_rto
  | Waiting_acks

val create : unit -> t
(** A fresh, disabled accounting instance with no tracked flows. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Enabling does not clear accumulated flows; pair with {!reset} for a
    clean run. *)

val reset : t -> unit
(** Drop all tracked flows, completed snapshots and watch registrations.
    The enabled flag is left as-is (per-run reset, like
    {!Runtime.reset_metrics}). *)

val start : t -> now:Eventsim.Time_ns.t -> Dcpkt.Flow_key.t -> unit
(** Begin tracking [flow] (the data direction) in state [Handshake] at
    [now].  Restarting an already-tracked flow resets its clock. *)

val note :
  t ->
  now:Eventsim.Time_ns.t ->
  tracer:Trace.t ->
  Dcpkt.Flow_key.t ->
  cause ->
  unit
(** Re-evaluate the flow's state at [now].  A no-op for untracked flows
    and when the resolved state is unchanged; on a transition the time
    since the previous transition is charged to the state being left, an
    {!Trace.event.Attrib_transition} event is emitted to [tracer] (when
    enabled), and watched flows record their timeseries point. *)

val set_enforced : t -> Dcpkt.Flow_key.t -> bool -> unit
(** Record whether the most recent ACK toward the tenant carried a
    vSwitch-enforced (shrunk) window.  Called by [Acdc.Sender] at its
    rewrite decision; resolves subsequent [Blocked_rwnd] notes. *)

val absorb_hops : t -> Dcpkt.Flow_key.t -> Dcpkt.Int_meta.hop array -> unit
(** Accumulate per-hop sojourn nanoseconds for the flow from a stripped
    INT stack — the per-hop decomposition of its [In_flight] time. *)

val complete : t -> now:Eventsim.Time_ns.t -> tracer:Trace.t -> Dcpkt.Flow_key.t -> unit
(** Snapshot the flow at [now]: its FCT is [now - start] and its per-state
    durations (current state charged up to [now]) sum to exactly that FCT.
    The flow keeps being tracked — a later [complete] (e.g. a second
    message on the same connection) replaces the snapshot with a larger
    one.  Untracked flows: no-op. *)

val watch : t -> ts:Timeseries.t -> Dcpkt.Flow_key.t -> unit
(** Stream the flow's cumulative per-state clock to
    [attrib.flow0.<state>] channels (unit ns): each transition out of a
    state records that state's new cumulative total.  May be called
    before the flow is tracked (e.g. at experiment setup, before the
    handshake): the watch attaches when {!start} first sees the flow, and
    survives restarts. *)

(** {2 Results} *)

type snapshot = {
  snap_flow : Dcpkt.Flow_key.t;
  snap_fct : Eventsim.Time_ns.t;  (** start-to-complete, nanoseconds *)
  snap_states : (state * Eventsim.Time_ns.t) list;
      (** all seven states in {!all_states} order; durations sum to
          [snap_fct] exactly *)
  snap_hops : (string * int) list;
      (** per-hop sojourn sums (label ["switch:port"], ns), sorted *)
  snap_hop_packets : int;  (** stamped packets behind [snap_hops] *)
}

val exactness_error : snapshot -> int
(** [|snap_fct - sum of state durations|] — zero is the hard invariant. *)

val touched : t -> bool
(** Whether any flow was ever tracked since the last {!reset}. *)

val tracked : t -> int
val completed : t -> snapshot list
(** Latest snapshot per completed flow, sorted by flow label. *)

val find_snapshot : t -> Dcpkt.Flow_key.t -> snapshot option

val fct_fractions : snapshot list -> (state * Dcstats.Samples.t) list
(** Per state, in {!all_states} order: the fraction of its FCT each
    snapshot with a positive FCT spent there, in list order.  The
    report's [aggregate] section summarizes these samples. *)

val to_json : t -> Json.t
(** The report's [fct_attrib] section: per-flow rows (completed flows
    carry ["fct_ns"] and exact state durations; still-live flows carry
    durations up to their last transition) plus aggregate per-state
    FCT-fraction percentile stacks over completed flows.  Deterministic:
    rows sorted by flow label. *)
