(** The one fold of stripped in-band telemetry (INT) stacks into per-hop
    statistics.

    The receiving vSwitch hands every stripped stack to a sink (the
    ambient one lives in {!Runtime}); the sink aggregates per-hop
    sojourn/queue statistics for the report's [int] section and can
    mirror one watched flow's per-hop samples into {!Timeseries}
    channels.  Trace events for the hops are emitted by the host, not
    here — the sink is pure aggregation, safe to keep ambient.

    Besides {!Attrib}'s per-flow split of in-flight time, it is the only
    per-hop fold: [ext-int-hops] feeds a private sink from
    [Acdc.Int_feedback], and [trace_query] rebuilds sinks from a trace with
    {!replay}. *)

type t

val create : unit -> t

val reset : t -> unit
(** Drop all aggregates and any watch (per-run isolation). *)

val watch : t -> ts:Timeseries.t -> Dcpkt.Flow_key.t -> unit
(** Mirror subsequent hops of the given flow (either direction) into
    channels [int.flow0.<hop>.sojourn_ns] / [.qbytes] of [ts],
    created lazily per hop.  A new call replaces the previous watch. *)

val absorb :
  t ->
  now:Eventsim.Time_ns.t ->
  flow:Dcpkt.Flow_key.t ->
  hops:Dcpkt.Int_meta.hop array ->
  exceeded:bool ->
  unit
(** Fold one stripped stack (path order) into the aggregates. *)

val replay :
  (Dcpkt.Flow_key.t -> t option) -> Eventsim.Time_ns.t -> Trace.event -> unit
(** [replay select] is a fresh feed that folds a trace's stacks as the
    strip point does: call it on each event in trace order, and each
    [int_strip] absorbs the [int_hop]s just before it into the sink
    [select] picks for its flow ([None] skips it).  It holds only the
    hops of the stack being read, so a caller feeds it inside its own
    pass over a trace ({!Trace.fold_file}).  Hop names go through
    {!Dcpkt.Int_meta.register}, so labels match the run's in a fresh
    process, and a run's unfiltered trace replays into a fresh sink with
    the ambient sink's {!to_json}. *)

val packets : t -> int
(** Stacks absorbed since creation/[reset]; zero omits the report's
    optional [int] section. *)

val exceeded : t -> int
(** Stacks some switch could not stamp for lack of option space. *)

type row = {
  label : string;  (** ["<switch>:<port>"], {!Dcpkt.Int_meta.hop_label} *)
  node : string;  (** the switch's registered name *)
  port : int;
  samples : int;  (** hops absorbed at this port *)
  sum_ns : int;  (** their summed sojourn *)
  p50_ns : float;
  p99_ns : float;
  max_ns : int;
  share : float;  (** [sum_ns] over the summed sojourn of every row *)
  max_qbytes : int;
  mean_svc_gbps : float;
}

val rows : t -> row list
(** One row per switch port, in the order the ports were first seen —
    path order for a single flow's stacks. *)

val pp_rows : Format.formatter -> row list -> unit
(** The hop table: a header, one line per row in the given order, then,
    with two or more rows, a bottleneck line naming the row with the
    largest share. *)

val to_json : t -> Json.t
(** The report [int] section: strip/hop/exceeded totals, whole-path
    sojourn percentiles, and per-hop sojourn percentiles with max queue
    depth and mean service rate.  Deterministic (hops sorted by label). *)
