(** Collector for stripped in-band telemetry (INT) stacks.

    The receiving vSwitch hands every stripped stack to a sink (the
    ambient one lives in {!Runtime}); the sink aggregates per-hop
    sojourn/queue statistics for the report's [int] section and can
    mirror one watched flow's per-hop samples into {!Timeseries}
    channels.  Trace events for the hops are emitted by the host, not
    here — the sink is pure aggregation, safe to keep ambient. *)

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

val touched : t -> bool
(** Whether any stack was absorbed since creation/[reset] — gates the
    optional report section, like [Prof.touched]. *)

val packets : t -> int

val to_json : t -> Json.t
(** The report [int] section: strip/hop/exceeded totals, whole-path
    sojourn percentiles, and per-hop sojourn percentiles with max queue
    depth and mean service rate.  Deterministic (hops sorted by label). *)
