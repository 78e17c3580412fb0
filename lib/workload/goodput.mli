(** Per-interval goodput sampling for workload connections.

    An [Obs.Timeseries] channel records the cumulative acked bytes of a
    set of connections at a fixed virtual-time interval; the channel's
    {!Obs.Timeseries.binned_rate} turns that into Gb/s per interval.
    Recording levels (not increments) keeps the derived rates correct
    even after the channel decimates. *)

val track_aggregate :
  Obs.Timeseries.t ->
  name:string ->
  interval:Eventsim.Time_ns.t ->
  Fabric.Conn.t list ->
  Obs.Timeseries.channel
(** Sample the sum of [Fabric.Conn.bytes_acked] across all of [conns]
    into channel [name] (unit ["bytes"]) every [interval]. *)
