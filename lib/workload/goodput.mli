(** Per-interval goodput sampling for workload connections.

    Each tracked connection gets an [Obs.Timeseries] channel recording its
    cumulative acked bytes at a fixed virtual-time interval; the channel's
    {!Obs.Timeseries.binned_rate} turns that into Gb/s per interval.  An
    optional aggregate channel sums every tracked connection.  Recording
    levels (not increments) keeps the derived rates correct even after the
    channel decimates. *)

val track :
  Obs.Timeseries.t ->
  name:string ->
  interval:Eventsim.Time_ns.t ->
  Fabric.Conn.t ->
  Obs.Timeseries.channel
(** Sample [Fabric.Conn.bytes_acked] of one connection into channel
    [name] (unit ["bytes"]) every [interval]. *)

val track_aggregate :
  Obs.Timeseries.t ->
  name:string ->
  interval:Eventsim.Time_ns.t ->
  Fabric.Conn.t list ->
  Obs.Timeseries.channel
(** Same, summing [bytes_acked] across all of [conns]. *)
