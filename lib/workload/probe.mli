(** A sockperf-style RTT probe: a low-rate TCP flow between two hosts whose
    per-segment RTT samples measure the queueing its packets experience.
    Used for every "TCP Round Trip Time" figure in the paper. *)

type t

val start :
  src:Fabric.Host.t ->
  dst:Fabric.Host.t ->
  ?config:Tcp.Endpoint.config ->
  ?warmup:Eventsim.Time_ns.t ->
  unit ->
  t
(** Sends a 1000-byte message every millisecond; RTT samples taken
    before [warmup] (default 100 ms) are discarded. *)

val samples_ms : t -> Dcstats.Samples.t
(** RTT samples in milliseconds. *)

val conn : t -> Fabric.Conn.t
val stop : t -> unit
