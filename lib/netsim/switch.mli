(** An output-queued datacenter switch with a shared packet buffer.

    Models the paper's IBM G8264: a pool of buffer memory (9 MB by default)
    shared by all ports under classic dynamic-threshold allocation, with
    optional WRED/ECN marking: when a port's queue exceeds the marking
    threshold, ECN-capable packets are marked CE and — matching the
    behaviour the paper leans on for the coexistence experiments —
    non-ECN-capable packets are dropped. *)

type t

type ecn_config = {
  mark_threshold : int;  (** bytes of queue that trigger marking *)
  byte_mode_ref : int option;
      (** Byte-mode WRED: a non-ECT packet over the threshold is dropped
          with probability [wire_size / ref] (capped at 1) instead of
          always — real WRED implementations scale drop probability with
          packet size, which is what lets SYNs and pure ACKs survive a
          congested DCTCP queue.  [None] drops every non-ECT packet. *)
}

val create :
  Eventsim.Engine.t ->
  ?name:string ->
  ?buffer_capacity:int ->
  ?dt_alpha:float ->
  ?ecn:ecn_config ->
  unit ->
  t
(** [buffer_capacity] defaults to 9 MB; [dt_alpha] is the dynamic-threshold
    factor (default 1.0); [ecn = None] disables WRED/ECN (drop-tail only).

    Counters register under [switch.<name>.*] in the ambient
    {!Obs.Runtime.metrics}; drops, CE marks and per-port enqueue/dequeue
    flow to the ambient {!Obs.Runtime.tracer}, read when the switch and
    each of its ports are created. *)

val add_port :
  t ->
  rate_bps:int ->
  prop_delay:Eventsim.Time_ns.t ->
  ?jitter:Eventsim.Rng.t * Eventsim.Time_ns.t ->
  deliver:(Dcpkt.Packet.t -> unit) ->
  unit ->
  int
(** Attach an output port whose far end is [deliver]; returns the port id.
    Amortized O(1): ports live in a doubling vector. *)

val port_count : t -> int

val add_route : t -> dst_ip:int -> port:int -> unit

val add_routes : t -> dst_ip:int -> ports:int list -> unit
(** ECMP group: flows to [dst_ip] hash onto one of [ports] by their
    5-tuple, like datacenter switches hash onto equal-cost uplinks. *)

val input : t -> Dcpkt.Packet.t -> unit
(** Accept a packet from the wire: route, run admission control and
    marking, and enqueue on the output port.  Unroutable packets count as
    drops. *)

val port_queue_bytes : t -> int -> int
val buffer_used : t -> int

(** Observability counters. *)

val forwarded_packets : t -> int
val forwarded_bytes : t -> int
val drops : t -> int
(** All drops (buffer exhaustion + dynamic threshold + WRED + no-route). *)

val wred_drops : t -> int
val ce_marks : t -> int
val max_port_queue : t -> int -> int
(** High-water mark of a port's queue, in bytes. *)

val name : t -> string

val register_probes : t -> ts:Obs.Timeseries.t -> ?interval:Eventsim.Time_ns.t -> unit -> unit
(** Register fixed-interval samplers (default every 100 µs of virtual
    time) for every current port's queue depth
    ([switch.<name>.port<i>.qbytes]) and the shared buffer occupancy
    ([switch.<name>.buffer_used]).  Ports added later are not sampled;
    call after the topology is wired.  Stop via {!Obs.Timeseries.stop}. *)
