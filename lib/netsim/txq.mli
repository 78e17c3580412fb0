(** A serializing transmit queue: the output side of a NIC or switch port.

    Packets are transmitted FIFO at [rate_bps]; each occupies the "wire"
    for [wire_size * 8 / rate] and is delivered [prop_delay] after its
    transmission completes.  The queue itself is unbounded — admission
    control (switch buffer management) happens before [enqueue]. *)

type t

val create :
  ?node:string ->
  ?port:int ->
  Eventsim.Engine.t ->
  rate_bps:int ->
  prop_delay:Eventsim.Time_ns.t ->
  jitter:(Eventsim.Rng.t * Eventsim.Time_ns.t) option ->
  deliver:(Dcpkt.Packet.t -> unit) ->
  t
(** [jitter (rng, j)] adds a uniform 0..j delay to each delivery — the
    sub-microsecond timing noise of real links.  Without it a deterministic
    simulation can phase-lock queues at artificial equilibria.

    The sinks are the ambient {!Obs.Runtime} ones at creation time.  The
    tracer receives an [Enqueue] event per admitted packet and a [Dequeue]
    event when a packet finishes serializing, labelled [node]:[port].

    The pcap sink captures each frame on interface ["node:port"] at the
    moment it finishes serializing, so the capture shows the header state
    downstream nodes will see.

    The metrics registry receives queue-residency instruments under scope
    ["txq.<node>.port<i>"]: a [sojourn_ns] high-water gauge plus
    [sojourn_total_ns] / [sojourn_samples] counters, measured enqueue to
    serialization-complete for every packet.  They double as an
    INT-independent cross-check of stamped hop latency (see
    {!Dcpkt.Int_meta}); the queue also closes the packet's open INT hop
    at serialization time, before the trace and capture taps fire. *)

val enqueue : t -> Dcpkt.Packet.t -> unit
(** The packet's {!Dcpkt.Packet.wire_size} at enqueue is the byte count it
    occupies for the queue's entire accounting — byte counters and the
    [on_tx_complete] callback see this exact value even if an option
    rewrite changes the packet's size while it waits.  Admission control
    that charges a shared buffer must charge this same size (the packet's
    size when it calls [enqueue]) so the books provably re-balance. *)

val set_on_tx_complete : t -> (Dcpkt.Packet.t -> size:int -> unit) -> unit
(** Invoked when a packet finishes serializing (its buffer is freed);
    [size] is the enqueue-time size the packet was charged at. *)

val queued_bytes : t -> int
(** Wire bytes currently held, including the packet being transmitted. *)

val queued_packets : t -> int
val rate_bps : t -> int

val tx_time : t -> bytes:int -> Eventsim.Time_ns.t
(** Serialization delay of [bytes] at this queue's rate. *)

val busy : t -> bool
