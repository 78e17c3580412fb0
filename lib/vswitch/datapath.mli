(** The per-host virtual switch datapath.

    Every packet a VM sends traverses [process_egress] on its way to the
    NIC, and every packet from the wire traverses [process_ingress] before
    reaching the VM — the interception points
    ([ovs_dp_process_packet]-equivalents) where AC/DC plugs in.

    Processors run in registration order.  A processor may modify the
    packet in place, drop it, or inject additional packets travelling in
    the same direction (e.g. AC/DC's dedicated FACK feedback packets). *)

type verdict = Pass | Drop

type processor = {
  name : string;
  egress : Dcpkt.Packet.t -> inject:(Dcpkt.Packet.t -> unit) -> verdict;
      (** VM -> network.  [inject] sends an extra packet to the network
          (it bypasses the remaining processors). *)
  ingress : Dcpkt.Packet.t -> inject:(Dcpkt.Packet.t -> unit) -> verdict;
      (** network -> VM.  [inject] delivers an extra packet up the stack. *)
}

val no_op : string -> processor

type t

val create : ?name:string -> ?clock:(unit -> Eventsim.Time_ns.t) -> unit -> t
(** Counters register under [vswitch.*] in the ambient
    {!Obs.Runtime.metrics}; per-host datapaths therefore sum into one
    aggregate view while each instance keeps exact private values.

    A processor [Drop] verdict emits a [Vswitch_drop] trace event on the
    ambient tracer (read at creation time) labelled [name], timestamped by
    [clock] (the host passes the engine's; the default reads zero). *)

val add_processor : t -> processor -> unit

val process_egress : t -> Dcpkt.Packet.t -> emit:(Dcpkt.Packet.t -> unit) -> unit
(** Run the packet through all egress hooks; [emit] is called for the
    packet (unless dropped) and for any injected packets. *)

val process_ingress : t -> Dcpkt.Packet.t -> deliver:(Dcpkt.Packet.t -> unit) -> unit

val egress_packets : t -> int
val ingress_packets : t -> int
val egress_drops : t -> int
val ingress_drops : t -> int
