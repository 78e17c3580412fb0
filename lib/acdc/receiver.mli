(** The AC/DC receiver-side module (Fig. 3, right).

    On ingress it counts, per flow, total bytes and bytes carrying a CE
    mark, then strips ECN bits so the tenant stack never reacts itself —
    restoring the VM's original ECN setting from the reserved bit (§3.2).
    On egress it piggy-backs the cumulative counters onto ACKs as a PACK
    option, falling back to a dedicated FACK packet when the PACK would
    overflow the MTU. *)

type t

val create : Eventsim.Engine.t -> Config.t -> t
(** Counters register under [acdc.receiver.*] in the ambient
    {!Obs.Runtime.metrics}.  The ambient {!Obs.Runtime.tracer} at creation
    time receives a [Pack_attach] event per PACK carrier and a [Created]
    event per injected FACK. *)

val ingress :
  t -> Dcpkt.Packet.t -> inject:(Dcpkt.Packet.t -> unit) -> Vswitch.Datapath.verdict
(** Handle arriving data of a flow whose receiver is local. *)

val egress :
  t -> Dcpkt.Packet.t -> inject:(Dcpkt.Packet.t -> unit) -> Vswitch.Datapath.verdict
(** Handle ACKs the local VM is sending back to the data sender. *)

val tracked_flows : t -> int
val packs_sent : t -> int
val facks_sent : t -> int
val marked_bytes : t -> Dcpkt.Flow_key.t -> (int * int) option
(** [(total, marked)] counters for a data-direction flow key. *)

val shutdown : t -> unit
