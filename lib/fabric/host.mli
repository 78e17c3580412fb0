(** A simulated server: tenant TCP endpoints above a vSwitch datapath above
    a NIC.  Every packet in or out traverses the datapath, where AC/DC (if
    configured) does its work — exactly the paper's Fig. 3 stack. *)

type t

val create : Eventsim.Engine.t -> ip:int -> ?acdc:Acdc.Config.t -> unit -> t
(** [acdc] installs an AC/DC instance on the datapath. *)

val ip : t -> int
val engine : t -> Eventsim.Engine.t
val datapath : t -> Vswitch.Datapath.t
val acdc : t -> Acdc.t option

val set_nic : t -> (Dcpkt.Packet.t -> unit) -> unit
(** Wire the NIC transmit function (set during topology construction). *)

val egress : t -> Dcpkt.Packet.t -> unit
(** Endpoint -> datapath -> NIC. *)

val deliver : t -> Dcpkt.Packet.t -> unit
(** Wire -> datapath -> endpoint demux.  Packets with no matching endpoint
    are counted and discarded. *)

val register_endpoint : t -> Tcp.Endpoint.t -> unit
(** Index the endpoint under the key of the packets it receives (its own
    key reversed once, here), which is what [deliver]'s demux looks up. *)

val unregister_endpoint : t -> Tcp.Endpoint.t -> unit
val fresh_port : t -> int
val no_route_drops : t -> int
val shutdown : t -> unit
