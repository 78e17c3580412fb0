(** AC/DC TCP: congestion control enforced in the virtual switch.

    This is the paper's contribution (He et al., SIGCOMM 2016).  Attach an
    instance to a host's vSwitch datapath and every TCP flow through that
    host is transparently subjected to DCTCP congestion control — whatever
    stack the tenant VM runs — by rewriting the receive window on returning
    ACKs.  See {!Config} for the administrator's knobs, {!Sender} and
    {!Receiver} for the two datapath modules. *)

module Config = Config
module Sender = Sender
module Receiver = Receiver

module Int_feedback = Int_feedback
(** Per-hop INT samples delivered to enforced CC laws (see
    {!Int_feedback}). *)

type t

val create : Eventsim.Engine.t -> Config.t -> t
(** Build the sender and receiver modules for one host.  Both register
    their counters in, and trace to, the ambient {!Obs.Runtime} sinks. *)

val attach : t -> Vswitch.Datapath.t -> unit
(** Register the AC/DC processor on a datapath. *)

val processor : t -> Vswitch.Datapath.processor

val sender : t -> Sender.t
val receiver : t -> Receiver.t

val set_vm_injector : t -> (Dcpkt.Packet.t -> unit) -> unit
(** Path for delivering synthesized packets (duplicate ACKs, window
    updates) straight to the local VM. *)

val shutdown : t -> unit
(** Cancel all timers (lets a simulation drain its event queue). *)
