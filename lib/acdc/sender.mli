(** The AC/DC sender-side module (Fig. 3, left).

    On egress it tracks the flow's sequence space (§3.1), forces packets to
    be ECN-capable while remembering the VM's original setting in a reserved
    bit (§3.2), and optionally polices data beyond the enforced window
    (§3.3).  On ingress it consumes PACK/FACK congestion feedback, runs the
    DCTCP control law of Fig. 5 to compute a target window, rewrites the
    receive window of ACKs heading to the VM, and hides ECN feedback from
    the tenant stack. *)

type t

val create : Eventsim.Engine.t -> Config.t -> t
(** Counters register under [acdc.sender.*] in the ambient
    {!Obs.Runtime.metrics}; RWND rewrites, alpha updates, dupacks, inferred
    timeouts, policer drops and assist ACKs are traced to the ambient
    {!Obs.Runtime.tracer} at creation time. *)

val egress :
  t -> Dcpkt.Packet.t -> inject:(Dcpkt.Packet.t -> unit) -> Vswitch.Datapath.verdict
(** Handle a packet the local VM is sending (data direction). *)

val ingress :
  t -> Dcpkt.Packet.t -> inject:(Dcpkt.Packet.t -> unit) -> Vswitch.Datapath.verdict
(** Handle a packet from the network whose reverse flow we track (ACKs). *)

(** {2 Observability} *)

val flow_window : t -> Dcpkt.Flow_key.t -> int option
(** Current enforced congestion window of a tracked flow (data-direction
    key), in bytes. *)

val flow_alpha : t -> Dcpkt.Flow_key.t -> float option

val flow_inflight : t -> Dcpkt.Flow_key.t -> int option
(** Unacknowledged bytes ([snd_nxt - snd_una]) of a tracked flow. *)

(** A consistency snapshot of one tracked flow, for invariant checkers:
    the connection-tracking cursors (§3.1), the enforced window, the
    16-bit field it scales into, and the negotiated shift. *)
type flow_state = {
  fs_key : Dcpkt.Flow_key.t;
  fs_snd_una : int;
  fs_snd_nxt : int;
  fs_enforced_window : int;
  fs_rwnd_field : int;
  fs_peer_wscale : int;
}

val iter_flow_states : t -> f:(flow_state -> unit) -> unit

val register_flow_probes :
  t ->
  ts:Obs.Timeseries.t ->
  prefix:string ->
  interval:Eventsim.Time_ns.t ->
  Dcpkt.Flow_key.t ->
  unit
(** Sample the enforced window ([<prefix>.rwnd]), DCTCP [<prefix>.alpha]
    and in-flight bytes ([<prefix>.inflight]) of [key]'s flow every
    [interval] of virtual time.  Samples are skipped while the flow is not
    yet (or no longer) tracked, so this can be registered before the first
    packet. *)

val tracked_flows : t -> int
val rwnd_rewrites : t -> int
val policer_drops : t -> int
val inferred_timeouts : t -> int
val retransmit_assists : t -> int

val set_vm_injector : t -> (Dcpkt.Packet.t -> unit) -> unit
(** Give the module a path to deliver synthesized packets to the local VM
    outside normal packet processing; required for
    [Config.retransmit_assist]. *)

val set_window_hook : t -> (Dcpkt.Flow_key.t -> Eventsim.Time_ns.t -> int -> unit) -> unit
(** Called with the computed window every time an ACK is processed — the
    instrumentation used for Figs. 9 and 10. *)

val window_update : t -> Dcpkt.Flow_key.t -> to_vm:(Dcpkt.Packet.t -> unit) -> bool
(** Synthesize a TCP Window Update carrying the current enforced window and
    hand it to [to_vm] (§3.3's "create these packets to update windows
    without relying on ACKs").  Returns [false] if the flow is unknown. *)

val shutdown : t -> unit
(** Cancel timers so a simulation can drain. *)
