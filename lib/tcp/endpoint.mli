(** One end of a TCP connection.

    The model is deliberately close to a kernel TCP with GRO/TSO enabled:
    segments (not wire packets) are the unit, ACKs are generated per
    received segment, and loss recovery is New Reno with cumulative ACKs
    (the receiver buffers out-of-order sequence ranges, so a retransmission
    is acknowledged with a jump).  Data flows from the "client" (active
    opener) to the "server"; the reverse direction carries only control.

    Window scaling, ECN negotiation, message-based application sends with
    flow-completion-time callbacks, and per-connection congestion control
    are all supported — these are the features AC/DC interacts with. *)

type t

type state = Closed | Listen | Syn_sent | Syn_received | Established | Fin_wait | Closing

type config = {
  mss : int;  (** payload bytes per segment *)
  cc : Cc.factory;
  ecn_capable : bool;  (** stack sets ECT on data and reacts to ECE *)
  accurate_ecn_echo : bool;
      (** DCTCP-style receiver: echo ECE exactly for CE-marked segments
          rather than latching until CWR (RFC 3168). *)
  rcv_buf : int;  (** advertised receive window, bytes *)
  delayed_ack : bool;
      (** Acknowledge every second in-order segment (or after a short
          timer) instead of every segment; CE marks, out-of-order arrivals
          and FINs are always acknowledged immediately. *)
  wscale : int;  (** window-scale shift advertised in the handshake *)
  min_rto : Eventsim.Time_ns.t;
  init_cwnd_segments : int;  (** RFC 6928 initial window, default 10 *)
  max_cwnd : int option;  (** snd_cwnd_clamp, for the Fig. 6 sweep *)
  ignore_rwnd : bool;
      (** A non-conforming stack that disregards the advertised receive
          window — the adversary AC/DC's policer exists for. *)
}

val default_config : config
(** CUBIC, no ECN, 9000-byte MTU segments (MSS 8960), 6 MB receive buffer,
    wscale 7, 10 ms RTOmin. *)

val misbehaving : config -> config
(** The deliberately hostile tenant stack of §3.3: [ignore_rwnd] set and
    {!Aggressive.factory} as its congestion control, so only AC/DC's
    policing stands between it and the switch buffers. *)

val create_client :
  Eventsim.Engine.t ->
  config ->
  key:Dcpkt.Flow_key.t ->
  out:(Dcpkt.Packet.t -> unit) ->
  t
(** [key] is the client-to-server direction. [out] hands packets to the
    host's egress path.  The ambient {!Obs.Runtime.tracer} at creation
    time receives dupack and RTO events. *)

val create_server :
  Eventsim.Engine.t ->
  config ->
  key:Dcpkt.Flow_key.t ->
  out:(Dcpkt.Packet.t -> unit) ->
  t
(** [key] is the server-to-client direction (the packets this endpoint
    emits). *)

val connect : t -> unit
(** Client only: begin the three-way handshake. *)

val on_established : t -> (unit -> unit) -> unit

val input : t -> Dcpkt.Packet.t -> unit
(** Deliver a packet that survived the network and the vSwitch. *)

(** {2 Application interface} *)

val send_message : t -> bytes:int -> on_complete:(Eventsim.Time_ns.t -> unit) -> unit
(** Queue [bytes] on the connection; [on_complete] fires with the flow
    completion time (submission until cumulatively ACKed). *)

val send_forever : t -> unit
(** Saturating source: always has a segment ready. *)

val stop : t -> unit
(** Stop a [send_forever] source (no FIN; used when churning flows). *)

val close : t -> unit
(** Send FIN once queued data drains. *)

(** {2 Observability} *)

val state : t -> state
val key : t -> Dcpkt.Flow_key.t
val cwnd : t -> int
val ssthresh : t -> int
val snd_una : t -> int
val snd_nxt : t -> int
val peer_rwnd : t -> int
(** Last receive window advertised by the peer, in bytes (post-scaling) —
    under AC/DC this is the enforced window. *)

val bytes_acked : t -> int
val retransmissions : t -> int
val timeouts : t -> int
val cc_name : t -> string

val srtt : t -> Eventsim.Time_ns.t option
(** Smoothed RTT from the RFC 6298 estimator, once a sample arrived. *)

val rto : t -> Eventsim.Time_ns.t
(** Current retransmission timeout, including backoff. *)

val set_rtt_hook : t -> (Eventsim.Time_ns.t -> unit) -> unit
(** Called with every clean RTT sample the sender takes. *)

val add_cwnd_hook : t -> (Eventsim.Time_ns.t -> int -> unit) -> unit
(** Called whenever the congestion window changes.  Stacks [f] after any
    previously installed hooks; all installed hooks run on every change,
    in installation order. *)

val set_bytes_hook : t -> (Eventsim.Time_ns.t -> int -> unit) -> unit
(** Called with the byte count each time the cumulative ACK advances:
    per-flow goodput metering. *)
