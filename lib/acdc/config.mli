(** AC/DC configuration: what the administrator controls. *)

(** Congestion control run by the vSwitch for a flow (§3.4: "flows
    destined to the WAN may be assigned CUBIC and flows destined within
    the datacenter may be set to DCTCP"). *)
type algorithm =
  | Dctcp  (** ECN-driven, Fig. 5's control law with the beta priority *)
  | Reno_like
      (** loss-driven AIMD that ignores ECN feedback — a stand-in for the
          WAN-oriented assignments of §3.4 *)
  | Custom of Tcp.Cc.factory
      (** any congestion-control algorithm from the [Tcp] library, run
          inside the vSwitch on reconstructed state: "runs the congestion
          control logic specified by an administrator" (§1).  The vSwitch
          feeds it ACK progress, PACK-reported CE marks, its own RTT
          estimate, and loss events. *)

(** Per-flow policy (§3.4): which flows are enforced, with what algorithm
    and priority, and an optional static bandwidth clamp. *)
type policy = {
  enforce : bool;
      (** [false] exempts the flow — e.g. WAN flows left on the tenant's
          own congestion control. *)
  algorithm : algorithm;
  beta : float;
      (** Priority in [\[0, 1\]] applied to the decrease law
          [rwnd <- rwnd * (1 - (alpha - alpha * beta / 2))] (Eq. 1);
          [1.0] is plain DCTCP, [0.0] backs off maximally. *)
  max_rwnd : int option;
      (** Upper bound on the enforced window in bytes — the
          [snd_cwnd_clamp] analogue of Fig. 6. *)
}

val default_policy : policy

type t = {
  mss : int;  (** segment size used for window arithmetic *)
  mtu : int;  (** PACK-vs-FACK decision threshold (§3.2) *)
  g : float;  (** DCTCP EWMA gain, default 1/16 *)
  init_window_segments : int;  (** initial enforced window, default 10 (RFC 6928) *)
  min_window_bytes : int;
      (** Floor of the enforced window.  Unlike Linux DCTCP's 2-packet CWND
          floor, RWND is in bytes and may sit below 2 MSS — the reason
          AC/DC beats native DCTCP in large incasts (§5.2). *)
  max_alpha : float;  (** alpha forced on loss (Fig. 5), default 1.0 *)
  inactivity_timeout : Eventsim.Time_ns.t;
      (** RTO-equivalent used to infer timeouts from silence (§3.1). *)
  log_only : bool;
      (** Compute windows but do not rewrite RWND (the Fig. 9 methodology). *)
  fack_only : bool;
      (** Ablation: never piggy-back, always send dedicated FACKs. *)
  policing_slack : int option;
      (** [Some slack] drops egress data more than [slack] bytes beyond the
          enforced window — the policer for non-conforming stacks (§3.3).
          [None] disables policing. *)
  retransmit_assist : bool;
      (** On an inferred timeout, inject three duplicate ACKs toward the VM
          to trigger its fast retransmit — §3.3's remedy for tenant stacks
          with RTOs far above the fabric's RTT. *)
  policy : Dcpkt.Flow_key.t -> policy;
      (** Keyed by the data direction's 5-tuple.  Must be a pure function
          of the key: the sender module reads it once per flow, and the
          receiver module's ACK path asks it only about flows it already
          tracks. *)
}

val default : mss:int -> t
(** Paper defaults: [mtu = mss + 40], [g = 1/16], initial window 10
    segments, 1-MSS window floor, 10 ms inactivity timeout, no policing,
    every flow enforced at [beta = 1.0]. *)
