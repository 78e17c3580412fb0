(** §5.1 flexibility and fairness experiments. *)

(** Fig. 13: differentiated throughput via the priority-based congestion
    control of Eq. 1 — per-flow beta values yield proportional bandwidth. *)
module Fig13 : sig
  type experiment = { betas : float list; tputs : float list }

  type result = experiment list

  val run : ?duration:float -> unit -> result
  val print : result -> unit
end

(** Fig. 14: convergence — a flow joins (then leaves) every epoch; AC/DC
    matches DCTCP's clean convergence, CUBIC is noisy and drops packets. *)
module Fig14 : sig
  type per_scheme = {
    scheme : string;
    (* One throughput series (Gb/s, binned) per flow. *)
    series : (float * float) list array;
    drop_rate : float;
  }

  type result = per_scheme list

  val run : unit -> result
  (** Flows join, then leave, one second apart (paper: 30 s —
      time-scaled, the dynamics are RTT-bound); goodput is binned every
      100 ms. *)

  val print : result -> unit
end

(** Figs. 15 & 16: ECN coexistence.  A CUBIC (non-ECN) flow sharing the
    bottleneck with a DCTCP (ECN) flow is starved by WRED drops; under
    AC/DC both flows become ECN-capable and share fairly. *)
module Fig15 : sig
  type pair = { cubic_gbps : float; dctcp_gbps : float; cubic_rtt_ms : Dcstats.Samples.t }

  type result = { without_acdc : pair; with_acdc : pair }

  val run : ?duration:float -> unit -> result
  val print : result -> unit
end

(** Fig. 17: five different host stacks under AC/DC are as fair as five
    DCTCP stacks. *)
module Fig17 : sig
  type trial = Fig_motivation.Fig1.trial

  type result = { all_dctcp : trial list; hetero_acdc : trial list }

  val run : ?duration:float -> unit -> result
  (** Ten trials of each. *)

  val print : result -> unit
end
