(** §2 motivation experiments. *)

val five_ccs : Tcp.Cc.factory list
(** Illinois, CUBIC, Reno, Vegas, HighSpeed — the mix of Fig. 1. *)

(** Fig. 1: five flows on the dumbbell, each of ten trials either running
    five different congestion controls or all CUBIC.  Reports per-trial
    max/min/mean/median throughput; heterogeneous stacks are unfair. *)
module Fig1 : sig
  type trial = { tputs : float list; max : float; min : float; mean : float; median : float }

  type result = { hetero : trial list; homo_cubic : trial list }

  val run : ?duration:float -> unit -> result
  val summarize : float list -> trial
  val fairness : trial -> float
  val print : result -> unit
end

(** Fig. 2: even with "perfect" 2 Gb/s rate limiting, CUBIC fills buffers
    and inflates RTT; DCTCP needs no rate limiting to keep RTT low.
    Reports the two RTT CDFs. *)
module Fig2 : sig
  type result = { cubic_rl_rtt : Dcstats.Samples.t; dctcp_rtt : Dcstats.Samples.t }

  val run : ?duration:float -> unit -> result
  val print : result -> unit
end
