(** §5.2 macrobenchmarks on the single-switch fabric.

    Scale note: durations and bulk-transfer sizes are reduced from the
    paper's 10-minute runs (EXPERIMENTS.md records the factors); the
    dynamics being measured are RTT-timescale, so the distributions keep
    their shape. *)

(** Figs. 18 & 19: many-to-one incast with 16, 32, 40 and 47 concurrent
    senders. *)
module Incast : sig
  type row = {
    scheme : string;
    senders : int;
    avg_tput_mbps : float;
    fairness : float;
    rtt_p50_ms : float;
    rtt_p999_ms : float;
    drop_rate : float;
  }

  type result = row list

  val run : ?duration:float -> unit -> result
  val print : result -> unit
end

(** Fig. 20: congest 47 of 48 ports (a 46-host mesh plus a 46-to-1 incast)
    and measure the RTT of a probe crossing the hottest port. *)
module Fig20 : sig
  type row = {
    scheme : string;
    rtt_ms : Dcstats.Samples.t;
    avg_tput_mbps : float;
    fairness : float;
    drop_rate : float;
  }

  type result = row list

  val run : ?hosts:int -> ?duration:float -> unit -> result
  val print : result -> unit
end

type fct_result = {
  scheme : string;
  mice_fct_ms : Dcstats.Samples.t;
  background_fct_ms : Dcstats.Samples.t;
}

(** Fig. 21: concurrent stride — 64 MB bulk flows to the next four servers
    plus periodic 16 KB mice. *)
module Stride : sig
  type result = fct_result list

  val run : ?hosts:int -> ?duration:float -> unit -> result
  val print : result -> unit
end

(** Fig. 22: shuffle — every server sends a 32 MB bulk flow to every other
    server in random order, two at a time, plus the same mice. *)
module Shuffle : sig
  type result = fct_result list

  val run : ?hosts:int -> ?duration:float -> unit -> result
  val print : result -> unit
end

(** Fig. 23: trace-driven workloads — five closed-loop applications per
    server sampling message sizes from the web-search / data-mining
    distributions; the figure reports mice
    (< {!Workload.Open_loop.mice_cutoff} bytes) FCTs. *)
module Traces : sig
  type row = { scheme : string; workload : string; mice_fct_ms : Dcstats.Samples.t }

  type result = row list

  val run : ?hosts:int -> ?duration:float -> unit -> result
  val print : result -> unit
end
