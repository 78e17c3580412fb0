(** §5.1 microbenchmarks. *)

(** Fig. 6: clamping the host's CWND and clamping AC/DC's RWND throttle
    throughput identically — the basis of per-flow bandwidth limits. *)
module Fig6 : sig
  type point = { limit_mss : int; cwnd_gbps : float; rwnd_gbps : float }

  type result = { mtu : int; points : point list }

  val run : ?mtu:int -> ?duration:float -> unit -> result
  val print : result -> unit
end

(** Fig. 8 + the parking-lot numbers of §5.1: dumbbell RTT CDFs and
    per-flow throughput/fairness for CUBIC, DCTCP and AC/DC. *)
module Fig8 : sig
  type per_scheme = {
    scheme : string;
    tputs : float list;
    fairness : float;
    rtt_ms : Dcstats.Samples.t;
  }

  type result = per_scheme list

  val run : ?duration:float -> unit -> result
  val run_parking_lot : ?duration:float -> unit -> result
  val print : result -> unit
end

(** Table 1: every host stack under AC/DC tracks native DCTCP. *)
module Table1 : sig
  type row = {
    label : string;
    rtt_p50_us : float;
    rtt_p99_us : float;
    avg_tput_gbps : float;
    fairness : float;
  }

  type result = { mtu : int; rows : row list }

  val run : ?mtu:int -> ?duration:float -> unit -> result
  val print : result -> unit
end

(** Fig. 9: with the host running DCTCP and AC/DC in log-only mode,
    AC/DC's computed RWND tracks the host's CWND (1.5 KB MTU). *)
module Fig9 : sig
  type result = {
    host_cwnd : (Eventsim.Time_ns.t * float) list;  (** (time, MSS units) *)
    acdc_rwnd : (Eventsim.Time_ns.t * float) list;
    mean_abs_error_mss : float;  (** tracking error over aligned samples *)
  }

  val run : ?duration:float -> unit -> result
  val print : result -> unit
end

(** Fig. 10: with a CUBIC host stack, AC/DC's RWND is the binding window
    (1.5 KB MTU). *)
module Fig10 : sig
  type result = {
    host_cwnd : (Eventsim.Time_ns.t * float) list;
    acdc_rwnd : (Eventsim.Time_ns.t * float) list;
    fraction_rwnd_limiting : float;
  }

  val run : ?duration:float -> unit -> result
  val print : result -> unit
end
