(** Extension: mice FCT vs offered load under open-loop Poisson arrivals —
    the evaluation style of the paper's successors, and a connection-churn
    stress on the vSwitch flow tables (every flow is a fresh connection
    created by SYN and reaped after FIN). *)
module Load_sweep : sig
  type row = {
    scheme : string;
    load : float;
    flows : int;  (** connections completed during the measurement *)
    mice_p50_ms : float;
    mice_p99_ms : float;
  }

  type result = row list

  val run : ?hosts:int -> ?duration:float -> unit -> result
  (** Offered loads 0.2, 0.4 and 0.6 under each scheme. *)

  val print : result -> unit
end
