(** ext-int-hops: per-hop latency attribution from in-band telemetry.

    Runs the parking-lot topology with INT stamping enabled, subscribes
    to the stripped stacks of the longest flow through
    {!Acdc.Int_feedback} (the channel an in-fabric congestion law would
    use), folds them into a private {!Obs.Int_sink} and prints its hop
    table: that flow's latency broken down by switch hop. *)

module Int_hops : sig
  type result = {
    scheme : string;
    senders : int;
    watched : Dcpkt.Flow_key.t;
    stacks : int;  (** stacks of the watched flow, both directions *)
    tputs : float list;
    hops : Obs.Int_sink.row list;  (** from a private {!Obs.Int_sink}, path order *)
  }

  val run : ?duration:float -> ?senders:int -> unit -> result
  val print : result -> unit
end
