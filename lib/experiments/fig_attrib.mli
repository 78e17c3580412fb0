(** ext-attrib: causal FCT attribution contrasted between an
    AC/DC-enforced fabric and native host stacks, on the dumbbell and
    incast scenarios (finite messages, so every flow completes and yields
    an exact {!Obs.Attrib} snapshot). *)

module Attrib_fig : sig
  type row = {
    scheme : string;
    scenario : string;
    flows : int;
    mean_fct_us : float;
    fracs : (Obs.Attrib.state * float) list;
        (** mean fraction of FCT spent in each state, in
            {!Obs.Attrib.all_states} order *)
    top_hop : (string * float) option;
        (** heaviest hop by stamped sojourn and its share, from the INT
            decomposition of [In_flight] *)
  }

  type result = row list

  val run : unit -> result
  (** Runs each scenario (["dumbbell"], ["incast"]) under native CUBIC and
      under AC/DC (enforced DCTCP law), with attribution and INT enabled
      for the duration of each run. *)

  val print : result -> unit
end
