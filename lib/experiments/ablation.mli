(** The ablations of DESIGN.md §5. *)

val fack : unit -> unit
(** ablation-fack: the 5-pair AC/DC dumbbell with PACKs piggy-backed on
    ACKs, then with every PACK sent as a dedicated FACK packet. *)

val window_floor : unit -> unit
(** ablation-floor: 40-to-1 incast under AC/DC with the enforced-window
    floor at 2, 1 and 0.5 MSS; prints the median RTT of each. *)
