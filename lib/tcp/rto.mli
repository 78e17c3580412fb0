(** RFC 6298 retransmission-timeout estimation with a configurable floor
    (the paper sets RTOmin to 10 ms, following datacenter practice). *)

type t

val create : ?min_rto:Eventsim.Time_ns.t -> unit -> t
(** [min_rto] defaults to 10 ms.  The RTO never exceeds 4 s, backoff
    included. *)

val observe : t -> Eventsim.Time_ns.t -> unit
(** Feed an RTT sample (must come from a non-retransmitted segment —
    Karn's rule is the caller's job). *)

val timeout : t -> Eventsim.Time_ns.t
(** Current RTO, including any backoff. *)

val backoff : t -> unit
(** Double the RTO after a timeout fires (bounded by 4 s). *)

val reset_backoff : t -> unit

val srtt : t -> Eventsim.Time_ns.t option
(** Smoothed RTT, if at least one sample arrived. *)

val samples : t -> int
(** RTT samples observed so far. *)

val backoffs : t -> int
(** Times [backoff] fired (exponential-backoff events). *)
