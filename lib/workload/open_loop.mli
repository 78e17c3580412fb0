(** Open-loop traffic: Poisson flow arrivals at a target load, each flow a
    fresh TCP connection (SYN through FIN) to a random peer with a size
    drawn from an empirical distribution.

    This is the workload model of the paper's successors (pFabric, Homa,
    ...) and doubles as a connection-churn stress for the vSwitch flow
    tables: thousands of short connections created and garbage-collected
    per simulated second. *)

type t

val mice_cutoff : int
(** Flows smaller than this many bytes (10 KB) are mice. *)

val start :
  net:Fabric.Topology.t ->
  config:Tcp.Endpoint.config ->
  dist:Dist.t ->
  load:float ->
  fct_ms:Dcstats.Samples.t ->
  mice_fct_ms:Dcstats.Samples.t ->
  unit ->
  t
(** [load] is the fraction of each host's link rate offered on average
    (arrival rate = load * link_rate / (8 * mean flow size), per host).
    Arrival times, peers and sizes come from a fixed seed, so every run
    offers the same flows.  Each completion time goes to [fct_ms], and
    also to [mice_fct_ms] if the flow is smaller than {!mice_cutoff}.
    Completed connections are torn down after a 20 ms grace. *)

val flows_started : t -> int
val flows_completed : t -> int
val stop : t -> unit
