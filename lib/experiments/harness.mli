(** Shared experiment plumbing: the three schemes of §5 ("CUBIC",
    "DCTCP", "AC/DC"), flow construction, throughput measurement and
    paper-style output formatting. *)

type scheme = {
  label : string;
  fabric_ecn : bool;  (** WRED/ECN configured on the switches *)
  host_cc : Tcp.Cc.factory;
  host_ecn : bool;  (** the tenant stack itself uses ECN *)
  acdc : bool;  (** AC/DC installed in every vSwitch *)
}

val cubic : scheme
(** Baseline: host CUBIC + standard OVS, switch ECN off. *)

val dctcp : scheme
(** Target: host DCTCP + standard OVS, switch ECN on. *)

val acdc : ?host_cc:Tcp.Cc.factory -> ?host_ecn:bool -> unit -> scheme
(** Our scheme: the given host stack (default CUBIC) under AC/DC, switch
    ECN on. *)

val params_for : scheme -> Fabric.Params.t -> Fabric.Params.t
val acdc_select : scheme -> Fabric.Params.t -> Fabric.Topology.acdc_select
val host_config : scheme -> Fabric.Params.t -> Tcp.Endpoint.config

val dumbbell : scheme -> ?params:Fabric.Params.t -> pairs:int -> unit -> Fabric.Topology.t
val star : scheme -> ?params:Fabric.Params.t -> hosts:int -> unit -> Fabric.Topology.t

val long_lived_pairs : Fabric.Topology.t -> scheme -> pairs:int -> Fabric.Conn.t list
(** One saturating flow per sender/receiver pair of a dumbbell. *)

val measure_goodput :
  Fabric.Topology.t ->
  Fabric.Conn.t list ->
  warmup:Eventsim.Time_ns.t ->
  duration:Eventsim.Time_ns.t ->
  float list
(** Run the simulation through [warmup + duration] and return each flow's
    goodput in Gb/s over the measurement window. *)

(** {2 Time-series plumbing}

    Experiments that sample signals over virtual time share one
    {!Obs.Timeseries.t} per run, bound to the topology's engine. *)

val new_timeseries : ?default_budget:int -> Fabric.Topology.t -> Obs.Timeseries.t

val finish_timeseries : Obs.Timeseries.t -> unit
(** Stop all probes (so the event queue can drain on the next run) and
    export CSVs if the ambient {!Obs.Runtime} time-series sink is set.
    Call once the run is over, before tearing the topology down. *)

val add_observer_sections : Obs.Report.t -> unit
(** Attach what the ambient observers ({!Obs.Runtime}) gathered during the
    run: the metrics snapshot, then — each only when it recorded anything —
    the [profile] section plus its three baseline scalars, the [int]
    section and the [fct_attrib] section. *)

val report_of_run :
  id:string ->
  ?scheme:scheme ->
  ?config:(string * Obs.Json.t) list ->
  ?goodputs:float list ->
  ?timeseries:Obs.Timeseries.t ->
  unit ->
  Obs.Report.t
(** Assemble a {!Obs.Report} from a finished run: scheme label and extra
    [config] pairs, flow count plus [aggregate_goodput_gbps] from
    [goodputs], the {!add_observer_sections}, and the run's time-series
    embedded.  Callers add run-specific scalars and percentile
    summaries on the result before writing it. *)

(** {2 Output helpers} *)

val pp_gbps_list : Format.formatter -> float list -> unit
val print_header : string -> string -> unit
(** [print_header id title] prints the experiment banner. *)

val print_cdf : label:string -> Dcstats.Samples.t -> unit
(** Print a ~20-point CDF (value percentiles) in gnuplot-ready columns. *)

val print_row : string -> ('a, Format.formatter, unit) format -> 'a
(** [print_row label fmt ...] prints an aligned data row. *)

val pctl : Dcstats.Samples.t -> float -> float
(** Percentile that returns [nan] on an empty sample set instead of
    raising. *)

(** {2 Per-run metric snapshots}

    Experiments register their counters in the ambient
    {!Obs.Runtime.metrics} registry; the driver brackets each run with
    [timed_run] and writes what the run gathered into its
    {!Obs.Report} ({!report_of_run} or {!add_observer_sections}). *)

val reset_run_metrics : unit -> unit
(** Zero the ambient registry — call before a run for a per-run view. *)

val timed_run : (unit -> unit) -> float * int
(** [timed_run f] resets the run metrics, runs [f], and returns
    [(wall_seconds, simulator_events_fired)]. *)
