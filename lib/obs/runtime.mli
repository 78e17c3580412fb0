(** The ambient observability context.

    Simulator components pick up their metrics registry, tracer and pcap
    sink from here at construction time; no component takes a per-instance
    override.  Drivers — the experiment CLI, the bench, tests —
    configure the ambient context *before* building a topology, which is
    how experiments opt into tracing without code changes:

    {[
      Obs.Runtime.trace_to_file "run.jsonl";   (* or set_tracer (ring ()) *)
      (* ... build topology, run ... *)
      Obs.Runtime.close_trace ()
    ]}

    The ambient tracer defaults to {!Trace.null}: tracing is off, and the
    hot paths pay one branch per event. *)

val check_output : flag:string -> [ `File | `Dir ] -> string -> (unit, string) result
(** Whether a driver can later write [path], given as [flag], as a file
    or as a directory it makes if missing: an existing path must be of
    that kind, a missing one must sit in an existing directory.  Touches
    nothing, so drivers check every output before opening any.  The error
    names the flag; permissions are not checked. *)

val metrics : unit -> Metrics.t
(** The process-global registry.  Drivers call {!reset_metrics} between
    runs for per-run snapshots. *)

val tracer : unit -> Trace.t
val set_tracer : Trace.t -> unit

val trace_to_file : string -> unit
(** Open [path] (truncating) and stream JSONL events to it; replaces any
    tracer previously installed by [trace_to_file]. *)

val close_trace : unit -> unit
(** Flush and close a [trace_to_file] sink and reset the tracer to
    {!Trace.null}.  No-op otherwise. *)

val reset_metrics : unit -> unit
(** Zero every instrument of the registry and drop them from it
    ({!Metrics.reset_all}): the next snapshot lists only what components
    built after the reset register.  Drivers reset before building each
    run's topology. *)

(** {2 Packet capture sink}

    Like the tracer, the pcap sink is ambient: capture taps (transmit
    queues, impaired links, vSwitch edges) pick it up at construction, so
    a driver that wants a capture installs one before building the
    topology ([acdc_expt --pcap FILE] does). *)

val pcap : unit -> Pcap.t
val set_pcap : Pcap.t -> unit

val pcap_to_file : string -> unit
(** Open [path] (truncating, binary) and stream a capture to it; the
    format follows {!Pcap.format_of_path}.  Replaces any sink previously
    installed by [pcap_to_file]. *)

val close_pcap : unit -> unit
(** Flush and close a [pcap_to_file] sink and reset the sink to
    {!Pcap.null}.  No-op otherwise. *)

(** {2 Profiling}

    The profiler is ambient by construction — {!Prof} (= [Profcore]) keeps
    its accumulators in globals, and its spans sit where one of the
    ledger's eight layers calls the next, each paying one load-and-branch
    when it is off.  Drivers enable it for a whole run:

    {[
      Obs.Runtime.profile_to ~folded:"profile.folded" ();
      (* ... build topology, run ... *)
      Obs.Runtime.close_profile ()   (* writes the folded stacks *)
    ]} *)

val profile_to : ?folded:string -> unit -> unit
(** Reset all profiling state and enable span collection.  When [folded]
    is given, {!close_profile} writes flamegraph-compatible folded stacks
    there. *)

val profiling : unit -> bool
(** Whether span collection is currently enabled. *)

val close_profile : unit -> unit
(** Write the folded-stacks file if one was requested (and any spans were
    recorded), then disable collection.  Accumulated statistics survive —
    reports rendered afterwards still see them. *)

(** {2 Time-series export sink}

    Like the tracer, the time-series sink is ambient: a driver that wants
    CSV dumps sets a directory before running ([acdc_expt --timeseries DIR]
    does), and instrumented experiments hand their {!Timeseries.t} to
    {!export_timeseries} when the run ends — a no-op unless a sink is
    configured, so experiments always call it unconditionally. *)

val set_timeseries_sink : dir:string -> unit
val clear_timeseries_sink : unit -> unit

val export_timeseries : Timeseries.t -> unit
(** {!Timeseries.write_csv_dir} into the configured sink directory, or a
    no-op when none is set. *)

(** {2 In-band telemetry sink}

    The ambient {!Int_sink} receiving every INT stack the fabric's hosts
    strip.  Hosts pick it up per strip (not at construction), so enabling
    INT mid-process needs no rebuild; drivers reset it between runs like
    the metrics registry. *)

val int_sink : unit -> Int_sink.t
val reset_int_sink : unit -> unit

(** {2 Causal FCT attribution}

    The ambient {!Attrib} instance.  Send-decision points in the TCP
    endpoint, the AC/DC sender and the fabric hosts feed it when it is
    enabled ([Attrib.set_enabled (attrib ()) true] — the [--attrib] flag
    on the experiment driver does); disabled it costs the hot paths one
    load and one branch.  Drivers reset it between runs like the metrics
    registry. *)

val attrib : unit -> Attrib.t
val reset_attrib : unit -> unit
