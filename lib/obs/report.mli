(** Structured run reports: one JSON artifact per run bundling the run
    configuration, final metric snapshot, percentile summaries and
    (embedded or referenced) time-series — the machine-readable record a
    regression gate ({!Diff}, [bin/report_diff.exe]) can compare across
    commits.

    Everything in a report is deterministic for a seeded run unless the
    caller explicitly adds wall-clock quantities (e.g. [wall_s]). *)

type t

val create : id:string -> t
(** An empty ["acdc-report/1"] report. *)

val add_config : t -> string -> Json.t -> unit
(** Run parameters (topology, durations, scheme, seed...). *)

val add_scalar : t -> string -> float -> unit
val add_int : t -> string -> int -> unit
(** Headline numbers (aggregate goodput, drop counts, wall time...). *)

val summary : ?unit_label:string -> Dcstats.Samples.t -> Json.t
(** [count], then [unit] if given, then [mean], [min], [p50], [p95],
    [p99], [p99.9] and [max] of an exact sample set (only [count] when it
    is empty): the leaf names {!Diff.default_rules} gate. *)

val add_samples : t -> name:string -> ?unit_label:string -> Dcstats.Samples.t -> unit
(** Add the {!summary} of a sample set under [percentiles.<name>]. *)

val set_metrics : t -> Metrics.t -> unit
(** Snapshot the registry now (counters summed, gauges maxed). *)

val set_profile : t -> Json.t -> unit
(** Attach a profiling section (normally {!Prof.to_json}); rendered as a
    trailing ["profile"] field.  Reports without one are unchanged. *)

val set_int : t -> Json.t -> unit
(** Attach an in-band telemetry section (normally {!Int_sink.to_json});
    rendered as a trailing ["int"] field after [profile].  Reports
    without one are unchanged. *)

val set_fct_attrib : t -> Json.t -> unit
(** Attach a causal FCT-attribution section (normally {!Attrib.to_json});
    rendered as a trailing ["fct_attrib"] field after [int].  Reports
    without one are unchanged. *)

val embed_timeseries : t -> Timeseries.t -> unit
(** Inline every channel's points into the report. *)

val to_json : t -> Json.t
(** Sections in fixed order: schema, id, config, scalars, percentiles,
    metrics, timeseries, then [profile], [int] and [fct_attrib] when
    attached — deterministic for deterministic inputs. *)

val write : t -> path:string -> unit
(** Pretty-printed JSON to [path].  Raises [Sys_error] on unwritable
    paths. *)

(** {2 Corpus reading and merging}

    The experiment farm stores one report artifact per scenario and merges
    them into a single corpus document; the reader/merger live here so the
    corpus format is owned by the same module that owns the per-run
    format. *)

val read_file : path:string -> (Json.t, string) result
(** Parse any report-shaped artifact ([acdc-report/1], [acdc-farm-meta/1],
    ...) back into JSON.  [Error] on unreadable files, parse failures, or
    documents without a string ["schema"] field. *)

val merge_corpus : ?extra:(string * Json.t) list -> (string * Json.t) list -> Json.t
(** [merge_corpus entries] bundles [(scenario_id, body)] pairs into one
    ["acdc-corpus/1"] document.  Entries are sorted by id (stable), so the
    output is byte-identical however the inputs were produced or ordered;
    each body object's fields are inlined after its ["id"].  [extra]
    fields (e.g. the code fingerprint) follow ["schema"]. *)
