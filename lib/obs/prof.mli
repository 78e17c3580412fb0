(** Self-profiling: span attribution, allocation accounting, and derived
    gauges, re-exported from the bottom-layer [Profcore] (which lives below
    [Eventsim] so the engine's dispatch can carry the [eventsim.engine]
    span) together with the renderers that need [Obs.Json].

    See {!Profcore} for the span API ([enter] / [leave] / [with_span]), the
    {!Profcore.Site} registry (the performance ledger's eight layers) and
    where each layer's span opens, and the accumulator snapshots. *)

include module type of Profcore

val to_json : unit -> Json.t
(** The report's [profile] section:

    {[ { "sites": { "<site>": { count, minor_words, major_words,
                                 total_ns, max_ns }, ... },
         "gauges": { pending_max, events_per_sec } } ]}

    Sites are the ledger's layers in registry order (deterministic), zero
    rows included.
    [count], [minor_words] and [major_words] are deterministic for a seeded
    run; [total_ns] / [max_ns] / [events_per_sec] are wall-clock and get
    loose or ignoring {!Diff} rules. *)

val baselines : unit -> (string * float) list
(** Hot-path cost baselines derived from the accumulators:
    [ns_per_event] ([eventsim.engine]), [ns_per_packet] and
    [minor_words_per_packet] ([vswitch.datapath], both directions).  A key is omitted
    when its denominator is zero, so an unprofiled or packet-free run
    contributes nothing. *)

val folded_to_string : unit -> string
(** Flamegraph-compatible folded stacks ("a;b;c self_ns" lines), sorted by
    stack path. *)

val write_folded : path:string -> unit
(** {!folded_to_string} to a file (truncating). *)
