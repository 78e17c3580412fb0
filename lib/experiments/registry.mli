(** Name -> experiment runner, for the CLI and the experiment farm.

    Each runner executes the experiment at its default (scaled-down)
    parameters and prints the paper-shaped rows/series to stdout; it may
    also add rows to the run's report, which the driver creates before
    the first id and completes with per-id timings and observer sections.

    Ids are the stable scenario identity the farm's content-addressed
    cache keys hang off: registration is collision-checked, and every
    entry carries a canonical JSON [config] describing the registry-level
    parameter overrides it applies (e.g. MTU variants of one figure). *)

type entry = { id : string; title : string; config : Obs.Json.t; run : Obs.Report.t -> unit }

val register :
  ?config:Obs.Json.t -> id:string -> title:string -> (Obs.Report.t -> unit) -> unit
(** Add an experiment.  Raises [Invalid_argument] if [id] is already
    registered — duplicate ids would silently shadow each other in lookups
    and alias distinct scenarios to one farm cache entry.  [config]
    defaults to the empty object. *)

val all : unit -> entry list
(** Registration order. *)

val find : string -> entry option
val ids : unit -> string list
