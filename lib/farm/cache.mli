(** The on-disk result store under [<root>/cache/<key>/].

    One directory per content-addressed key, holding [report.json] (the
    scenario's acdc-report/1 artifact), [meta.json] (provenance: scenario
    identity, canonical config, code fingerprint, wall time) and
    [log.txt] (the child process's combined stdout/stderr), plus any
    extra artifacts the scenario left in its scratch directory.  Entries
    are immutable once stored: a cache hit re-reads the first run's bytes,
    which is what makes repeated farm runs byte-identical. *)

type entry = { key : string; meta : Obs.Json.t }

val report_path : string -> string -> string
(** [report_path root key] is the entry's stored [report.json]. *)

val mkdir_p : string -> unit
val rm_rf : string -> unit

val find : string -> key:string -> entry option
(** [Some] iff both [report.json] and a parseable [meta.json] exist. *)

val store : string -> key:string -> src:string -> unit
(** Move the scratch directory [src] (which must already contain
    [report.json] and [meta.json]) into place as [<root>/cache/<key>].
    If the entry already exists the scratch copy is discarded — first
    store wins, keeping cached bytes stable. *)

val list : string -> entry list
(** All entries, sorted by key. *)

val gc : string -> live:string list -> string list
(** Remove every entry whose key is not in [live]; returns the removed
    keys, sorted. *)
