(** Orchestration: plan (hit/miss against the cache), execute the misses
    across worker processes, store the results, and merge the cached
    corpus into [<root>/corpus.json] in deterministic (id-sorted) order —
    so the merged output is byte-identical regardless of worker count or
    completion order, and a fully-cached run performs no simulation at
    all. *)

type plan_item = { scenario : Scenario.t; key : string; cached : bool }

type failure = { id : string; exit_code : int; log : string }

type summary = {
  total : int;
  hits : int;
  executed : int;
  failures : failure list;
  corpus_path : string;
}

val plan : root:string -> fingerprint:string -> Scenario.t list -> plan_item list

val run : ?jobs:int -> root:string -> fingerprint:string -> Scenario.t list -> summary
(** The whole cycle.  Failed scenarios (nonzero exit, or no report
    written) are not cached — their scratch dirs survive under
    [<root>/tmp/] for inspection and they re-run next time.  The corpus
    holds one entry per *cached* scenario: its kind, seed, key, canonical
    config and stored report.  Wall-clock provenance stays in each
    entry's [meta.json], so the merged bytes never depend on
    scheduling. *)
