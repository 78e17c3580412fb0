(** A schedulable unit of work for the farm: something that runs as a
    child process and leaves one report artifact behind.

    Identity is content-addressed: the cache key of a scenario is the
    digest of its canonical description (id, kind, seed, canonicalized
    config JSON, command-line arguments) plus the code fingerprint of the
    executable that would run it — so a scenario re-runs exactly when its
    parameters, its arguments or the simulator binary change, and never
    otherwise. *)

type t = {
  id : string;  (** unique stable id, e.g. ["fig8"], ["fuzz-0007"] *)
  kind : string;  (** ["figure"], ["fuzz"] *)
  seed : int;
  config : Obs.Json.t;  (** scenario parameters, canonicalized for hashing *)
  argv : report:string -> dir:string -> string list;
      (** command writing the report artifact to [report]; [dir] is a
          scratch directory the process may leave extra artifacts in
          (cached alongside the report). *)
}

val canonicalize : Obs.Json.t -> Obs.Json.t
(** Recursively sort object fields by key, so two configs that differ only
    in field order serialize — and therefore hash — identically. *)

val key : fingerprint:string -> t -> string
(** Hex digest naming this scenario's cache entry: [fingerprint] with
    [(id, kind, seed, canonicalize config)] and the arguments of
    [argv ~report:"report.json" ~dir:"."] after the executable. *)

val fingerprint_of_exe : string -> string
(** Hex digest of the binary's contents — the "code version" input to
    every cache key.  Raises [Sys_error] if it is missing. *)

(** {2 The built-in scenario sets} *)

val figures : exe:string -> unit -> t list
(** One scenario per {!Experiments.Registry} entry, run as
    [exe <id> --report <path>]; [smoke] also writes its folded profile
    stacks, trace and pcapng capture into [<dir>]. *)

val fuzz : exe:string -> seeds:int list -> t list
(** One scenario per seed, run as [exe --fuzz 1 --seed <n> --report <path>].
    A scenario whose invariants are violated exits nonzero and is not
    cached, so it re-runs (and keeps failing CI) until fixed. *)
