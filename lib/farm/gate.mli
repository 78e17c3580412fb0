(** A tiny marker file recording whether the CI regression gate actually
    ran.  The gate compares the current smoke report against a baseline
    artifact recovered from a previous main run; when no baseline can be
    fetched the gate silently degrades to a warning — this marker is how
    [farm.exe status] makes that degradation visible instead of silent. *)

type status = { ran : bool; detail : string }

val record : root:string -> ran:bool -> detail:string -> unit
(** Write [<root>/gate.json]. *)

val read : root:string -> status option

val describe : status option -> string
(** One status line, e.g. ["regression gate: ran (baseline run 42)"] or
    ["regression gate: NOT RUN — never recorded"]. *)
