(** A metrics registry: named counters and gauges with near-zero hot-path
    cost.

    A counter or gauge is one mutable [int] field; incrementing allocates
    nothing.  Components create their instruments once (at construction)
    and bump them on the hot path; snapshots walk the registry off the hot
    path.

    Several instruments may share a name — e.g. every switch of a topology
    registers [switch.<name>.drops], and two topologies built in the same
    process reuse names.  Snapshots merge same-name instruments: counters
    are summed, gauges take the maximum.  Each component keeps its private
    handle, so per-instance accessors stay exact. *)

type t
(** A registry. *)

type counter
(** Monotonically increasing (until {!reset_all}) integer. *)

type gauge
(** Last-value / high-water integer. *)

val create : unit -> t

(** {2 Instruments} *)

val counter : t -> string -> counter
(** Register a fresh counter under [name] (dotted paths encouraged,
    e.g. ["switch.left.drops"]). *)

val gauge : t -> string -> gauge

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> int -> unit
val set_max : gauge -> int -> unit
(** Keep the maximum of the current and given value (high-water marks). *)

val gauge_value : gauge -> int

(** {2 Scopes}

    A scope is a name prefix, so a component can take a scope and name its
    instruments locally. *)

type scope

val scope : t -> string -> scope
val sub : scope -> string -> scope
val scope_counter : scope -> string -> counter
(** [scope_counter s n] = [counter t (prefix ^ "." ^ n)]. *)

val scope_gauge : scope -> string -> gauge

(** {2 Snapshots} *)

val counters : t -> (string * int) list
(** Merged (summed) counter values, sorted by name. *)

val gauges : t -> (string * int) list
(** Merged (max) gauge values, sorted by name. *)

val find : t -> string -> int option
(** Merged value of the named counter (or gauge, if no counter matches). *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}}], keys sorted — deterministic. *)

val reset_all : t -> unit
(** Zero every instrument, then drop them all from the registry
    (per-run isolation between experiments): snapshots list only
    instruments registered since.  Handles that live components still
    hold keep counting from zero, unlisted. *)
