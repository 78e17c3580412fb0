(** Field-by-field comparison of two JSON artifacts (normally {!Report}
    output) with per-metric relative tolerances — the engine behind
    [bin/report_diff.exe], kept in the library so the regression gate
    itself is unit-tested.

    Leaves are matched by walking both documents in parallel; list elements
    that are objects with an ["id"] or ["name"] string field are paired by
    that field (so reordering scenarios doesn't misalign the diff),
    otherwise by index.  Each numeric leaf is judged by the most specific
    {!rule} whose [key] equals the leaf's field name. *)

type direction =
  | Higher_is_worse  (** latency-like: regression when it grows (ns_per_op) *)
  | Lower_is_worse  (** throughput-like: regression when it shrinks *)
  | Drift  (** no known better direction: changes beyond tolerance only warn *)
  | Ignore
      (** never compared (wall-clock leaves like the profile section's
          [total_ns]); not counted in [compared] *)

type rule = { key : string; tol : float; dir : direction }
(** [tol] is relative: 0.15 flags a >15% move in the bad direction. *)

val default_rules : rule list
(** ns_per_op / wall_s / p50..p99.9 / max / mean higher-is-worse;
    events_per_sec and goodput-like keys lower-is-worse; see the
    implementation for the exact table. *)

type severity = Regression | Warning | Info

type finding = {
  path : string;  (** e.g. [scenarios[smoke].events_per_sec] *)
  severity : severity;
  message : string;
}

type outcome = {
  findings : finding list;  (** document order *)
  compared : int;  (** numeric leaves compared *)
  regressions : int;
  warnings : int;
}

val diff : ?rules:rule list -> ?default_tol:float -> base:Json.t -> current:Json.t -> unit -> outcome
(** [rules] (default {!default_rules}) are consulted most-specific-first:
    the first rule whose [key] equals the leaf name wins; numeric leaves
    with no rule get [{tol = default_tol; dir = Drift}] ([default_tol]
    defaults to 0.15).  Non-numeric mismatches, missing fields and type
    changes produce warnings; fields only in [current] — including a
    section that was [null] in [base] — produce info. *)

val parse_rule : string -> (rule, string) result
(** ["key=0.5"] or ["key=0.5:higher"|":lower"|":drift"|":ignore"] — the
    [--tol] command-line syntax. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Human-readable listing, regressions first. *)
