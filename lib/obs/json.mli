(** A minimal JSON document, enough for metric snapshots, trace lines,
    run reports and bench summaries.  No external dependency: the container
    image has no yojson, so both the emitter and the parser are hand-rolled
    here. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of t_float
  | String of string
  | List of t list
  | Obj of (string * t) list

and t_float = float
(** Non-finite floats are emitted as [null] (JSON has no NaN/inf). *)

val to_string : t -> string
(** Compact (single-line) rendering — one trace event per line stays one
    line.  Key order in [Obj] is preserved, so output is deterministic.
    Strings are emitted as valid JSON whatever their bytes: control
    characters (U+0000–U+001F) are [\u]-escaped, well-formed UTF-8
    sequences pass through, and any byte that is not part of a valid UTF-8
    sequence is replaced with U+FFFD so the output is always valid UTF-8. *)

val to_string_pretty : t -> string
(** Two-space indented rendering for files meant to be read by humans
    (run reports, the farm corpus). *)

val to_channel : out_channel -> t -> unit
(** [to_string_pretty] followed by a newline. *)

(** {2 Scalar writers}

    The pieces {!to_string} is made of, for encoders that write a
    document straight into a buffer without building a [t] (the JSONL
    trace).  None of them allocates, except [add_float] and the [\u]
    escape of a control character. *)

val add_int : Buffer.t -> int -> unit
(** Append exactly what [string_of_int] prints. *)

val add_string : Buffer.t -> string -> unit
(** Append a quoted JSON string, escaped as {!to_string} escapes it. *)

val add_float : Buffer.t -> float -> unit
(** Append [%.12g], or [null] for a non-finite float. *)

val of_string : string -> (t, string) result
(** Strict recursive-descent parser for the full JSON grammar (used by
    [report_diff] and the round-trip tests).  Numbers without a fraction or
    exponent parse as [Int] (falling back to [Float] on overflow); [\uXXXX]
    escapes — including surrogate pairs — decode to UTF-8.  [Error msg]
    carries the byte offset of the failure.

    Round-trip caveat: [to_string (Float 2.0)] prints ["2"], which parses
    back as [Int 2] — whole-valued floats lose their floatness, which every
    consumer in this repo treats numerically anyway. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first binding of [key]; [None] for
    missing keys or non-objects. *)
