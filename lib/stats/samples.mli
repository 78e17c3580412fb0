(** A growable collection of float samples with exact order statistics.

    Backing store is a dynamic array; percentile queries sort a copy once
    and cache it until the next insertion.  Suited to the 1e3-1e7 samples an
    experiment produces. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val is_empty : t -> bool

val percentile : t -> float -> float
(** [percentile t 99.9] is the 99.9th percentile (linear interpolation
    between closest ranks).  Raises [Invalid_argument] if empty or the rank
    is outside [0, 100]. *)

val median : t -> float
val mean : t -> float
val min : t -> float
val max : t -> float

val to_sorted_array : t -> float array
val iter : t -> f:(float -> unit) -> unit
