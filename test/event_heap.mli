(** Array-backed binary min-heap of timestamped values — the test-side
    ordering oracle for {!Eventsim.Timing_wheel} and the reference engine
    in [test_eventsim.ml].

    Values sharing a timestamp come out in insertion order (FIFO): the heap
    orders first by time, then by a monotonically increasing sequence
    number. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit

val peek_time : 'a t -> int option
(** Timestamp of the earliest value, without removing it. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest value. *)

val pop_until : 'a t -> limit:int -> (int * 'a) option
(** [pop] only if the earliest value's time is [<= limit]; otherwise
    [None] and the value stays queued. *)

val clear : 'a t -> unit
