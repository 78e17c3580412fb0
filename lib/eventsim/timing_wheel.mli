(** Hierarchical timing wheel: the simulator's event queue.

    Seven fixed-slot wheels of 32 slots each cover a horizon of [32^7] ns
    (~34 virtual seconds); wheel [l] has slot width [32^l] ns, so the
    innermost wheel resolves single nanoseconds and each outer wheel is
    32x coarser.  Events beyond the horizon sit in an unsorted overflow
    list and are migrated into the wheels once the clock catches up.
    Per-level occupancy bitmaps make "next nonempty slot" a
    count-trailing-zeros, so push and pop are O(1) amortized regardless
    of population.

    Each queued event is one {!cell}: its due time, a handler and the
    handler's two arguments.  The cell is the only per-event record in
    the simulator — {!Engine} dispatches by reading a popped cell,
    releasing it, and calling its handler.  Cells are pooled: [release]
    returns one to the wheel's free list and [push] reuses it, so once
    the pool has grown to the peak population push, pop and release
    allocate nothing, cascades included ([test/test_alloc.ml] checks it).

    Determinism contract: extraction order is time first, then insertion
    order (FIFO within an instant).  The differential harness in
    [test/test_eventsim.ml] enforces it by driving the wheel and a
    test-side binary-heap oracle with identical randomized scripts.

    Unlike a heap, extraction is monotonic: [push] requires [time] to be
    no earlier than the last popped time (the wheel's position).  The
    engine guarantees this — scheduling in the past is rejected one layer
    up. *)

type t

type cell = private {
  mutable c_time : Time_ns.t;  (** due time *)
  mutable c_fn : Obj.t -> Obj.t -> unit;  (** the handler *)
  mutable c_a : Obj.t;  (** its first argument *)
  mutable c_b : Obj.t;  (** its second argument *)
  mutable c_next : cell;  (** slot, overflow or free-list link *)
}

val nil : cell
(** The "no cell" sentinel {!pop_until} returns. *)

val create : unit -> t

val length : t -> int

val push : t -> time:Time_ns.t -> ('a -> 'b -> unit) -> 'a -> 'b -> unit
(** [push t ~time f a b] queues a cell that calls [f a b] when fired.
    Raises [Invalid_argument] if [time] is before the wheel's position
    (the time of the last extraction). *)

val pop_until : t -> limit:Time_ns.t -> cell
(** Remove and return the earliest cell if its time is [<= limit];
    otherwise return {!nil} and leave it queued.  The caller reads the
    cell, then hands it back with {!release}. *)

val release : t -> cell -> unit
(** Return a popped cell to the pool, dropping its arguments. *)

val free_cells : t -> int
(** Size of the cell pool — how many previously used cells are parked
    awaiting reuse.  Exposed for the reclamation stress tests. *)

val overflow_length : t -> int
(** Events currently parked beyond the wheel horizon. *)
