(** The discrete-event simulation core.

    An engine owns a virtual clock and an event queue.  Components schedule
    closures at absolute or relative times; [run] drains the queue in
    timestamp order, advancing the clock.  Timers are cancellable handles on
    top of the same queue.

    {2 Determinism contract}

    Events fire in timestamp order; events sharing an instant fire in the
    order they were scheduled (FIFO).  [run ~until] fires every event with
    time [<= until] — an event scheduled {e exactly at} [until] fires, it
    does not stay queued — and leaves the clock at [until] with strictly
    later events still pending.  The queue is the hierarchical
    {!Timing_wheel} (O(1) amortized).  The differential harness in
    [test/test_eventsim.ml] holds this engine to the contract against a
    small reference engine built on a binary heap that lives only in the
    test tree.

    {2 Allocation}

    Every event is one pooled {!Timing_wheel.cell}: its due time, a
    handler and the handler's two arguments.  A closure passed to
    {!schedule} rides one fixed handler and a timer handle another, so
    all three entry points share the cell and its pool, and dispatch and
    scheduling allocate nothing once the pool has grown to the peak
    number of pending events.  What does allocate is the caller's: the
    closure passed to {!schedule}, and the 3-word handle {!timer_after}
    returns.  [test/test_alloc.ml] holds [schedule_static_after] and
    [schedule_after] of a preallocated closure (each plus [run]) under
    one minor word per event, and [timer_after] + [cancel] + [run] at
    the handle's 3 words. *)

type t

type timer
(** A cancellable scheduled event. *)

val create : unit -> t

val now : t -> Time_ns.t
(** Current virtual time. *)

val schedule : t -> at:Time_ns.t -> (unit -> unit) -> unit
(** Schedule a callback at an absolute time.  Scheduling in the past raises
    [Invalid_argument]. *)

val schedule_after : t -> delay:Time_ns.t -> (unit -> unit) -> unit
(** Schedule relative to [now]. *)

(** {2 Static-site scheduling (allocation-free)}

    [schedule] captures its callback as a closure — one heap block per
    event.  For hot sites where the code to run is the same every time
    (txq tx-complete, link delivery, timer fire) register the code {e
    once} as a handler and schedule it with its arguments; the engine
    stores handler and arguments in the event's pooled cell, so a
    steady-state simulation schedules packets without allocating.

    A handler must be created at module initialization (once per call
    site), never per event — that would just be a closure with extra
    steps. *)

type ('a, 'b) handler

val handler : ('a -> 'b -> unit) -> ('a, 'b) handler
(** Register a static call site.  The function must be monomorphic at its
    use sites; the handler fixes ['a] and ['b] for every later
    [schedule_static]. *)

val schedule_static : t -> at:Time_ns.t -> ('a, 'b) handler -> 'a -> 'b -> unit
(** Like [schedule] but allocation-free: the two arguments ride in the
    event's pooled cell.  Pass [()] for an unused slot. *)

val schedule_static_after : t -> delay:Time_ns.t -> ('a, 'b) handler -> 'a -> 'b -> unit

val timer_after : t -> delay:Time_ns.t -> (unit -> unit) -> timer
(** Like [schedule_after] but returns a handle that can be cancelled.
    The event's cell is pooled; only the handle itself is allocated.  A
    negative [delay] raises [Invalid_argument], as [schedule_after] does. *)

val cancel : timer -> unit
(** Cancelling a fired or already-cancelled timer is a no-op.  The dead
    event stays queued (and counted by [pending_events]) until its due
    time, when it is discarded without firing. *)

val timer_pending : timer -> bool

val run : ?until:Time_ns.t -> t -> unit
(** Process events in order until the queue is empty, or until every
    remaining event is strictly later than [until].  Events at exactly
    [until] fire; afterwards the clock is left at [until] (even if the
    queue emptied earlier) with strictly later events still queued. *)

val step : t -> bool
(** Process a single event.  Returns [false] if the queue was empty. *)

val pending_events : t -> int

val free_events : t -> int
(** Size of the engine's pool of event cells — exposed for the
    reclamation stress tests. *)

val events_processed : t -> int
(** Events fired by this engine so far. *)

val total_events_processed : unit -> int
(** Events fired across every engine in the process — the bench's
    events/sec denominator (experiments create many engines). *)
