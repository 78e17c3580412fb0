(** Self-profiling core: monotonic-clock spans, per-layer accumulators
    (count, total/max ns, GC minor+major allocation deltas), and a
    folded-stack tree built from span nesting.

    The sites are the performance ledger's eight layers ([BENCHMARK.json]
    [per_layer], [benchmark/lib/wiring.ml]), so a flamegraph frame and a
    ledger row talk about the same thing.  Spans open only where one layer
    calls the next:

    - [eventsim.engine]: [Eventsim.Engine]'s dispatch of every event; it
      also feeds the {!pending_max} gauge;
    - [netsim.txq]: a host's NIC enqueue ([Fabric.Host]'s emit);
    - [netsim.switch]: the link deliveries into [Netsim.Switch.input] that
      [Fabric.Topology] builds (switch-port enqueues count here);
    - [vswitch.datapath]: [Fabric.Host]'s two [Vswitch.Datapath] calls;
    - [acdc.sender] / [acdc.receiver]: [Acdc]'s processor glue;
    - [tcp.endpoint]: [Fabric.Host]'s demux into [Tcp.Endpoint.input];
    - [fabric.conn]: [Fabric.Conn]'s scheduled connect, established
      callbacks and teardown.

    [Obs.Prof] re-exports this module with JSON and folded-stack renderers
    on top.

    Hot-path contract: guard every span with the {!on} flag so the
    disabled path is exactly one load and one branch —

    {[
      if !Profcore.on then begin
        let tok = Profcore.enter Profcore.Site.netsim_txq in
        ... work ...;
        Profcore.leave tok
      end
      else ... work ...
    ]}

    The enabled path performs no OCaml allocation beyond [Gc.counters]'s
    own result, whose exact cost is calibrated at startup and subtracted
    from every span's allocation delta.  Minor words are exact (read with
    [Gc.minor_words]): the words the span's code allocated, whatever the
    process allocated before.  Counts and allocation words are
    deterministic for a seeded run; ns fields carry wall-clock noise. *)

external clock_ns : unit -> int = "prof_clock_ns" [@@noalloc]
(** CLOCK_MONOTONIC in nanoseconds as an immediate int (no boxing). *)

(** The static layer registry.  Every span is attributed to one of these
    sites; their declaration order ([BENCHMARK.json]'s) is the
    deterministic key order of all rendered profiles. *)
module Site : sig
  type t = private int

  val eventsim_engine : t
  val netsim_txq : t
  val netsim_switch : t
  val vswitch_datapath : t
  val acdc_sender : t
  val acdc_receiver : t
  val tcp_endpoint : t
  val fabric_conn : t

  val count : int
  val name : t -> string
  val all : t list
end

val on : bool ref
(** The enable flag, exposed as a ref so call sites pay one load + branch
    when profiling is off.  Mutate through {!set_enabled}. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Flip profiling on/off.  Clears the live span stack (so spans never
    straddle an enable edge) but keeps accumulated statistics: a driver
    can disable profiling before auxiliary work and still render the
    numbers gathered so far. *)

val reset : unit -> unit
(** Zero every accumulator, gauge and the folded tree. *)

val enter : Site.t -> int
(** Open a span; returns a token for {!leave}.  Only call when {!on} is
    true. *)

val leave : int -> unit
(** Close spans down to [token] — normally exactly the one [enter]
    opened, but unwinds any deeper frames left by an exception, so a
    protected outer span restores balance. *)

val with_span : Site.t -> (unit -> 'a) -> 'a
(** Exception-safe span around [f] (no-op wrapper when disabled).  The
    convenience form for cold paths; hot paths use {!enter}/{!leave}
    under an {!on} guard to avoid the closure. *)

val depth : unit -> int
(** Current span-stack depth (0 when balanced at top level). *)

val note_pending : int -> unit
(** Feed the pending-events gauge (keeps the high-water mark); the engine
    calls it at each dispatch with the events still queued. *)

val touched : unit -> bool
(** True once any span has completed since the last {!reset}. *)

type site_stats = {
  s_name : string;
  s_count : int;
  s_total_ns : int;  (** inclusive; wall-clock noisy *)
  s_max_ns : int;  (** wall-clock noisy *)
  s_minor_words : float;  (** deterministic for a seeded run *)
  s_major_words : float;  (** deterministic for a seeded run *)
}

val snapshot : unit -> site_stats list
(** One entry per layer (zero entries included), in registry order. *)

val pending_max : unit -> int
(** The most events pending at any dispatch since the last {!reset}: the
    ledger's [eventsim.engine.pending_max]. *)

val events_per_sec : unit -> float
(** Engine dispatch throughput derived from the [eventsim.engine] spans
    (count / inclusive seconds); 0 before any dispatch.  Wall-clock
    noisy. *)

val folded : unit -> (string * int) list
(** Flamegraph-compatible folded stacks: [("a;b;c", self_ns)] per
    distinct span path, sorted by path.  Self ns is inclusive minus
    children, clamped at 0. *)
