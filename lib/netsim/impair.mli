(** Deterministic link-impairment layer: the adversarial network.

    An impairment wraps a link's delivery function — the [deliver] callback
    handed to {!Txq.create} or {!Switch.add_port} — without changing either
    component's interface.  Each packet crossing the wrapped link is
    independently subjected to:

    - {b loss}: silently discarded with probability [loss];
    - {b duplication}: delivered twice with probability [dup] (the second
      copy is a fresh {!Dcpkt.Packet.copy}, like a real duplicated frame);
    - {b corruption}: discarded with probability [corrupt], modelling a
      frame whose checksum no longer verifies — the NIC drops it before
      any protocol layer sees it;
    - {b feedback corruption}: with probability [strip_pack], a packet
      carrying AC/DC's PACK option loses it (single-field corruption that
      invalidates the option while the TCP checksum of our model still
      passes) — the pathology §3.2's cumulative counters are designed to
      survive;
    - {b reordering}: held back for a uniform extra delay in
      [0, reorder_delay) with probability [reorder], so later packets
      overtake it;
    - {b jitter}: a uniform delay in [0, jitter) added to every delivery.

    All randomness comes from a caller-supplied {!Eventsim.Rng}, so a run
    under impairment is exactly as reproducible as a clean one. *)

type config = {
  loss : float;
  dup : float;
  corrupt : float;
  strip_pack : float;
  reorder : float;
  reorder_delay : Eventsim.Time_ns.t;  (** max extra holding delay *)
  jitter : Eventsim.Time_ns.t;  (** max per-packet jitter *)
}

val clean : config
(** All probabilities zero: packets pass untouched. *)

val is_clean : config -> bool

val config_of_string : string -> (config, string) result
(** Parse a ["key=value,key=value"] spec, e.g.
    ["loss=0.01,dup=0.005,corrupt=0.001,strip_pack=0.02,reorder=0.05,reorder_delay_us=50,jitter_ns=500"].
    Unknown keys, malformed numbers and probabilities outside [0, 1] are
    errors.  Omitted keys default to {!clean}'s values. *)

val config_to_json : config -> Obs.Json.t
(** Deterministic key-ordered object — embedded in fuzz-run reports so a
    failing scenario is replayable from its artifact alone. *)

type t

val create :
  Eventsim.Engine.t ->
  ?name:string ->
  rng:Eventsim.Rng.t ->
  config:config ->
  deliver:(Dcpkt.Packet.t -> unit) ->
  unit ->
  t
(** Counters register under [impair.<name>.*] in the ambient
    {!Obs.Runtime.metrics}.

    Every impairment decision also emits an [Impaired] trace event on the
    ambient tracer, keyed by the packet id and labelled [impair.<name>] —
    one event per metrics increment, so traces and counters always agree.
    The ambient pcap sink records the frames the link carries forward —
    duplicates included, lost and corrupted frames excluded, exactly what
    a receiver-side tcpdump would show. *)

val deliver : t -> Dcpkt.Packet.t -> unit
(** Run one packet through the impairment; zero, one or two calls of the
    wrapped [deliver] result (possibly delayed). *)

val wrap :
  Eventsim.Engine.t ->
  ?name:string ->
  rng:Eventsim.Rng.t ->
  config:config ->
  (Dcpkt.Packet.t -> unit) ->
  Dcpkt.Packet.t -> unit
(** [wrap engine ~rng ~config deliver] is [deliver] behind an impairment —
    the composition point: pass the result wherever a link delivery
    callback is expected.  A {!is_clean} config returns [deliver] itself,
    so unimpaired topologies pay nothing. *)

(** Per-instance counters. *)

val offered : t -> int
val lost : t -> int
val duplicated : t -> int
val corrupted : t -> int
val pack_stripped : t -> int
val reordered : t -> int

(** {2 Ambient default}

    Like the ambient tracer in {!Obs.Runtime}: a driver (the CLI's
    [--impair] flag) installs a process-wide impairment spec before
    building topologies, and {!Fabric.Topology} consults it for every link
    it wires when the topology's own parameters don't specify one.  The
    seed makes the ambient impairment deterministic across runs. *)

val set_default : config:config -> seed:int -> unit
val clear_default : unit -> unit

val default : unit -> (config * Eventsim.Rng.t) option
(** The installed ambient config and the generator derived from its seed.
    Callers {!Eventsim.Rng.split} the returned generator once per link, so
    links created in a fixed order see reproducible impairments. *)
