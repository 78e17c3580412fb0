(** In-band network telemetry (INT) metadata.

    Switches push one {!hop} record per traversed hop onto a packet's
    [int_stack] (see {!Packet.t}): ingress/egress timestamps, the queue
    depth the packet found at enqueue, and the port's estimated service
    rate.  The receiving vSwitch strips the stack and feeds it to the
    observability sinks and to [Acdc.Int_feedback], giving enforced CC
    laws the fabric-interior view PowerTCP-style window laws need.

    The model record keeps full-precision nanosecond timestamps; the wire
    encoding (a TCP option, see {!option_kind}) carries the quantized
    sojourn/queue/rate fields only.  Quantization is idempotent, so a
    decoded hop (ingress 0, sojourn in [egress_ns], whole carrier units)
    re-encodes byte-identically. *)

type hop = {
  hop_id : int;  (** switch identity from {!register}, 8 bits on the wire *)
  port : int;  (** egress port index on that switch, 8 bits on the wire *)
  ingress_ns : int;  (** virtual-clock time the hop admitted the packet *)
  egress_ns : int;  (** serialization-complete time; 0 while still queued *)
  qbytes : int;  (** egress-queue depth found at enqueue, bytes *)
  svc_bps : int;  (** per-port service-rate estimate, bits/sec *)
}

val sojourn_ns : hop -> int
(** [egress_ns - ingress_ns]: queueing plus serialization time at the hop. *)

(** {2 Global enable}

    Stamping costs bytes on every packet, so it is off by default; the
    [--int] flag on the experiment driver and the INT figures flip it. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {2 Hop identity}

    Switches register by name at creation and stamp the returned id.
    Registration is name-keyed and idempotent, so re-creating the same
    topology yields the same ids and seeded runs stay deterministic. *)

val register : name:string -> int
(** The id for [name], assigning the next free one (wrapping at 256) on
    first sight. *)

val name : int -> string
(** The registered name for an id, or ["hop<id>"] if unknown (e.g. a hop
    decoded from a foreign capture). *)

val hop_label : hop -> string
(** ["<name>:<port>"] of the hop's switch ({!name} of [hop_id]) and port:
    how reports, timeseries channels and [trace_query] name one switch
    port of an INT path. *)

val reset : unit -> unit
(** Forget all registrations and re-enable from a clean slate (test
    isolation). *)

(** {2 Wire encoding constants}

    The stack rides in a TCP option: kind {!option_kind}, length, one
    count byte (bit 7 = the "hop count exceeded" flag, low bits = hop
    count), then {!hop_wire_bytes} per hop — hop id (1), port (1),
    sojourn ns (4, saturating), queue bytes in {!qbytes_unit} units (2,
    saturating), service rate in {!svc_unit} bits/sec units (2,
    saturating).  TCP options are capped at 40 bytes, so a switch that
    finds no room sets the exceeded flag instead of stamping — standard
    INT semantics for running out of metadata space. *)

val option_kind : int
(** 254: the second RFC 4727 experimental TCP option kind (PACK uses
    253). *)

val hop_wire_bytes : int

val shim_wire_bytes : hops:int -> int
(** Bytes the INT option occupies for a stack of [hops] entries
    (kind + length + count byte + per-hop payload). *)

val qbytes_unit : int
(** 256: queue depth is carried in 256-byte units. *)

val svc_unit : int
(** 10_000_000: service rate is carried in 10 Mbit/s units. *)

(** {2 Wire fields}

    What the wire carries for a hop besides its 8-bit id and port. *)

val wire_sojourn_ns : hop -> int
(** {!sojourn_ns}, saturated to [[0, 2^32 - 1]]. *)

val wire_qbytes : hop -> int
(** [qbytes] in {!qbytes_unit}s, rounded down, saturated at [0xFFFF]. *)

val wire_svc : hop -> int
(** [svc_bps] in {!svc_unit}s, rounded down, saturated at [0xFFFF]. *)
