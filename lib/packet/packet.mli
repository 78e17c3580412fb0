(** The simulator's unit of transmission: one TCP/IP segment.

    Because Open vSwitch sits above TSO/GRO, AC/DC operates on segments
    rather than wire packets; we model the same granularity.  Fields the
    vSwitch may rewrite (ECN bits, receive window, options) are mutable —
    the same packet value flows through the whole pipeline, exactly like an
    [skb] in the kernel. *)

(** IP-header ECN codepoint. *)
type ecn = Not_ect | Ect0 | Ect1 | Ce

type tcp_option =
  | Mss of int
  | Window_scale of int  (** shift count, SYN/SYN-ACK only *)
  | Pack of { total_bytes : int; marked_bytes : int }
      (** AC/DC Piggy-backed ACK: cumulative bytes received / bytes received
          with CE, reported by the AC/DC receiver module (§3.2). *)
  | Sack of (int * int) list
      (** RFC 2018 selective acknowledgement blocks ([start, stop)); the
          paper's hosts run with [tcp_sack = 1]. *)

type t = {
  id : int;  (** unique per simulation run, for tracing *)
  key : Flow_key.t;
  mutable seq : int;  (** sequence number of the first payload byte *)
  mutable ack : int;  (** cumulative acknowledgement number *)
  mutable syn : bool;
  mutable fin : bool;
  mutable rst : bool;
  mutable has_ack : bool;
  mutable ece : bool;  (** TCP ECN-Echo flag *)
  mutable cwr : bool;  (** TCP Congestion-Window-Reduced flag *)
  mutable ecn : ecn;  (** IP ECN codepoint *)
  mutable vm_ect : bool;
      (** AC/DC's reserved header bit: set by the sender module when the
          VM's own stack marked the packet ECN-capable, so edges can restore
          the original setting (§3.2). *)
  mutable rwnd_field : int;  (** 16-bit window field, before scaling *)
  mutable options : tcp_option list;
  mutable int_stack : Int_meta.hop list;
      (** in-band telemetry hops, newest-first (the head is the hop the
          packet is currently transiting); pushed by switches, stripped by
          the receiving vSwitch before the guest sees the packet *)
  mutable int_exceeded : bool;
      (** set by a switch that found no room to stamp another hop *)
  payload : int;  (** payload bytes (0 for pure ACKs) *)
  mutable sent_at : Eventsim.Time_ns.t;  (** stamped by the sending endpoint *)
}

val reset_ids : unit -> unit
(** Reset the global id counter (test isolation). *)

val dummy : t
(** A shared placeholder (id 0) for initializing pooled packet rings.
    Constructed without touching the id counter, so pool setup cannot
    perturb seeded packet-id sequences.  Never transmit it. *)

val make :
  key:Flow_key.t ->
  ?seq:int ->
  ?ack:int ->
  ?syn:bool ->
  ?fin:bool ->
  ?rst:bool ->
  ?has_ack:bool ->
  ?ecn:ecn ->
  ?rwnd_field:int ->
  ?options:tcp_option list ->
  payload:int ->
  unit ->
  t

val copy : t -> t
(** A field-for-field copy with a fresh [id] — the model of a duplicated
    wire frame.  Because fields are mutable and the same packet value flows
    through the whole pipeline, fault-injection layers must deliver a
    [copy] rather than aliasing the original. *)

val header_bytes : t -> int
(** Ethernet + IP + TCP header bytes including options. *)

val wire_size : t -> int
(** [header_bytes + payload]: the size that occupies link and buffer. *)

val seq_end : t -> int
(** Sequence number just past this segment's payload (SYN/FIN occupy one
    sequence number each, per TCP). *)

val is_ect : t -> bool
(** ECN-capable transport (ECT(0), ECT(1) or CE). *)

val find_option : t -> f:(tcp_option -> 'a option) -> 'a option
val set_option : t -> tcp_option -> unit
(** Replace any same-constructor option with the given one. *)

val remove_pack : t -> unit

val wscale : t -> int option
(** Window-scale shift carried in a SYN/SYN-ACK, if any. *)

val sack_blocks : t -> (int * int) list
(** SACK blocks, or [] if none. *)

val pack_info : t -> (int * int) option
(** [(total_bytes, marked_bytes)] from a PACK option, if present. *)

(** {2 INT hop stack}

    Per-hop telemetry stamped by switches (see {!Int_meta}).  The stack
    counts toward [header_bytes]/[wire_size], so stamped packets really
    grow on the wire and in buffers. *)

val can_add_int_hop : t -> bool
(** Whether one more hop still fits the 40-byte TCP option space
    alongside the packet's other options (padding included). *)

val add_int_hop : t -> Int_meta.hop -> unit
(** Push a hop, or set [int_exceeded] when {!can_add_int_hop} is false. *)

val complete_int_hop : t -> egress_ns:int -> unit
(** Fill the top hop's egress timestamp if it is still open (egress 0).
    Hops completed at earlier switches are left untouched. *)

val int_hops : t -> Int_meta.hop array
(** The stack in path order (first hop first). *)

val clear_int : t -> unit
(** Strip the stack and the exceeded flag (done by the receiving
    vSwitch before guest delivery). *)

(** {2 Wire serialization}

    A deterministic Ethernet/IPv4/TCP rendering of the segment, so a
    simulated run can be captured into a pcap file (see [Obs.Pcap]) and
    opened in Wireshark/tshark, and so captures can be re-read without
    external tools. *)

val to_wire : t -> string
(** The frame's headers as raw bytes: 14-byte Ethernet (locally
    administered MACs derived from the host ids), 20-byte IPv4 (ECN
    codepoint in the TOS byte, the low 16 bits of [id] in the
    identification field, valid header checksum), and the TCP header with
    all options encoded — MSS (kind 2), window scale (kind 3), SACK
    (kind 5), PACK as the RFC 4727 experimental kind 253 carrying two
    24-bit cumulative counters, and the INT hop stack as kind 254
    appended after the other options (see {!Int_meta}; hops are carried
    in their quantized wire form, so full-precision ingress/egress
    timestamps live only in the model and the trace).  [vm_ect] rides in
    the low TCP reserved bit.  Options are padded to a 32-bit boundary
    on the wire (the model's [header_bytes]/[wire_size] accounting stays
    unpadded, though the INT shim itself counts).

    Payload bytes are never materialized: captures snap frames at the
    header, recording [wire_size] as the original length.  The TCP
    checksum is computed as if the payload were zero-filled.

    @raise Invalid_argument if the options exceed the 40-byte TCP option
    space or headers + payload exceed 65535 bytes. *)

val write_wire : t -> Bytes.t -> off:int -> int
(** [write_wire t b ~off] writes the frame [to_wire t] returns into [b]
    at [off] and returns its length, allocating nothing.  The checks of
    {!to_wire} run before any byte is written. *)

val max_wire_bytes : int
(** 94: the longest frame {!to_wire} can return, 54 header bytes plus the
    full TCP option space. *)

val of_wire : string -> (t, string) result
(** Parse bytes produced by {!to_wire} (a header-snapped frame; trailing
    payload bytes, if present, are ignored).  Verifies both checksums and
    every option's framing, and never writes to [s].  The result's [id] is the 16-bit wire
    identification field — decoding does not consume simulator ids — and
    [sent_at] is zero.  [to_wire (Result.get_ok (of_wire s))] reproduces
    [s] byte-for-byte for any frame [to_wire] emitted. *)

val pp : Format.formatter -> t -> unit
