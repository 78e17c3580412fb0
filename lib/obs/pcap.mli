(** Wire-level packet capture.

    Capture taps sit at transmit queues, vSwitch edges and impaired links;
    each tap renders the segment with {!Dcpkt.Packet.to_wire} and appends
    one frame to a pcap or pcapng stream that Wireshark/tshark — or the
    in-repo {!fold_file} — can open.  Timestamps are the engine's virtual clock
    in nanoseconds, so with a fixed seed the capture is byte-identical
    across runs.

    Frames are header-snapped: payload bytes are never materialized, the
    captured length is the header length and the original length is the
    full {!Dcpkt.Packet.wire_size} (plus up to 3 bytes of TCP option
    padding) — standard snaplen semantics, so tools treat the frame as
    truncated rather than malformed.

    The classic pcap format is written with the nanosecond magic
    (0xA1B23C4D, little-endian, LINKTYPE_ETHERNET) and collapses all taps
    onto one interface.  The pcapng format gives each tap its own
    interface block ([if_name] = the tap label, [if_tsresol] = 10^-9), so
    per-link views survive into the artifact. *)

type format = Pcap  (** classic libpcap, one implicit interface *)
            | Pcapng  (** next generation, one interface per tap *)

type t
(** A capture sink, or the disabled {!null}. *)

val null : t
(** The disabled sink: [enabled null = false], [capture] is a no-op. *)

val enabled : t -> bool

val create : format:format -> write:(string -> unit) -> t
(** A sink appending to [write].  The file header (or pcapng section
    header) is written immediately; interface blocks follow lazily as taps
    first capture. *)

val capture : t -> iface:string -> now:Eventsim.Time_ns.t -> Dcpkt.Packet.t -> unit
(** Append one frame.  [iface] labels the tap (e.g. ["tor0:2"],
    ["impair.host1.up"], ["host3.vm"]); pcapng records it, classic pcap
    ignores it. *)

val frames : t -> int
(** Frames captured so far. *)

val format_of_path : string -> format
(** [Pcapng] for a [.pcapng] suffix, [Pcap] otherwise. *)

(** {2 Reading captures back}

    Enough of a reader to verify our own artifacts without external
    tools: classic pcap (nanosecond or microsecond magic, little-endian)
    and little-endian pcapng with SHB/IDB/EPB blocks (unknown block types
    are skipped, per the spec). *)

type frame = {
  iface : string option;  (** pcapng interface name; [None] for classic pcap *)
  ts : Eventsim.Time_ns.t;  (** timestamp, normalized to nanoseconds *)
  orig_len : int;  (** original (untruncated) frame length *)
  data : string;  (** captured bytes — headers only, for our own captures *)
}

val fold_file : string -> init:'a -> ('a -> frame -> 'a) -> ('a, string) result
(** [fold_file path ~init f] reads the capture at [path] one record at a
    time and folds [f] over its frames in file order; the format is
    detected from the magic number.  Only the record being read is held,
    so memory follows what [f] keeps, not the capture's size.  A capture
    cut at a record boundary reads as the frames before the cut; a cut
    inside a header or record, or a corrupt one, is [Error "PATH: msg"]
    and never an exception.  An unreadable file is [Error] with the
    system's message. *)
