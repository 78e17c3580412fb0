(** Structured flow tracing.

    Every congestion-relevant event in the simulator is one [event] value,
    recorded through a pluggable sink.  Timestamps are the engine's virtual
    clock, so a trace of a deterministic run is itself deterministic —
    byte-identical across re-runs with the same seed.

    The hot-path contract: callers guard with [enabled] so a disabled
    tracer costs one load and one branch, and allocates nothing:

    {[
      if Obs.Trace.enabled tracer then
        Obs.Trace.emit tracer ~now (Obs.Trace.Ce_mark { ... })
    ]}

    Together the events form per-packet provenance: every packet id moves
    created → (enqueue/dequeue/ce_mark/impaired/pack_attach/rwnd_rewrite)*
    → delivered | drop | vswitch_drop | policer_drop | impaired(lost),
    which [trace_query explain] reconstructs from a JSONL trace. *)

type drop_reason =
  | No_route  (** no switch route for the destination IP *)
  | Buffer_full  (** shared buffer pool exhausted *)
  | Over_threshold  (** dynamic per-port threshold exceeded *)
  | Wred  (** WRED dropped a non-ECT packet over the mark threshold *)
  | No_endpoint  (** delivered to a host with no endpoint bound to the flow *)

(** What [Netsim.Impair] did to a packet in flight. *)
type impair_action =
  | Imp_lost
  | Imp_corrupted
  | Imp_duplicated of { copy : int }  (** [copy] is the duplicate's packet id *)
  | Imp_pack_stripped
  | Imp_reordered

type event =
  | Created of { node : string; pkt : int; flow : Dcpkt.Flow_key.t; size : int; kind : string }
      (** A packet entered the network at [node] — emitted by endpoints and
          by vSwitch modules that synthesize segments (FACKs, assist
          retransmits, window updates).  [kind] classifies the segment
          (see {!pkt_kind}). *)
  | Enqueue of { node : string; port : int; pkt : int; size : int; qbytes : int }
      (** Packet admitted to a transmit queue; [qbytes] includes it. *)
  | Dequeue of { node : string; port : int; pkt : int; size : int; qbytes : int }
      (** Packet finished serializing; [qbytes] is what remains behind it. *)
  | Drop of { node : string; port : int; pkt : int; size : int; reason : drop_reason }
      (** [port] is [-1] when no output port was selected (e.g. no route). *)
  | Ce_mark of { node : string; port : int; pkt : int; qbytes : int }
  | Impaired of { link : string; pkt : int; action : impair_action }
      (** A [Netsim.Impair] layer acted on the packet; mirrors the impair
          metrics counters one-for-one. *)
  | Vswitch_drop of { node : string; pkt : int; egress : bool }
      (** A vSwitch datapath processor returned [Drop]. *)
  | Delivered of { node : string; pkt : int }
      (** The packet reached its destination endpoint — the terminal event
          of a successful lifecycle. *)
  | Pack_attach of { flow : Dcpkt.Flow_key.t; pkt : int; total : int; marked : int }
      (** The AC/DC receiver attached a PACK option carrying cumulative
          [total]/[marked] byte counters (§3.2). *)
  | Rwnd_rewrite of { flow : Dcpkt.Flow_key.t; pkt : int; window : int; field : int }
      (** AC/DC shrank an ACK's advertised window to [window] bytes,
          written as the 16-bit [field] (§3.3). *)
  | Alpha_update of { flow : Dcpkt.Flow_key.t; alpha : float; fraction : float }
      (** Per-RTT DCTCP estimator update; [fraction] is this window's
          marked-byte fraction. *)
  | Policer_drop of { flow : Dcpkt.Flow_key.t; pkt : int; seq : int; window : int }
      (** AC/DC dropped a segment from a non-conforming stack (§3.3). *)
  | Dupack of { flow : Dcpkt.Flow_key.t; ack : int; count : int }
  | Rto_fire of { flow : Dcpkt.Flow_key.t; inferred : bool; count : int }
      (** [inferred] distinguishes the vSwitch's inactivity-timer inference
          (§3.1) from a real endpoint RTO. *)
  | Int_hop of {
      flow : Dcpkt.Flow_key.t;
      pkt : int;
      depth : int;
      hop : string;
      port : int;
      ingress : int;
      egress : int;
      qbytes : int;
      svc_bps : int;
    }
      (** One stamped telemetry hop, emitted (in path order, [depth]
          0-based) when the receiving vSwitch strips the packet's INT
          stack.  [ingress]/[egress] are the full-precision virtual-clock
          stamps from the model, not the quantized wire fields. *)
  | Int_strip of { node : string; flow : Dcpkt.Flow_key.t; pkt : int; hops : int; exceeded : bool }
      (** Summary of one stripped stack; [exceeded] records that some
          switch found no option space left and skipped stamping. *)
  | Attrib_transition of {
      flow : Dcpkt.Flow_key.t;
      from_state : string;
      to_state : string;
      spent : int;
    }
      (** The flow's {!Attrib} stall clock left [from_state] (an
          {!Attrib.state_label}, or ["complete"] as [to_state] when the
          flow's FCT snapshot was taken) after [spent] ns there. *)

type t
(** A tracer: a sink plus its enabled flag. *)

val null : t
(** The disabled tracer.  [enabled null = false]; [emit] is a no-op. *)

val jsonl : write:(string -> unit) -> t
(** Stream each event as one compact JSON line to [write] (the string has
    no trailing newline): ["t"] and ["ev"] (its {!kind_of_event}) first,
    then the event's fields, a flow spelled
    ["src_ip:src_port>dst_ip:dst_port"].  The sink encodes into one
    buffer it reuses, so an emitted event costs only the line handed to
    [write]. *)

val jsonl_channel : out_channel -> t
(** [jsonl] writing newline-terminated lines to a channel. *)

val fold_file :
  string -> init:'a -> ('a -> Eventsim.Time_ns.t -> event -> 'a) -> ('a, string) result
(** [fold_file path ~init f] reads the JSONL trace at [path] one line at
    a time and folds [f] over its events in file order, decoding each
    with {!event_of_json}; blank lines are skipped.  Nothing but [f]'s
    accumulator outlives a line, so memory follows what [f] keeps, not
    the file's size.  [Error "PATH:LINE: msg"] names the first malformed
    line (1-based); an unreadable file is [Error] with the system's
    message. *)

val flow_selector :
  flows:Dcpkt.Flow_key.t list -> Eventsim.Time_ns.t -> event -> bool
(** A fresh stateful predicate: does an event belong to any of [flows],
    in either direction?  Flow-keyed events match on their 4-tuple;
    packet-keyed events (queue operations, impairments, delivery) match
    if the packet id was introduced by a matching [Created] event, and
    impairment-made duplicates of a tracked packet are tracked too.  So
    it must observe the full stream.  [--trace-filter]'s flow clause and
    [trace_query explain --flow] both select with it. *)

val filter_of_spec : string -> (t -> t, string) result
(** Parse a [--trace-filter] spec into a sink transformer, which passes
    only the events the spec selects to the sink it wraps (and returns
    {!null} unchanged).  The spec is comma-separated
    [flow=SRC_IP:SRC_PORT-DST_IP:DST_PORT] and [kind=K1|K2|...] clauses;
    multiple values of one key union, distinct keys intersect.  The flow
    clause selects with {!flow_selector} and sees every event, even those
    the kind clause drops.  Example: ["flow=1:40000-3:5001,kind=drop|ce_mark"].
    A kind outside {!event_kinds} is an [Error] that names it. *)

val flow_of_spec : string -> (Dcpkt.Flow_key.t, string) result
(** Parse ["a:p-b:q"] (CLI spelling) or ["a:p>b:q"] (trace spelling) into
    a flow key. *)

val enabled : t -> bool
val emit : t -> now:Eventsim.Time_ns.t -> event -> unit

val pkt_kind : Dcpkt.Packet.t -> string
(** Classify a segment for [Created] events: ["syn"], ["syn_ack"],
    ["rst"], ["fin"], ["data"], ["fack"] (a pure PACK-carrier injected by
    the AC/DC receiver) or ["ack"]. *)

val created : ?kind:string -> node:string -> Dcpkt.Packet.t -> event
(** The [Created] event for a packet entering the network at [node];
    [kind] defaults to [pkt_kind]. *)

val kind_of_event : event -> string
(** The event's JSON ["ev"] tag (["created"], ["enqueue"], ...), which is
    also the vocabulary of [kind=] filters. *)

val event_kinds : string list
(** Every tag {!kind_of_event} returns, in constructor order. *)

val action_label : impair_action -> string
(** The impairment's JSON ["action"] tag (["lost"], ["corrupted"], ...);
    [trace_query summary] keys its per-kind impairment breakdown on it. *)

val flow_of_event : event -> Dcpkt.Flow_key.t option
(** The 4-tuple, for flow-keyed events. *)

val pkt_of_event : event -> int option
(** The packet id, for packet-keyed events. *)

val event_of_json : Json.t -> (Eventsim.Time_ns.t * event, string) result
(** Inverse of the {!jsonl} encoding, one line's parsed JSON at a time
    ({!fold_file} reads traces through it).  Round-trips every
    constructor. *)

val pp_event : Format.formatter -> event -> unit
