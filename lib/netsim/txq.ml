module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet

(* Serialization port: rate-limited FIFO + propagation delay.

   Hot-path shape: the waiting queue is a flat ring (parallel arrays, no
   per-entry tuple), the packet being serialized sits in mutable [cur_*]
   fields (a port serializes one frame at a time), and both the
   tx-complete and the delivery events are static-site handlers riding
   pooled engine cells — steady-state forwarding schedules nothing on the
   OCaml heap.  Each frame's delivery is its own event, due [prop_delay]
   plus its jitter draw after serialization completes. *)

type t = {
  engine : Engine.t;
  rate_bps : int;
  prop_delay : Time_ns.t;
  jitter : (Eventsim.Rng.t * Time_ns.t) option;
  deliver : Packet.t -> unit;
  (* Waiting ring.  Each entry carries its enqueue-time wire size (packets
     are mutable and an option rewrite while queued must not unbalance the
     byte books) and its enqueue time, the basis of the sojourn
     instruments below. *)
  mutable q_pkt : Packet.t array;
  mutable q_size : int array;
  mutable q_enq : int array;
  mutable q_head : int;
  mutable q_len : int;
  (* The frame on the serializer right now (valid while [busy]). *)
  mutable cur_pkt : Packet.t;
  mutable cur_size : int;
  mutable cur_enq : Time_ns.t;
  tracer : Obs.Trace.t;
  pcap : Obs.Pcap.t;
  iface : string;
  node : string;
  port : int;
  mutable queued_bytes : int;
  mutable busy : bool;
  mutable on_tx_complete : Packet.t -> size:int -> unit;
  (* Queue-residency instruments (enqueue -> serialization complete), an
     INT-independent cross-check for the telemetry a switch stamps: the
     gauge keeps the high-water sojourn, the counters let a validator
     bound per-hop INT samples against this queue's own books. *)
  g_sojourn : Obs.Metrics.gauge;
  c_sojourn_total : Obs.Metrics.counter;
  c_sojourn_samples : Obs.Metrics.counter;
}

let initial_ring = 64

let create ?(node = "txq") ?(port = 0) engine ~rate_bps ~prop_delay ~jitter ~deliver =
  assert (rate_bps > 0);
  let scope =
    Obs.Metrics.scope (Obs.Runtime.metrics ()) (Printf.sprintf "txq.%s.port%d" node port)
  in
  {
    engine;
    rate_bps;
    prop_delay;
    jitter;
    deliver;
    q_pkt = Array.make initial_ring Packet.dummy;
    q_size = Array.make initial_ring 0;
    q_enq = Array.make initial_ring 0;
    q_head = 0;
    q_len = 0;
    cur_pkt = Packet.dummy;
    cur_size = 0;
    cur_enq = Time_ns.zero;
    tracer = Obs.Runtime.tracer ();
    pcap = Obs.Runtime.pcap ();
    iface = Printf.sprintf "%s:%d" node port;
    node;
    port;
    queued_bytes = 0;
    busy = false;
    on_tx_complete = (fun _ ~size:_ -> ());
    g_sojourn = Obs.Metrics.scope_gauge scope "sojourn_ns";
    c_sojourn_total = Obs.Metrics.scope_counter scope "sojourn_total_ns";
    c_sojourn_samples = Obs.Metrics.scope_counter scope "sojourn_samples";
  }

let set_on_tx_complete t f = t.on_tx_complete <- f

let queued_bytes t = t.queued_bytes
let rate_bps t = t.rate_bps
let busy t = t.busy

let tx_time t ~bytes = bytes * 8 * 1_000_000_000 / t.rate_bps

(* Ring plumbing: grow-by-doubling, unwrapping the circular layout. *)

let grow_wait t =
  let cap = Array.length t.q_pkt in
  let pkt = Array.make (2 * cap) Packet.dummy in
  let size = Array.make (2 * cap) 0 in
  let enq = Array.make (2 * cap) 0 in
  for i = 0 to t.q_len - 1 do
    let j = (t.q_head + i) land (cap - 1) in
    pkt.(i) <- t.q_pkt.(j);
    size.(i) <- t.q_size.(j);
    enq.(i) <- t.q_enq.(j)
  done;
  t.q_pkt <- pkt;
  t.q_size <- size;
  t.q_enq <- enq;
  t.q_head <- 0

(* The delivery handler: one pooled event per frame, no closure. *)
let deliver_h : (t, Packet.t) Engine.handler = Engine.handler (fun t pkt -> t.deliver pkt)

(* [finish] (serialization complete) and [start_next] are mutually
   recursive with [finish]'s static handler; the handler is [lazy] so the
   recursive group ties the knot at module init. *)
let rec finish t () =
  let pkt = t.cur_pkt and size = t.cur_size and enq_ns = t.cur_enq in
  t.cur_pkt <- Packet.dummy;
  t.queued_bytes <- t.queued_bytes - size;
  let now = Engine.now t.engine in
  let sojourn = Time_ns.diff now enq_ns in
  Obs.Metrics.set_max t.g_sojourn sojourn;
  Obs.Metrics.add t.c_sojourn_total sojourn;
  Obs.Metrics.incr t.c_sojourn_samples;
  (* Close the top INT hop (if the upstream switch opened one) before the
     trace/capture taps run, so the frame on the wire — and in the pcap —
     carries the completed stamp. *)
  if pkt.Packet.int_stack != [] then Packet.complete_int_hop pkt ~egress_ns:now;
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.emit t.tracer ~now
      (Obs.Trace.Dequeue
         { node = t.node; port = t.port; pkt = pkt.Packet.id; size; qbytes = t.queued_bytes });
  (* The capture tap sits at serialization time — the moment the frame
     hits the wire — so the ECN/option state in the capture is what
     downstream nodes will actually see. *)
  if Obs.Pcap.enabled t.pcap then Obs.Pcap.capture t.pcap ~iface:t.iface ~now pkt;
  t.on_tx_complete pkt ~size;
  let delay =
    match t.jitter with
    | Some (rng, j) when j > 0 -> Time_ns.add t.prop_delay (Eventsim.Rng.int rng j)
    | Some _ | None -> t.prop_delay
  in
  Engine.schedule_static_after t.engine ~delay deliver_h t pkt;
  start_next t

and start_next t =
  if t.q_len = 0 then t.busy <- false
  else begin
    t.busy <- true;
    let cap = Array.length t.q_pkt in
    let h = t.q_head in
    t.cur_pkt <- t.q_pkt.(h);
    t.cur_size <- t.q_size.(h);
    t.cur_enq <- t.q_enq.(h);
    t.q_pkt.(h) <- Packet.dummy;
    t.q_head <- (h + 1) land (cap - 1);
    t.q_len <- t.q_len - 1;
    Engine.schedule_static_after t.engine ~delay:(tx_time t ~bytes:t.cur_size)
      (Lazy.force finish_h) t ()
  end

and finish_h = lazy (Engine.handler finish)

let enqueue t pkt =
  let size = Packet.wire_size pkt in
  t.queued_bytes <- t.queued_bytes + size;
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
      (Obs.Trace.Enqueue
         { node = t.node; port = t.port; pkt = pkt.Packet.id; size; qbytes = t.queued_bytes });
  if t.q_len = Array.length t.q_pkt then grow_wait t;
  let tail = (t.q_head + t.q_len) land (Array.length t.q_pkt - 1) in
  t.q_pkt.(tail) <- pkt;
  t.q_size.(tail) <- size;
  t.q_enq.(tail) <- Engine.now t.engine;
  t.q_len <- t.q_len + 1;
  if not t.busy then start_next t
