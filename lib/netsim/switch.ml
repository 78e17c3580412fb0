module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet
module Int_meta = Dcpkt.Int_meta
module Metrics = Obs.Metrics
module Trace = Obs.Trace

type ecn_config = { mark_threshold : int; byte_mode_ref : int option }

(* Service-rate estimation window.  Matches the register_probes sampling
   interval, so the in-band estimate and the out-of-band svc_gbps channel
   describe the same timescale. *)
let svc_window_ns = 100_000

type port = {
  txq : Txq.t;
  mutable max_queue : int;
  (* Cumulative bytes serialized onto the wire: the numerator of the
     per-port service-rate telemetry channel (INT-style per-hop state). *)
  mutable tx_bytes : int;
  (* Windowed service-rate estimate stamped into INT hops: bytes
     serialized over the last [svc_window_ns], falling back to the
     configured line rate until the first window closes.  Driven by
     tx-complete events only — fully deterministic. *)
  mutable svc_win_start : Time_ns.t;
  mutable svc_win_bytes : int;
  mutable svc_bps : int;
}

type t = {
  engine : Engine.t;
  rng : Eventsim.Rng.t;
  name : string;
  buffer_capacity : int;
  dt_alpha : float;
  ecn : ecn_config option;
  tracer : Trace.t;
  (* Growable port vector: capacity is [Array.length ports], the live
     prefix is [nports] (add_port used to Array.append — O(n^2) growth). *)
  mutable ports : port array;
  mutable nports : int;
  routes : (int, int array) Hashtbl.t;
  mutable buffer_used : int;
  (* INT identity: stamped as [hop_id] into every telemetry hop. *)
  hop_id : int;
  m_input : Metrics.counter;
  m_forwarded_packets : Metrics.counter;
  m_forwarded_bytes : Metrics.counter;
  m_drops : Metrics.counter;
  m_wred_drops : Metrics.counter;
  m_ce_marks : Metrics.counter;
  g_buffer_max : Metrics.gauge;
}

let create engine ?(name = "sw") ?(buffer_capacity = 9 * 1024 * 1024) ?(dt_alpha = 1.0) ?ecn
    () =
  let scope = Metrics.scope (Obs.Runtime.metrics ()) ("switch." ^ name) in
  {
    engine;
    rng = Eventsim.Rng.create ~seed:(Hashtbl.hash name + buffer_capacity);
    name;
    buffer_capacity;
    dt_alpha;
    ecn;
    tracer = Obs.Runtime.tracer ();
    ports = [||];
    nports = 0;
    routes = Hashtbl.create 64;
    buffer_used = 0;
    hop_id = Int_meta.register ~name;
    m_input = Metrics.scope_counter scope "input_packets";
    m_forwarded_packets = Metrics.scope_counter scope "forwarded_packets";
    m_forwarded_bytes = Metrics.scope_counter scope "forwarded_bytes";
    m_drops = Metrics.scope_counter scope "drops";
    m_wred_drops = Metrics.scope_counter scope "wred_drops";
    m_ce_marks = Metrics.scope_counter scope "ce_marks";
    g_buffer_max = Metrics.scope_gauge scope "buffer_max";
  }

let add_port t ~rate_bps ~prop_delay ?jitter ~deliver () =
  let idx = t.nports in
  let txq =
    Txq.create t.engine ~node:t.name ~port:idx ~rate_bps ~prop_delay ~jitter ~deliver
  in
  let port =
    {
      txq;
      max_queue = 0;
      tx_bytes = 0;
      svc_win_start = Time_ns.zero;
      svc_win_bytes = 0;
      svc_bps = rate_bps;
    }
  in
  (* Free exactly what admission charged: the enqueue-time size travels
     with the packet, so a mutation while queued cannot leak buffer. *)
  Txq.set_on_tx_complete txq (fun _pkt ~size ->
      t.buffer_used <- t.buffer_used - size;
      port.tx_bytes <- port.tx_bytes + size;
      if Int_meta.enabled () then begin
        port.svc_win_bytes <- port.svc_win_bytes + size;
        let now = Engine.now t.engine in
        let span = Time_ns.diff now port.svc_win_start in
        if span >= svc_window_ns then begin
          port.svc_bps <- port.svc_win_bytes * 8 * 1_000_000_000 / span;
          port.svc_win_start <- now;
          port.svc_win_bytes <- 0
        end
      end);
  let capacity = Array.length t.ports in
  if idx >= capacity then begin
    (* Double the capacity; the new slots are filled with [port] and the
       live prefix blitted back, so every reachable index holds a real
       port. *)
    let grown = Array.make (Stdlib.max 8 (2 * capacity)) port in
    Array.blit t.ports 0 grown 0 idx;
    t.ports <- grown
  end;
  t.ports.(idx) <- port;
  t.nports <- idx + 1;
  idx

let port_count t = t.nports

let add_route t ~dst_ip ~port = Hashtbl.replace t.routes dst_ip [| port |]

let add_routes t ~dst_ip ~ports =
  assert (ports <> []);
  Hashtbl.replace t.routes dst_ip (Array.of_list ports)

let dynamic_threshold t =
  (* Classic dynamic thresholds (Choudhury & Hahne): a port may queue up to
     alpha times the unused share of the buffer pool. *)
  int_of_float (t.dt_alpha *. float_of_int (t.buffer_capacity - t.buffer_used))

(* [port_idx] is -1 when no route matched. *)
let drop t (pkt : Packet.t) ~port_idx ~reason =
  Metrics.incr t.m_drops;
  if Trace.enabled t.tracer then
    Trace.emit t.tracer ~now:(Engine.now t.engine)
      (Trace.Drop
         {
           node = t.name;
           port = port_idx;
           pkt = pkt.Packet.id;
           size = Packet.wire_size pkt;
           reason;
         })

let input t pkt =
  Metrics.incr t.m_input;
  match Hashtbl.find t.routes pkt.Packet.key.dst_ip with
  | exception Not_found -> drop t pkt ~port_idx:(-1) ~reason:Trace.No_route
  | group ->
    (* ECMP: the same 5-tuple always hashes to the same member port, so a
       flow's packets stay in order. *)
    let idx =
      if Array.length group = 1 then group.(0)
      else group.(Dcpkt.Flow_key.hash pkt.Packet.key mod Array.length group)
    in
    let port = t.ports.(idx) in
    let size = Packet.wire_size pkt in
    let qbytes = Txq.queued_bytes port.txq in
    if t.buffer_used + size > t.buffer_capacity then
      drop t pkt ~port_idx:idx ~reason:Trace.Buffer_full
    else if qbytes + size > dynamic_threshold t then
      drop t pkt ~port_idx:idx ~reason:Trace.Over_threshold
    else begin
      let admitted =
        match t.ecn with
        | Some { mark_threshold; byte_mode_ref } when qbytes + size > mark_threshold ->
          if Packet.is_ect pkt then begin
            pkt.Packet.ecn <- Packet.Ce;
            Metrics.incr t.m_ce_marks;
            if Trace.enabled t.tracer then
              Trace.emit t.tracer ~now:(Engine.now t.engine)
                (Trace.Ce_mark { node = t.name; port = idx; pkt = pkt.Packet.id; qbytes });
            true
          end
          else begin
            (* WRED treats over-threshold non-ECT packets as congestion
               drops — the root of the ECN coexistence problem (§5.1).
               Byte-mode scales the drop probability by packet size. *)
            let doomed =
              match byte_mode_ref with
              | None -> true
              | Some ref_size ->
                Eventsim.Rng.int t.rng ref_size < Stdlib.min ref_size size
            in
            if doomed then begin
              drop t pkt ~port_idx:idx ~reason:Trace.Wred;
              Metrics.incr t.m_wred_drops
            end;
            not doomed
          end
        | Some _ | None -> true
      in
      if admitted then begin
        (* INT stamping happens at admission, so the hop records the queue
           state the packet actually found.  The stamp grows the packet,
           so the size charged to buffer and wire is recomputed; admission
           itself was checked against the pre-stamp size (a <=13-byte
           slack, like real INT inserting metadata after policing). *)
        let size =
          if Int_meta.enabled () then begin
            Packet.add_int_hop pkt
              {
                Int_meta.hop_id = t.hop_id;
                port = idx;
                ingress_ns = Engine.now t.engine;
                egress_ns = 0;
                qbytes;
                svc_bps = port.svc_bps;
              };
            Packet.wire_size pkt
          end
          else size
        in
        t.buffer_used <- t.buffer_used + size;
        Metrics.set_max t.g_buffer_max t.buffer_used;
        Metrics.incr t.m_forwarded_packets;
        Metrics.add t.m_forwarded_bytes size;
        Txq.enqueue port.txq pkt;
        let q = Txq.queued_bytes port.txq in
        if q > port.max_queue then port.max_queue <- q
      end
    end

let port_queue_bytes t idx = Txq.queued_bytes t.ports.(idx).txq
let buffer_used t = t.buffer_used
let forwarded_packets t = Metrics.value t.m_forwarded_packets
let forwarded_bytes t = Metrics.value t.m_forwarded_bytes
let drops t = Metrics.value t.m_drops
let wred_drops t = Metrics.value t.m_wred_drops
let ce_marks t = Metrics.value t.m_ce_marks
let max_port_queue t idx = t.ports.(idx).max_queue

let name t = t.name

let register_probes t ~ts ?(interval = 100_000) () =
  for i = 0 to t.nports - 1 do
    let port = t.ports.(i) in
    ignore
      (Obs.Timeseries.probe ts
         ~name:(Printf.sprintf "switch.%s.port%d.qbytes" t.name i)
         ~unit_label:"bytes" ~interval (fun () ->
           Some (float_of_int (Txq.queued_bytes port.txq))));
    (* INT-style per-hop telemetry: instantaneous service rate over the
       last sampling window, from the tx byte counter delta.  bits/ns is
       numerically Gbit/s. *)
    let last_tx = ref port.tx_bytes in
    ignore
      (Obs.Timeseries.probe ts
         ~name:(Printf.sprintf "switch.%s.port%d.svc_gbps" t.name i)
         ~unit_label:"Gbit/s" ~interval (fun () ->
           let delta = port.tx_bytes - !last_tx in
           last_tx := port.tx_bytes;
           Some (float_of_int (delta * 8) /. float_of_int interval)))
  done;
  ignore
    (Obs.Timeseries.probe ts
       ~name:(Printf.sprintf "switch.%s.buffer_used" t.name)
       ~unit_label:"bytes" ~interval (fun () -> Some (float_of_int t.buffer_used)))
