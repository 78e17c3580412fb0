module Engine = Eventsim.Engine
module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key

type t = {
  ip : int;
  name : string;
  engine : Engine.t;
  datapath : Vswitch.Datapath.t;
  acdc : Acdc.t option;
  (* Keyed by the direction each endpoint receives (its own key reversed
     once at registration), so demux looks up the arriving packet's key
     as is. *)
  endpoints : Tcp.Endpoint.t Flow_key.Table.t;
  tracer : Obs.Trace.t;
  pcap : Obs.Pcap.t;
  vm_iface : string;
  mutable nic : Packet.t -> unit;
  (* Per-host closures built once at [create]: the egress/ingress paths
     hand these to the datapath instead of allocating a closure per
     packet. *)
  mutable emit_fn : Packet.t -> unit;
  mutable demux_fn : Packet.t -> unit;
  mutable next_port : int;
  mutable no_route_drops : int;
}

(* The VM-edge tap: both directions of the virtual NIC, the vantage point
   of tcpdump inside the guest. *)
let vm_tap t pkt =
  if Obs.Pcap.enabled t.pcap then
    Obs.Pcap.capture t.pcap ~iface:t.vm_iface ~now:(Engine.now t.engine) pkt

let demux t (pkt : Packet.t) =
  vm_tap t pkt;
  match Flow_key.Table.find t.endpoints pkt.Packet.key with
  | endpoint ->
    if Obs.Trace.enabled t.tracer then
      Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
        (Obs.Trace.Delivered { node = t.name; pkt = pkt.Packet.id });
    Tcp.Endpoint.input endpoint pkt
  | exception Not_found ->
    t.no_route_drops <- t.no_route_drops + 1;
    if Obs.Trace.enabled t.tracer then
      Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
        (Obs.Trace.Drop
           {
             node = t.name;
             port = -1;
             pkt = pkt.Packet.id;
             size = Packet.wire_size pkt;
             reason = Obs.Trace.No_endpoint;
           })

let create engine ~ip ?acdc () =
  let name = Printf.sprintf "host%d" ip in
  let datapath =
    Vswitch.Datapath.create ~name ~clock:(fun () -> Engine.now engine) ()
  in
  let acdc =
    Option.map
      (fun config ->
        let instance = Acdc.create engine config in
        Acdc.attach instance datapath;
        instance)
      acdc
  in
  let t =
    {
      ip;
      name;
      engine;
      datapath;
      acdc;
      endpoints = Flow_key.Table.create 64;
      tracer = Obs.Runtime.tracer ();
      pcap = Obs.Runtime.pcap ();
      vm_iface = name ^ ".vm";
      nic = ignore;
      emit_fn = ignore;
      demux_fn = ignore;
      next_port = 10_000;
      no_route_drops = 0;
    }
  in
  t.emit_fn <- (fun p -> t.nic p);
  t.demux_fn <- (fun p -> demux t p);
  Option.iter (fun instance -> Acdc.set_vm_injector instance t.demux_fn) acdc;
  t

let ip t = t.ip
let engine t = t.engine
let datapath t = t.datapath
let acdc t = t.acdc
let set_nic t f = t.nic <- f

let egress t pkt =
  vm_tap t pkt;
  Vswitch.Datapath.process_egress t.datapath pkt ~emit:t.emit_fn

(* The INT strip point: the receiving vSwitch removes the telemetry stack
   before the datapath modules or the guest see the packet (the VM tap in
   [demux] captures a clean frame), and routes the samples three ways —
   trace events, the ambient Obs collector, and the CC feedback
   subscription channel. *)
let strip_int t (pkt : Packet.t) =
  let hops = Packet.int_hops pkt in
  let exceeded = pkt.Packet.int_exceeded in
  Packet.clear_int pkt;
  let now = Engine.now t.engine in
  let flow = pkt.Packet.key in
  if Obs.Trace.enabled t.tracer then begin
    Array.iteri
      (fun depth (h : Dcpkt.Int_meta.hop) ->
        Obs.Trace.emit t.tracer ~now
          (Obs.Trace.Int_hop
             {
               flow;
               pkt = pkt.Packet.id;
               depth;
               hop = Dcpkt.Int_meta.name h.hop_id;
               port = h.port;
               ingress = h.ingress_ns;
               egress = h.egress_ns;
               qbytes = h.qbytes;
               svc_bps = h.svc_bps;
             }))
      hops;
    Obs.Trace.emit t.tracer ~now
      (Obs.Trace.Int_strip
         { node = t.name; flow; pkt = pkt.Packet.id; hops = Array.length hops; exceeded })
  end;
  Obs.Int_sink.absorb (Obs.Runtime.int_sink ()) ~now ~flow ~hops ~exceeded;
  (* Per-hop decomposition of the flow's in-flight time: the sojourn
     stamps of a data packet's path accumulate on the data-direction flow
     clock. *)
  let attrib = Obs.Runtime.attrib () in
  if Obs.Attrib.enabled attrib then Obs.Attrib.absorb_hops attrib flow hops;
  Acdc.Int_feedback.dispatch ~now ~flow hops

let deliver t pkt =
  if pkt.Packet.int_stack != [] || pkt.Packet.int_exceeded then strip_int t pkt;
  Vswitch.Datapath.process_ingress t.datapath pkt ~deliver:t.demux_fn

let register_endpoint t endpoint =
  Flow_key.Table.replace t.endpoints (Flow_key.reverse (Tcp.Endpoint.key endpoint)) endpoint

let unregister_endpoint t endpoint =
  Flow_key.Table.remove t.endpoints (Flow_key.reverse (Tcp.Endpoint.key endpoint))

let fresh_port t =
  let port = t.next_port in
  t.next_port <- t.next_port + 1;
  port

let no_route_drops t = t.no_route_drops

let shutdown t = match t.acdc with Some a -> Acdc.shutdown a | None -> ()
