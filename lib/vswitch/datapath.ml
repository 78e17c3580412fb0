type verdict = Pass | Drop

type processor = {
  name : string;
  egress : Dcpkt.Packet.t -> inject:(Dcpkt.Packet.t -> unit) -> verdict;
  ingress : Dcpkt.Packet.t -> inject:(Dcpkt.Packet.t -> unit) -> verdict;
}

type t = {
  mutable processors : processor list; (* registration order *)
  name : string;
  clock : unit -> Eventsim.Time_ns.t;
  tracer : Obs.Trace.t;
  m_egress_packets : Obs.Metrics.counter;
  m_ingress_packets : Obs.Metrics.counter;
  m_egress_drops : Obs.Metrics.counter;
  m_ingress_drops : Obs.Metrics.counter;
}

let create ?(name = "vswitch") ?(clock = fun () -> Eventsim.Time_ns.zero) () =
  let scope = Obs.Metrics.scope (Obs.Runtime.metrics ()) "vswitch" in
  {
    processors = [];
    name;
    clock;
    tracer = Obs.Runtime.tracer ();
    m_egress_packets = Obs.Metrics.scope_counter scope "egress_packets";
    m_ingress_packets = Obs.Metrics.scope_counter scope "ingress_packets";
    m_egress_drops = Obs.Metrics.scope_counter scope "egress_drops";
    m_ingress_drops = Obs.Metrics.scope_counter scope "ingress_drops";
  }

let add_processor t p = t.processors <- t.processors @ [ p ]

(* One top-level walk per direction.  A local [loop] closing over the
   packet would be a heap closure per packet, and a shared walk taking a
   field selector compiles [(select p) pkt ~inject] as one three-argument
   application, which builds a partial application of the handler on
   every call. *)
let rec run_egress pkt inject = function
  | [] -> Pass
  | p :: rest -> (
    match p.egress pkt ~inject with Pass -> run_egress pkt inject rest | Drop -> Drop)

let rec run_ingress pkt inject = function
  | [] -> Pass
  | p :: rest -> (
    match p.ingress pkt ~inject with Pass -> run_ingress pkt inject rest | Drop -> Drop)

let trace_drop t (pkt : Dcpkt.Packet.t) ~egress =
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.emit t.tracer ~now:(t.clock ())
      (Obs.Trace.Vswitch_drop { node = t.name; pkt = pkt.Dcpkt.Packet.id; egress })

let process_egress t pkt ~emit =
  Obs.Metrics.incr t.m_egress_packets;
  match run_egress pkt emit t.processors with
  | Pass -> emit pkt
  | Drop ->
    Obs.Metrics.incr t.m_egress_drops;
    trace_drop t pkt ~egress:true

let process_ingress t pkt ~deliver =
  Obs.Metrics.incr t.m_ingress_packets;
  match run_ingress pkt deliver t.processors with
  | Pass -> deliver pkt
  | Drop ->
    Obs.Metrics.incr t.m_ingress_drops;
    trace_drop t pkt ~egress:false

let egress_packets t = Obs.Metrics.value t.m_egress_packets
let ingress_packets t = Obs.Metrics.value t.m_ingress_packets
let egress_drops t = Obs.Metrics.value t.m_egress_drops
let ingress_drops t = Obs.Metrics.value t.m_ingress_drops
