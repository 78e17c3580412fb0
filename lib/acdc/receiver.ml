module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key

type flow = {
  key : Flow_key.t; (* data direction *)
  mutable total_bytes : int;
  mutable marked_bytes : int;
  mutable vm_ect : bool; (* data sender's VM is ECN-capable *)
}

type t = {
  config : Config.t;
  engine : Eventsim.Engine.t;
  table : flow Vswitch.Flow_table.t;
  tracer : Obs.Trace.t;
  m_packs_sent : Obs.Metrics.counter;
  m_facks_sent : Obs.Metrics.counter;
}

let enforced t key = (t.config.Config.policy key).Config.enforce

let create engine config =
  let scope = Obs.Metrics.scope (Obs.Runtime.metrics ()) "acdc.receiver" in
  {
    config;
    engine;
    table = Vswitch.Flow_table.create engine ();
    tracer = Obs.Runtime.tracer ();
    m_packs_sent = Obs.Metrics.scope_counter scope "packs_sent";
    m_facks_sent = Obs.Metrics.scope_counter scope "facks_sent";
  }

let fresh_flow key () = { key; total_bytes = 0; marked_bytes = 0; vm_ect = false }

(* Data direction: packets we receive. *)
let ingress t (pkt : Packet.t) ~inject:_ =
  if not (enforced t pkt.Packet.key) then Vswitch.Datapath.Pass
  else if pkt.Packet.syn && not pkt.Packet.has_ack then begin
    ignore
      (Vswitch.Flow_table.find_or_create t.table pkt.Packet.key
         ~make:(fresh_flow pkt.Packet.key));
    Vswitch.Datapath.Pass
  end
  else begin
    let tracked =
      match Vswitch.Flow_table.find t.table pkt.Packet.key with
      | Some _ as f -> f
      | None ->
        (* Mid-stream attachment: start tracking on first data packet. *)
        if pkt.Packet.payload > 0 then
          Some
            (Vswitch.Flow_table.find_or_create t.table pkt.Packet.key
               ~make:(fresh_flow pkt.Packet.key))
        else None
    in
    match tracked with
    | None -> Vswitch.Datapath.Pass
    | Some flow ->
      if pkt.Packet.payload > 0 then begin
        flow.total_bytes <- flow.total_bytes + pkt.Packet.payload;
        if pkt.Packet.ecn = Packet.Ce then
          flow.marked_bytes <- flow.marked_bytes + pkt.Packet.payload;
        flow.vm_ect <- pkt.Packet.vm_ect;
        (* Strip ECN state so the tenant never reacts itself; restore the
           original ECT setting recorded in the reserved bit (§3.2).  In
           log-only mode the CE marks pass through untouched. *)
        if not t.config.Config.log_only then begin
          pkt.Packet.ecn <- (if pkt.Packet.vm_ect then Packet.Ect0 else Packet.Not_ect);
          pkt.Packet.vm_ect <- false
        end
      end;
      if pkt.Packet.fin then Vswitch.Flow_table.mark_closed t.table pkt.Packet.key;
      Vswitch.Datapath.Pass
  end

let trace_attach t flow (carrier : Packet.t) =
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.emit t.tracer ~now:(Eventsim.Engine.now t.engine)
      (Obs.Trace.Pack_attach
         {
           flow = flow.key;
           pkt = carrier.Packet.id;
           total = flow.total_bytes;
           marked = flow.marked_bytes;
         })

(* ACK direction: packets our VM sends back to the data sender.  Entries
   exist only for flows [ingress] found enforced, so the lookup comes
   first and the policy is asked about the stored data-direction key. *)
let egress t (pkt : Packet.t) ~inject =
  match Vswitch.Flow_table.find_reverse t.table pkt.Packet.key with
  | None -> Vswitch.Datapath.Pass
  | Some flow when not (enforced t flow.key) -> Vswitch.Datapath.Pass
  | Some flow ->
    if pkt.Packet.has_ack && not pkt.Packet.syn then begin
      let pack =
        Packet.Pack { total_bytes = flow.total_bytes; marked_bytes = flow.marked_bytes }
      in
      let fits =
        (not t.config.Config.fack_only)
        && Packet.wire_size pkt + 8 <= t.config.Config.mtu + 54
        (* 54 = simulator link-layer framing; the MTU bounds IP payload *)
      in
      if fits then begin
        Packet.set_option pkt pack;
        Obs.Metrics.incr t.m_packs_sent;
        trace_attach t flow pkt
      end
      else begin
        (* TSO would smear an oversized PACK across segments, corrupting
           the counters — send a dedicated FACK instead (§3.2). *)
        let fack = Packet.make ~key:pkt.Packet.key ~options:[ pack ] ~payload:0 () in
        Obs.Metrics.incr t.m_facks_sent;
        if Obs.Trace.enabled t.tracer then
          Obs.Trace.emit t.tracer ~now:(Eventsim.Engine.now t.engine)
            (Obs.Trace.created ~kind:"fack"
               ~node:(Printf.sprintf "host%d" pkt.Packet.key.Flow_key.src_ip)
               fack);
        trace_attach t flow fack;
        inject fack
      end;
      if pkt.Packet.fin then Vswitch.Flow_table.mark_closed t.table flow.key
    end;
    Vswitch.Datapath.Pass

let tracked_flows t = Vswitch.Flow_table.length t.table
let packs_sent t = Obs.Metrics.value t.m_packs_sent
let facks_sent t = Obs.Metrics.value t.m_facks_sent

let marked_bytes t key =
  Option.map
    (fun flow -> (flow.total_bytes, flow.marked_bytes))
    (Vswitch.Flow_table.find t.table key)

let shutdown t = Vswitch.Flow_table.stop_gc t.table
