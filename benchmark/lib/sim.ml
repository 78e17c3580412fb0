(* One repetition of a workload: build the fabric, drive the connections
   the inputs describe, run the engine, and condense the simulated outcome
   into a digest plus the end-of-run invariants. *)

module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Params = Fabric.Params

type observers = { trace_events : int; trace_bytes : int; pcap_frames : int; pcap_bytes : int }

type outcome = {
  digest : string;
  violations : string list;
  run_start_ns : int;  (** clock reading as [Engine.run] was entered *)
  run_ns : int;
  run_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  switch_inputs : int;  (** packets offered to any switch: forwarded + dropped *)
  events : int;
  observers : observers;
  layers : Spans.layer_stats list;  (** traced mode only *)
  pending_max : int;  (** traced mode only *)
}

let fabric (w : Inputs.workload) =
  let dumbbell = Wiring.Dumbbell Inputs.pairs in
  match w with
  | Dumbbell_acdc | Dumbbell_acdc_observed -> (Params.with_ecn Params.default, true, dumbbell)
  | Dumbbell_cubic_1500 -> (Params.with_mtu Params.default 1500, false, dumbbell)
  | Churn_web -> (Params.with_ecn Params.default, true, Wiring.Star Inputs.churn_hosts)

(* Process-wide simulator state a previous in-process run may have left. *)
let reset_globals () =
  Dcpkt.Packet.reset_ids ();
  Dcpkt.Int_meta.reset ();
  Obs.Runtime.reset_metrics ();
  Obs.Runtime.reset_int_sink ();
  Obs.Runtime.reset_attrib ();
  Acdc.Int_feedback.reset ()

type flow = { acked : int; retx : int; rtos : int }

let flow_of (c : Wiring.conn) =
  {
    acked = Tcp.Endpoint.bytes_acked c.client;
    retx = Tcp.Endpoint.retransmissions c.client;
    rtos = Tcp.Endpoint.timeouts c.client;
  }

(* Build the fabric and schedule the workload; the returned function runs
   the engine and reports.  Everything before it is the workload's set-up. *)
let build ~traced (inputs : Inputs.t) =
  reset_globals ();
  let observed = inputs.workload = Dumbbell_acdc_observed in
  let trace_events = ref 0 and trace_bytes = ref 0 and pcap_bytes = ref 0 in
  let pcap =
    if observed then
      Obs.Pcap.create ~format:Obs.Pcap.Pcapng ~write:(fun s ->
          pcap_bytes := !pcap_bytes + String.length s)
    else Obs.Pcap.null
  in
  if observed then begin
    Obs.Runtime.set_tracer
      (Obs.Trace.jsonl ~write:(fun line ->
           incr trace_events;
           trace_bytes := !trace_bytes + String.length line + 1));
    Obs.Runtime.set_pcap pcap;
    Dcpkt.Int_meta.set_enabled true;
    Obs.Attrib.set_enabled (Obs.Runtime.attrib ()) true
  end;
  let engine = Engine.create () in
  let params, acdc, shape = fabric inputs.workload in
  let config = Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
  let net =
    (if traced then Wiring.traced else Wiring.real) engine ~params ~acdc shape
  in
  (* Per-flow outcomes in input order; a churn flow's entry is filled when
     it completes (its connection is then torn down), or at the end. *)
  let nflows = Array.length inputs.starts + Array.length inputs.arrivals in
  let flows = Array.make nflows None and live = Hashtbl.create 1024 in
  let fcts = ref [] and completed = ref 0 in
  Array.iteri
    (fun i at ->
      let c = net.establish ~src:i ~dst:(Inputs.pairs + i) ~at config in
      c.send_forever ();
      Hashtbl.replace live i c)
    inputs.starts;
  Array.iteri
    (fun i (a : Inputs.arrival) ->
      Engine.schedule engine ~at:a.at (fun () ->
          net.lifecycle (fun () ->
              let c = net.establish ~src:a.src ~dst:a.dst config in
              Hashtbl.replace live i c;
              c.send_message ~bytes:a.bytes ~on_complete:(fun fct ->
                  net.lifecycle (fun () ->
                      fcts := (i, fct) :: !fcts;
                      incr completed;
                      flows.(i) <- Some (flow_of c);
                      Hashtbl.remove live i;
                      c.teardown ~after:(Time_ns.ms 20))))))
    inputs.arrivals;
  fun () ->
  if traced then Spans.reset ~pending:(fun () -> Engine.pending_events engine);
  let gc0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Spans.clock_ns () in
  Engine.run ~until:inputs.duration engine;
  (* Churn-web runs on until its last flow completes and is torn down,
     bounded in case one never does. *)
  let churn_flows = Array.length inputs.arrivals in
  if churn_flows > 0 then begin
    let limit = inputs.duration + Time_ns.sec 1.0 in
    while !completed < churn_flows && Engine.now engine < limit do
      Engine.run ~until:(Engine.now engine + Time_ns.ms 1) engine
    done;
    Engine.run ~until:(Engine.now engine + Time_ns.ms 20) engine
  end;
  let t1 = Spans.clock_ns () in
  let w1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  Hashtbl.iter (fun i c -> flows.(i) <- Some (flow_of c)) live;
  let b = Buffer.create 4096 and violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let switch_inputs = ref 0 in
  Array.iter
    (fun sw ->
      let name = Netsim.Switch.name sw in
      let fwd = Netsim.Switch.forwarded_packets sw and drops = Netsim.Switch.drops sw in
      switch_inputs := !switch_inputs + fwd + drops;
      Printf.bprintf b "switch %s fwd %d drops %d ce %d\n" name fwd drops
        (Netsim.Switch.ce_marks sw);
      let queued = ref 0 in
      for p = 0 to Netsim.Switch.port_count sw - 1 do
        queued := !queued + Netsim.Switch.port_queue_bytes sw p
      done;
      if !queued <> Netsim.Switch.buffer_used sw then
        violation "switch %s: buffer charged %d bytes but ports hold %d" name
          (Netsim.Switch.buffer_used sw) !queued)
    net.switches;
  Array.iteri
    (fun i f ->
      match f with
      | None -> violation "flow %d never started" i
      | Some f ->
        Printf.bprintf b "flow %d acked %d retx %d rto %d\n" i f.acked f.retx f.rtos;
        if i < Array.length inputs.starts && f.acked <= 0 then
          violation "long-lived flow %d acked no bytes" i)
    flows;
  if !completed < churn_flows then
    violation "%d of %d churn flows never completed" (churn_flows - !completed) churn_flows;
  List.iter
    (fun (i, fct) ->
      Printf.bprintf b "fct %d %d\n" i fct;
      if fct <= 0 then violation "flow %d completed with FCT %d ns" i fct)
    (List.rev !fcts);
  let observers =
    {
      trace_events = !trace_events;
      trace_bytes = !trace_bytes;
      pcap_frames = Obs.Pcap.frames pcap;
      pcap_bytes = !pcap_bytes;
    }
  in
  if observed then begin
    Printf.bprintf b "trace %d %d pcap %d %d\n" observers.trace_events observers.trace_bytes
      observers.pcap_frames observers.pcap_bytes;
    Obs.Runtime.set_tracer Obs.Trace.null;
    Obs.Runtime.set_pcap Obs.Pcap.null;
    Dcpkt.Int_meta.set_enabled false;
    Obs.Attrib.set_enabled (Obs.Runtime.attrib ()) false
  end;
  let run_ns = t1 - t0 and run_words = w1 -. w0 and events = Engine.events_processed engine in
  {
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
    violations = List.rev !violations;
    run_start_ns = t0;
    run_ns;
    run_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    switch_inputs = !switch_inputs;
    events;
    observers;
    layers = (if traced then Spans.snapshot ~run_ns ~run_words ~events else []);
    pending_max = (if traced then !Spans.pending_max else 0);
  }
