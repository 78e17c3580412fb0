(* Watch AC/DC work, packet by packet.

   One 64 KB transfer between two hosts, observed two ways:

   - a tap on the sender's datapath placed *after* the AC/DC processor:
     everything printed is what actually reaches the wire (egress) or the
     tenant VM (ingress).  You can see the SYN handshake carrying the
     window scale, data forced to ECT(0), and the returning ACKs arriving
     with their PACK option already consumed and the receive window
     rewritten to AC/DC's computed value.

   - the structured trace layer (lib/obs): a JSONL tracer installed as the
     ambient sink streams every enqueue, CE mark and RWND rewrite across
     the whole fabric to a file, which is read back at the end with the
     reader trace_query uses, and its last control-plane events printed.

   - the time-series layer (Obs.Timeseries): virtual-clock probes sample
     the switch's queue depth and the flow's enforced window every 100 us,
     and the channels are summarized (and optionally dumped as CSV) at the
     end.

   Run with: dune exec examples/trace_flow.exe
             dune exec examples/trace_flow.exe -- /tmp/flow.jsonl
             dune exec examples/trace_flow.exe -- /tmp/flow.jsonl /tmp/flow-ts
   (with a file argument the JSONL trace is kept there, otherwise in a
   temporary file removed at exit; with a directory argument each channel
   is written as <dir>/<name>.csv) *)

module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet

let budget = ref 18 (* packets to print before going quiet *)

let show engine direction (pkt : Packet.t) =
  if !budget > 0 then begin
    decr budget;
    Format.printf "  %8.2fus %s %a@."
      (Time_ns.to_us (Engine.now engine))
      direction Packet.pp pkt
  end

let tap engine =
  {
    Vswitch.Datapath.name = "tap";
    egress =
      (fun pkt ~inject:_ ->
        show engine "wire <-" pkt;
        Vswitch.Datapath.Pass);
    ingress =
      (fun pkt ~inject:_ ->
        show engine "VM   ->" pkt;
        Vswitch.Datapath.Pass);
  }

let () =
  (* Install the ambient tracer *before* the topology is built — switches
     and NICs capture it at construction time. *)
  let path, keep, csv_dir =
    match Sys.argv with
    | [| _; path |] -> (path, true, None)
    | [| _; path; dir |] -> (path, true, Some dir)
    | _ -> (Filename.temp_file "trace_flow" ".jsonl", false, None)
  in
  let oc = open_out path in
  Obs.Runtime.set_tracer (Obs.Trace.jsonl_channel oc);
  let params = Fabric.Params.with_ecn (Fabric.Params.with_mtu Fabric.Params.default 1500) in
  let engine = Engine.create () in
  let net =
    Fabric.Topology.star engine ~params ~acdc:(Fabric.Topology.acdc_everywhere params)
      ~hosts:2 ()
  in
  (* The tap registers after AC/DC, so it sees the datapath's output. *)
  Vswitch.Datapath.add_processor
    (Fabric.Host.datapath (Fabric.Topology.host net 0))
    (tap engine);
  let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
  Format.printf
    "Sender-host datapath, post-AC/DC (tenant: CUBIC without ECN, 1.5K MTU):@.@.";
  let conn =
    Fabric.Conn.establish ~src:(Fabric.Topology.host net 0) ~dst:(Fabric.Topology.host net 1)
      ~config ()
  in
  (* Time-series channels: switch queues and this flow's enforced window,
     sampled on the virtual clock.  Probes registered before Engine.run
     take their first sample at t=0. *)
  let ts = Obs.Timeseries.create engine in
  let sample_every = Time_ns.us 100 in
  Array.iter
    (fun sw -> Netsim.Switch.register_probes sw ~ts ~interval:sample_every ())
    net.Fabric.Topology.switches;
  (match Fabric.Host.acdc (Fabric.Topology.host net 0) with
  | Some instance ->
    Acdc.Sender.register_flow_probes (Acdc.sender instance) ~ts ~prefix:"flow"
      ~interval:sample_every (Fabric.Conn.key conn)
  | None -> ());
  Fabric.Conn.send_message conn ~bytes:65_536 ~on_complete:(fun fct ->
      Format.printf "@.  transfer of 64 KB completed in %a@." Time_ns.pp fct);
  Engine.run ~until:(Time_ns.ms 50) engine;
  Obs.Timeseries.stop ts;
  (match Fabric.Host.acdc (Fabric.Topology.host net 0) with
  | Some instance ->
    let sender = Acdc.sender instance in
    Format.printf "  AC/DC sender module: %d tracked flow(s), %d RWND rewrites@."
      (Acdc.Sender.tracked_flows sender)
      (Acdc.Sender.rwnd_rewrites sender)
  | None -> ());
  Fabric.Topology.shutdown net;
  Obs.Runtime.set_tracer Obs.Trace.null;
  close_out oc;
  (* Read the trace back and keep the tail of the control-plane events
     (rewrites, marks), skipping the enqueue/dequeue chatter. *)
  let interesting = function Obs.Trace.Enqueue _ | Obs.Trace.Dequeue _ -> false | _ -> true in
  let events, tail =
    match
      Obs.Trace.fold_file path ~init:(0, []) (fun (n, tail) t ev ->
          (n + 1, if interesting ev then List.filteri (fun i _ -> i < 10) ((t, ev) :: tail) else tail))
    with
    | Ok read -> read
    | Error msg -> failwith msg
  in
  Format.printf "@.Structured trace: %d events recorded fabric-wide, read back from JSONL;@."
    events;
  Format.printf "last control-plane events (CE marks, RWND rewrites, alpha updates):@.";
  List.iter
    (fun (t, ev) ->
      Format.printf "  %8.2fus %a@." (Time_ns.to_us t) Obs.Trace.pp_event ev)
    (List.rev tail);
  (* Per-run metric snapshot from the same ambient registry the switches
     and AC/DC modules count into. *)
  Format.printf "@.Metric snapshot (ambient registry):@.";
  List.iter
    (fun (name, v) -> if v > 0 then Format.printf "  %-36s %d@." name v)
    (Obs.Metrics.counters (Obs.Runtime.metrics ()));
  Format.printf "@.Time-series channels (sampled every %.0f us of virtual time):@."
    (Time_ns.to_us sample_every);
  List.iter
    (fun ch ->
      let last =
        match Obs.Timeseries.last ch with
        | Some (_, v) -> Printf.sprintf "%.0f" v
        | None -> "-"
      in
      Format.printf "  %-28s %4d points, last %s %s@." (Obs.Timeseries.name ch)
        (Obs.Timeseries.length ch) last (Obs.Timeseries.unit_label ch))
    (Obs.Timeseries.channels ts);
  if keep then Format.printf "@.full JSONL trace written to %s@." path else Sys.remove path;
  (match csv_dir with
  | Some dir ->
    Obs.Timeseries.write_csv_dir ts ~dir;
    Format.printf "time-series CSVs written to %s/@." dir
  | None -> ());
  Format.printf
    "@.Things to notice: the tenant sent Not-ECT data (it has no ECN), yet@\n\
     every data packet left as ECT0; the ACKs the VM received carry no PACK@\n\
     option (consumed by AC/DC) and their receive window is AC/DC's computed@\n\
     value, not the receiver's 6 MB buffer.@."
