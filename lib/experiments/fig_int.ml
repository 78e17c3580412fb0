(* ext-int-hops: per-hop latency attribution via in-band telemetry.

   The parking lot (Fig. 7b) is the topology where end-to-end latency is
   least informative: flow 0 crosses every trunk, so its RTT mixes the
   queueing of [senders] bottlenecks.  With INT enabled every switch
   stamps ingress/egress time, queue depth and service rate into the
   packets it forwards; the receiving vSwitch strips the stack and this
   figure consumes it through {!Acdc.Int_feedback} — the same channel an
   in-fabric congestion law (e.g. PowerTCP) would use — to attribute the
   flow's latency hop by hop and name the bottleneck. *)

module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Int_meta = Dcpkt.Int_meta

module Int_hops = struct
  type result = {
    scheme : string;
    senders : int;
    watched : Dcpkt.Flow_key.t;
    stacks : int;  (* stripped stacks delivered to the feedback channel *)
    tputs : float list;
    hops : Obs.Int_sink.row list;
  }

  let run ?(duration = 1.0) ?(senders = 4) () =
    let scheme = Harness.acdc () in
    let params = Harness.params_for scheme Fabric.Params.default in
    let engine = Engine.create () in
    let was_enabled = Int_meta.enabled () in
    Int_meta.set_enabled true;
    Fun.protect ~finally:(fun () -> Int_meta.set_enabled was_enabled) @@ fun () ->
    let net =
      Fabric.Topology.parking_lot engine ~params ~acdc:(Harness.acdc_select scheme params)
        ~senders ()
    in
    let config = Harness.host_config scheme params in
    let receiver = Fabric.Topology.host net senders in
    let conns =
      List.init senders (fun i ->
          let conn =
            Fabric.Conn.establish ~src:(Fabric.Topology.host net i) ~dst:receiver ~config ()
          in
          Fabric.Conn.send_forever conn;
          conn)
    in
    (* Flow 0 traverses the whole chain; its stamps cover every switch. *)
    let watched = Fabric.Conn.key (List.hd conns) in
    let ts = Harness.new_timeseries net in
    Obs.Int_sink.watch (Obs.Runtime.int_sink ()) ~ts watched;
    let sink = Obs.Int_sink.create () in
    let sub =
      Acdc.Int_feedback.subscribe ~flow:watched (fun ~now ~flow hops ->
          Obs.Int_sink.absorb sink ~now ~flow ~hops ~exceeded:false)
    in
    let tputs =
      Harness.measure_goodput net conns ~warmup:(Time_ns.ms 200)
        ~duration:(Time_ns.sec duration)
    in
    Acdc.Int_feedback.unsubscribe sub;
    Fabric.Topology.shutdown net;
    Harness.finish_timeseries ts;
    {
      scheme = scheme.Harness.label;
      senders;
      watched;
      stacks = Obs.Int_sink.packets sink;
      tputs;
      hops = Obs.Int_sink.rows sink;
    }

  let print result =
    Harness.print_header "ext-int-hops"
      (Printf.sprintf
         "per-hop latency attribution on the %d-switch parking lot (INT via Int_feedback)"
         result.senders);
    Harness.print_row "scheme" "%s" result.scheme;
    Harness.print_row "watched flow" "%a (%d stamped stacks)" Dcpkt.Flow_key.pp result.watched
      result.stacks;
    Harness.print_row "goodput (Gbps)" "%a" Harness.pp_gbps_list result.tputs;
    Obs.Int_sink.pp_rows Format.std_formatter result.hops
end
