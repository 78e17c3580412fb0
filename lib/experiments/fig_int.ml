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
  type hop_row = {
    label : string;  (* "<switch>:<port>", in path order *)
    samples : int;
    p50_us : float;
    p99_us : float;
    max_us : float;
    share : float;  (* of the flow's total stamped sojourn *)
    max_qbytes : int;
    mean_svc_gbps : float;
  }

  type result = {
    scheme : string;
    senders : int;
    watched : Dcpkt.Flow_key.t;
    stacks : int;  (* stripped stacks delivered to the feedback channel *)
    tputs : float list;
    hops : hop_row list;
  }

  type hop_acc = {
    order : int;
    sojourn : Dcstats.Samples.t;
    mutable sum_sojourn : int;
    mutable max_q : int;
    mutable svc_sum : float;
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
    Obs.Int_sink.watch (Obs.Runtime.int_sink ()) ~ts ~prefix:"flow0" watched;
    let acc : (string, hop_acc) Hashtbl.t = Hashtbl.create 8 in
    let stacks = ref 0 in
    let next_order = ref 0 in
    let sub =
      Acdc.Int_feedback.subscribe ~flow:watched (fun ~now:_ ~flow:_ hops ->
          incr stacks;
          Array.iter
            (fun (h : Int_meta.hop) ->
              let label = Int_meta.hop_label h in
              let a =
                match Hashtbl.find_opt acc label with
                | Some a -> a
                | None ->
                  let a =
                    {
                      order = !next_order;
                      sojourn = Dcstats.Samples.create ();
                      sum_sojourn = 0;
                      max_q = 0;
                      svc_sum = 0.0;
                    }
                  in
                  incr next_order;
                  Hashtbl.replace acc label a;
                  a
              in
              let s = Int_meta.sojourn_ns h in
              Dcstats.Samples.add a.sojourn (float_of_int s);
              a.sum_sojourn <- a.sum_sojourn + s;
              a.max_q <- Stdlib.max a.max_q h.qbytes;
              a.svc_sum <- a.svc_sum +. float_of_int h.svc_bps)
            hops)
    in
    let tputs =
      Harness.measure_goodput net conns ~warmup:(Time_ns.ms 200)
        ~duration:(Time_ns.sec duration)
    in
    Acdc.Int_feedback.unsubscribe sub;
    Fabric.Topology.shutdown net;
    Harness.finish_timeseries ts;
    let total =
      Hashtbl.fold (fun _ a sum -> sum + a.sum_sojourn) acc 0
    in
    let hops =
      Hashtbl.fold (fun label a rows -> (label, a) :: rows) acc []
      |> List.sort (fun (_, a) (_, b) -> compare a.order b.order)
      |> List.map (fun (label, a) ->
             let n = Dcstats.Samples.count a.sojourn in
             {
               label;
               samples = n;
               p50_us = Dcstats.Samples.percentile a.sojourn 50.0 /. 1000.0;
               p99_us = Dcstats.Samples.percentile a.sojourn 99.0 /. 1000.0;
               max_us = Dcstats.Samples.max a.sojourn /. 1000.0;
               share =
                 (if total = 0 then 0.0
                  else float_of_int a.sum_sojourn /. float_of_int total);
               max_qbytes = a.max_q;
               mean_svc_gbps = a.svc_sum /. float_of_int n /. 1e9;
             })
    in
    { scheme = scheme.Harness.label; senders; watched; stacks = !stacks; tputs; hops }

  let print result =
    Harness.print_header "ext-int-hops"
      (Printf.sprintf
         "per-hop latency attribution on the %d-switch parking lot (INT via Int_feedback)"
         result.senders);
    Harness.print_row "scheme" "%s" result.scheme;
    Harness.print_row "watched flow" "%a (%d stamped stacks)" Dcpkt.Flow_key.pp result.watched
      result.stacks;
    Harness.print_row "goodput (Gbps)" "%a" Harness.pp_gbps_list result.tputs;
    Harness.print_row "hop (path order)" "%8s %10s %10s %10s %7s %9s %9s" "pkts" "p50 us"
      "p99 us" "max us" "share" "max q B" "svc Gbps";
    List.iter
      (fun h ->
        Harness.print_row h.label "%8d %10.3f %10.3f %10.3f %6.1f%% %9d %9.2f" h.samples
          h.p50_us h.p99_us h.max_us (100.0 *. h.share) h.max_qbytes h.mean_svc_gbps)
      result.hops;
    match List.sort (fun a b -> compare b.share a.share) result.hops with
    | worst :: _ :: _ when worst.share > 0.0 ->
      Harness.print_row "bottleneck" "%s (%.1f%% of stamped sojourn, p99 %.3f us)" worst.label
        (100.0 *. worst.share) worst.p99_us
    | _ -> ()
end
