module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns

module Fig13 = struct
  type experiment = { betas : float list; tputs : float list }

  type result = experiment list

  (* The paper's beta combinations, written on a 4-point scale. *)
  let combinations =
    [
      [ 2; 2; 2; 2; 2 ];
      [ 2; 2; 1; 1; 1 ];
      [ 2; 2; 2; 1; 1 ];
      [ 3; 2; 2; 1; 1 ];
      [ 3; 3; 2; 2; 1 ];
      [ 4; 4; 4; 0; 0 ];
    ]

  let one ~betas ~duration =
    let params = Fabric.Params.with_ecn Fabric.Params.default in
    let engine = Engine.create () in
    let beta_arr = Array.of_list betas in
    (* Flow i is sender host i; give each sender's AC/DC a policy keyed on
       the source address. *)
    let acdc_cfg =
      {
        (Fabric.Params.acdc_config params) with
        Acdc.Config.policy =
          (fun key ->
            let src = key.Dcpkt.Flow_key.src_ip in
            let beta = if src < Array.length beta_arr then beta_arr.(src) else 1.0 in
            { Acdc.Config.default_policy with beta });
      }
    in
    let net = Fabric.Topology.dumbbell engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~pairs:5 () in
    let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
    let conns =
      List.init 5 (fun i ->
          let conn =
            Fabric.Conn.establish
              ~src:(Fabric.Topology.host net i)
              ~dst:(Fabric.Topology.host net (5 + i))
              ~config ()
          in
          Fabric.Conn.send_forever conn;
          conn)
    in
    let tputs =
      Harness.measure_goodput net conns ~warmup:(Time_ns.ms 300) ~duration:(Time_ns.sec duration)
    in
    Fabric.Topology.shutdown net;
    { betas; tputs }

  let run ?(duration = 1.5) () =
    List.map
      (fun quarters ->
        one ~betas:(List.map (fun q -> float_of_int q /. 4.0) quarters) ~duration)
      combinations

  let print result =
    Harness.print_header "Figure 13" "QoS-based congestion control: throughput follows beta";
    List.iter
      (fun e ->
        let label =
          "[" ^ String.concat "," (List.map (fun b -> Printf.sprintf "%g" (b *. 4.0)) e.betas)
          ^ "]/4"
        in
        Harness.print_row label "%a Gbps" Harness.pp_gbps_list e.tputs)
      result
end

module Fig14 = struct
  type per_scheme = {
    scheme : string;
    series : (float * float) list array;
    drop_rate : float;
  }

  type result = per_scheme list

  (* Flows join, then leave, one second apart (the paper's 30 s,
     time-scaled); goodput is binned every 100 ms. *)
  let step_ns = Time_ns.sec 1.0
  let bin = Time_ns.sec 0.1

  let one scheme =
    let net = Harness.dumbbell scheme ~pairs:5 () in
    let engine = net.Fabric.Topology.engine in
    let config = Harness.host_config scheme net.Fabric.Topology.params in
    let total = Time_ns.ns (10 * step_ns) in
    let ts = Harness.new_timeseries net in
    (* Record cumulative acked bytes (a level, not an increment) so the
       channel stays a valid byte counter under decimation; binned_rate
       recovers the per-bin goodput by differencing at the edges. *)
    let byte_chans =
      Array.init 5 (fun i ->
          Obs.Timeseries.channel ts ~unit_label:"bytes"
            (Printf.sprintf "%s.flow%d.bytes_acked" scheme.Harness.label i))
    in
    List.iteri
      (fun i () ->
        let start = Time_ns.ns (i * step_ns) in
        let stop_at = Time_ns.ns ((9 - i) * step_ns) in
        let conn =
          Fabric.Conn.establish
            ~src:(Fabric.Topology.host net i)
            ~dst:(Fabric.Topology.host net (5 + i))
            ~config ~at:start ()
        in
        let client = Fabric.Conn.client conn in
        Tcp.Endpoint.set_bytes_hook client (fun time _bytes ->
            Obs.Timeseries.record byte_chans.(i) ~now:time
              (float_of_int (Tcp.Endpoint.bytes_acked client)));
        Fabric.Conn.send_forever conn;
        Engine.schedule engine ~at:stop_at (fun () -> Fabric.Conn.stop conn))
      (List.init 5 (fun _ -> ()));
    Engine.run ~until:total engine;
    let drop_rate = Fabric.Topology.drop_rate net in
    Harness.finish_timeseries ts;
    Fabric.Topology.shutdown net;
    {
      scheme = scheme.Harness.label;
      series =
        Array.map
          (fun ch -> Obs.Timeseries.binned_rate ch ~bin ~until:total)
          byte_chans;
      drop_rate;
    }

  let run () = List.map one [ Harness.cubic; Harness.dctcp; Harness.acdc () ]

  let print result =
    Harness.print_header "Figure 14" "convergence: flows join then leave the bottleneck";
    List.iter
      (fun r ->
        Harness.print_row r.scheme "drop rate %.4f%%" (100.0 *. r.drop_rate);
        (* Sample a few instants: after each join/leave the allocation
           should be the fair share. *)
        let arr = r.series in
        let at_time series t =
          let rec find = function
            | (t1, v) :: rest -> if t1 >= t then v else find rest
            | [] -> 0.0
          in
          find series
        in
        let active_counts = [ 1; 2; 3; 4; 5; 4; 3; 2; 1 ] in
        List.iteri
          (fun epoch expected ->
            let t = (float_of_int epoch +. 0.5) in
            let tputs = Array.to_list (Array.map (fun s -> at_time s t) arr) in
            let live = List.filter (fun v -> v > 0.05) tputs in
            Harness.print_row
              (Printf.sprintf "  epoch %d (%d flows)" epoch expected)
              "%a Gbps (live=%d)" Harness.pp_gbps_list tputs (List.length live))
          active_counts)
      result
end

module Fig15 = struct
  type pair = { cubic_gbps : float; dctcp_gbps : float; cubic_rtt_ms : Dcstats.Samples.t }

  type result = { without_acdc : pair; with_acdc : pair }

  let one ~with_acdc ~duration =
    let params = Fabric.Params.with_ecn Fabric.Params.default in
    let engine = Engine.create () in
    let acdc =
      if with_acdc then Fabric.Topology.acdc_everywhere params else Fabric.Topology.no_acdc
    in
    let net = Fabric.Topology.dumbbell engine ~params ~acdc ~pairs:2 () in
    let cubic_cfg = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
    let dctcp_cfg = Fabric.Params.tcp_config params ~cc:Tcp.Dctcp_cc.factory ~ecn:true in
    let cubic_conn =
      Fabric.Conn.establish ~src:(Fabric.Topology.host net 0) ~dst:(Fabric.Topology.host net 2)
        ~config:cubic_cfg ()
    in
    let dctcp_conn =
      Fabric.Conn.establish ~src:(Fabric.Topology.host net 1) ~dst:(Fabric.Topology.host net 3)
        ~config:dctcp_cfg ()
    in
    Fabric.Conn.send_forever cubic_conn;
    Fabric.Conn.send_forever dctcp_conn;
    let probe =
      Workload.Probe.start
        ~src:(Fabric.Topology.host net 0)
        ~dst:(Fabric.Topology.host net 2)
        ~config:cubic_cfg ()
    in
    let tputs =
      Harness.measure_goodput net [ cubic_conn; dctcp_conn ] ~warmup:(Time_ns.ms 200)
        ~duration:(Time_ns.sec duration)
    in
    Fabric.Topology.shutdown net;
    match tputs with
    | [ cubic_gbps; dctcp_gbps ] ->
      { cubic_gbps; dctcp_gbps; cubic_rtt_ms = Workload.Probe.samples_ms probe }
    | _ -> assert false

  let run ?(duration = 1.5) () =
    { without_acdc = one ~with_acdc:false ~duration; with_acdc = one ~with_acdc:true ~duration }

  let print result =
    Harness.print_header "Figures 15-16" "ECN coexistence: CUBIC next to DCTCP";
    let show label p =
      Harness.print_row label "CUBIC=%.2f Gbps DCTCP=%.2f Gbps cubic_rtt_p50=%.3f ms p99=%.3f ms"
        p.cubic_gbps p.dctcp_gbps
        (Harness.pctl p.cubic_rtt_ms 50.0)
        (Harness.pctl p.cubic_rtt_ms 99.0)
    in
    show "without AC/DC" result.without_acdc;
    show "with AC/DC" result.with_acdc
end

module Fig17 = struct
  type trial = Fig_motivation.Fig1.trial

  type result = { all_dctcp : trial list; hetero_acdc : trial list }

  let hetero_acdc_trial ~duration ~seed =
    let params = Fabric.Params.with_ecn Fabric.Params.default in
    let engine = Engine.create () in
    let net =
      Fabric.Topology.dumbbell engine ~params ~acdc:(Fabric.Topology.acdc_everywhere params)
        ~pairs:5 ()
    in
    let rng = Eventsim.Rng.create ~seed in
    let conns =
      List.mapi
        (fun i cc ->
          let config = Fabric.Params.tcp_config params ~cc ~ecn:false in
          let at = Time_ns.us (Eventsim.Rng.int rng 5_000) in
          let conn =
            Fabric.Conn.establish
              ~src:(Fabric.Topology.host net i)
              ~dst:(Fabric.Topology.host net (5 + i))
              ~config ~at ()
          in
          Fabric.Conn.send_forever conn;
          conn)
        Fig_motivation.five_ccs
    in
    let tputs =
      Harness.measure_goodput net conns ~warmup:(Time_ns.ms 200) ~duration:(Time_ns.sec duration)
    in
    Fabric.Topology.shutdown net;
    Fig_motivation.Fig1.summarize tputs

  let all_dctcp_trial ~duration ~seed =
    let params = Fabric.Params.with_ecn Fabric.Params.default in
    let engine = Engine.create () in
    let net = Fabric.Topology.dumbbell engine ~params ~pairs:5 () in
    let rng = Eventsim.Rng.create ~seed in
    let config = Fabric.Params.tcp_config params ~cc:Tcp.Dctcp_cc.factory ~ecn:true in
    let conns =
      List.init 5 (fun i ->
          let at = Time_ns.us (Eventsim.Rng.int rng 5_000) in
          let conn =
            Fabric.Conn.establish
              ~src:(Fabric.Topology.host net i)
              ~dst:(Fabric.Topology.host net (5 + i))
              ~config ~at ()
          in
          Fabric.Conn.send_forever conn;
          conn)
    in
    let tputs =
      Harness.measure_goodput net conns ~warmup:(Time_ns.ms 200) ~duration:(Time_ns.sec duration)
    in
    Fabric.Topology.shutdown net;
    Fig_motivation.Fig1.summarize tputs

  let run ?(duration = 1.0) () =
    {
      all_dctcp = List.init 10 (fun i -> all_dctcp_trial ~duration ~seed:(3000 + i));
      hetero_acdc = List.init 10 (fun i -> hetero_acdc_trial ~duration ~seed:(4000 + i));
    }

  let print result =
    Harness.print_header "Figure 17" "heterogeneous stacks under AC/DC are as fair as DCTCP";
    let show label trials =
      Format.printf "  %s:@." label;
      List.iteri
        (fun i t ->
          Harness.print_row
            (Printf.sprintf "  test %d" (i + 1))
            "max=%.2f min=%.2f mean=%.2f median=%.2f Gbps (fairness %.3f)"
            t.Fig_motivation.Fig1.max t.Fig_motivation.Fig1.min t.Fig_motivation.Fig1.mean
            t.Fig_motivation.Fig1.median
            (Fig_motivation.Fig1.fairness t))
        trials
    in
    show "(a) all DCTCP" result.all_dctcp;
    show "(b) 5 different CCs under AC/DC" result.hetero_acdc
end
