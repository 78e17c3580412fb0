module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns

let five_ccs =
  [
    Tcp.Illinois.factory;
    Tcp.Cubic.factory;
    Tcp.Reno.factory;
    Tcp.Vegas.factory;
    Tcp.Highspeed.factory;
  ]

module Fig1 = struct
  type trial = { tputs : float list; max : float; min : float; mean : float; median : float }

  type result = { hetero : trial list; homo_cubic : trial list }

  let summarize tputs =
    let sorted = List.sort Float.compare tputs in
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    {
      tputs;
      max = arr.(n - 1);
      min = arr.(0);
      mean = List.fold_left ( +. ) 0.0 tputs /. float_of_int n;
      median = arr.(n / 2);
    }

  (* One dumbbell trial: flow i uses [ccs.(i)]; a small start offset breaks
     symmetry between trials (the paper's trials differ by wall-clock
     phase). *)
  let trial ~ccs ~duration ~seed =
    let engine = Engine.create () in
    let params = Fabric.Params.default in
    let net = Fabric.Topology.dumbbell engine ~params ~pairs:5 () in
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
        ccs
    in
    let tputs =
      Harness.measure_goodput net conns ~warmup:(Time_ns.ms 200)
        ~duration:(Time_ns.sec duration)
    in
    Fabric.Topology.shutdown net;
    summarize tputs

  let run ?(duration = 1.0) () =
    let hetero = List.init 10 (fun i -> trial ~ccs:five_ccs ~duration ~seed:(1000 + i)) in
    let homo_cubic =
      List.init 10 (fun i ->
          trial ~ccs:(List.init 5 (fun _ -> Tcp.Cubic.factory)) ~duration ~seed:(2000 + i))
    in
    { hetero; homo_cubic }

  let fairness trial = Dcstats.Fairness.index (Array.of_list trial.tputs)

  let print result =
    Harness.print_header "Figure 1" "different congestion controls lead to unfairness";
    let show label trials =
      Format.printf "  %s:@." label;
      List.iteri
        (fun i t ->
          Harness.print_row
            (Printf.sprintf "  test %d" (i + 1))
            "max=%.2f min=%.2f mean=%.2f median=%.2f Gbps (fairness %.3f)" t.max t.min t.mean
            t.median (fairness t))
        trials
    in
    show "(a) 5 different CCs (Illinois/CUBIC/Reno/Vegas/HighSpeed)" result.hetero;
    show "(b) all CUBIC" result.homo_cubic
end

module Fig2 = struct
  type result = { cubic_rl_rtt : Dcstats.Samples.t; dctcp_rtt : Dcstats.Samples.t }

  (* The probe runs the same stack as the scheme under test (sockperf on
     the same hosts): a non-ECT probe would be starved by WRED on the
     DCTCP fabric. *)
  let probe_on net config =
    Workload.Probe.start
      ~src:(Fabric.Topology.host net 0)
      ~dst:(Fabric.Topology.host net 5)
      ~config ()

  let cubic_rate_limited ~duration =
    let engine = Engine.create () in
    (* "Perfect" per-flow allocation: every sender NIC clamped to the
       2 Gb/s fair share, CUBIC as the stack, no ECN anywhere. *)
    let params = { Fabric.Params.default with nic_rate_bps = Some 2_000_000_000 } in
    let net = Fabric.Topology.dumbbell engine ~params ~pairs:5 () in
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
    ignore conns;
    let probe = probe_on net config in
    Engine.run ~until:(Time_ns.sec duration) engine;
    Fabric.Topology.shutdown net;
    Workload.Probe.samples_ms probe

  let dctcp_unlimited ~duration =
    let net = Harness.dumbbell Harness.dctcp ~pairs:5 () in
    let conns = Harness.long_lived_pairs net Harness.dctcp ~pairs:5 in
    ignore conns;
    let probe = probe_on net (Harness.host_config Harness.dctcp net.Fabric.Topology.params) in
    Engine.run ~until:(Time_ns.sec duration) net.Fabric.Topology.engine;
    Fabric.Topology.shutdown net;
    Workload.Probe.samples_ms probe

  let run ?(duration = 1.5) () =
    {
      cubic_rl_rtt = cubic_rate_limited ~duration;
      dctcp_rtt = dctcp_unlimited ~duration;
    }

  let print result =
    Harness.print_header "Figure 2" "CUBIC fills buffers even under perfect rate limiting";
    Harness.print_cdf ~label:"CUBIC (RL=2Gbps) RTT ms" result.cubic_rl_rtt;
    Harness.print_cdf ~label:"DCTCP RTT ms" result.dctcp_rtt
end
