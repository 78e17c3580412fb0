module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns

module Load_sweep = struct
  type row = {
    scheme : string;
    load : float;
    flows : int;
    mice_p50_ms : float;
    mice_p99_ms : float;
  }

  type result = row list

  let one scheme ~hosts ~load ~duration =
    let net = Harness.star scheme ~hosts () in
    let engine = net.Fabric.Topology.engine in
    let config = Harness.host_config scheme net.Fabric.Topology.params in
    let fct_ms = Dcstats.Samples.create () in
    let mice_fct_ms = Dcstats.Samples.create () in
    let gen =
      Workload.Open_loop.start ~net ~config ~dist:Workload.Dist.web_search ~load ~fct_ms
        ~mice_fct_ms ()
    in
    Engine.run ~until:(Time_ns.sec duration) engine;
    Workload.Open_loop.stop gen;
    Fabric.Topology.shutdown net;
    {
      scheme = scheme.Harness.label;
      load;
      flows = Workload.Open_loop.flows_completed gen;
      mice_p50_ms = Harness.pctl mice_fct_ms 50.0;
      mice_p99_ms = Harness.pctl mice_fct_ms 99.0;
    }

  let run ?(hosts = 9) ?(duration = 1.5) () =
    List.concat_map
      (fun scheme -> List.map (fun load -> one scheme ~hosts ~load ~duration) [ 0.2; 0.4; 0.6 ])
      [ Harness.cubic; Harness.acdc () ]

  let print result =
    Harness.print_header "load sweep"
      "open-loop web-search arrivals: mice FCT vs load (extension)";
    Harness.print_row "scheme @ load" "%8s %12s %12s" "flows" "mice p50 ms" "mice p99 ms";
    List.iter
      (fun r ->
        Harness.print_row
          (Printf.sprintf "%s @ %.1f" r.scheme r.load)
          "%8d %12.3f %12.3f" r.flows r.mice_p50_ms r.mice_p99_ms)
      result
end
