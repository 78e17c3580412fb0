(* smoke: a fast end-to-end run for CI — exercises the switches, the
   vSwitch datapath and the AC/DC hooks in well under a second so the
   workflow can gate a real run report on every push. *)

let pairs = 5
let warmup_ms = 20
let duration_ms = 80

let run report =
  Harness.print_header "smoke" "5-pair AC/DC dumbbell, 100 ms";
  let scheme = Harness.acdc () in
  (* INT and FCT attribution on for the simulation: every switch stamps
     per-hop telemetry and the report grows deterministic "int" and
     "fct_attrib" sections that the report_diff gate tracks.  Both flags go
     back the way they were found, so a driver's --int or --attrib holds
     for any id that follows. *)
  let int_was = Dcpkt.Int_meta.enabled () in
  let attrib = Obs.Runtime.attrib () in
  let attrib_was = Obs.Attrib.enabled attrib in
  Dcpkt.Int_meta.set_enabled true;
  Obs.Attrib.set_enabled attrib true;
  let net = Harness.dumbbell scheme ~pairs () in
  let conns = Harness.long_lived_pairs net scheme ~pairs in
  (* Instrument the run: switch queues, one flow's enforced window, flow
     0's per-hop INT samples and stall clocks, the aggregate goodput
     counter and a sockperf-style RTT probe all feed the run report. *)
  let ts = Harness.new_timeseries net in
  let flow0 = Fabric.Conn.key (List.hd conns) in
  Obs.Int_sink.watch (Obs.Runtime.int_sink ()) ~ts flow0;
  Obs.Attrib.watch attrib ~ts flow0;
  let sample_every = Eventsim.Time_ns.us 500 in
  Array.iter
    (fun sw -> Netsim.Switch.register_probes sw ~ts ~interval:sample_every ())
    net.Fabric.Topology.switches;
  (match Fabric.Host.acdc (Fabric.Topology.host net 0) with
  | Some instance ->
    Acdc.Sender.register_flow_probes (Acdc.sender instance) ~ts ~prefix:"flow0"
      ~interval:sample_every flow0
  | None -> ());
  ignore
    (Workload.Goodput.track_aggregate ts ~name:"goodput.bytes_acked" ~interval:sample_every
       conns);
  let probe =
    Workload.Probe.start
      ~src:(Fabric.Topology.host net 0)
      ~dst:(Fabric.Topology.host net pairs)
      ~config:(Harness.host_config scheme net.Fabric.Topology.params)
      ~warmup:(Eventsim.Time_ns.ms warmup_ms) ()
  in
  let tputs =
    Harness.measure_goodput net conns
      ~warmup:(Eventsim.Time_ns.ms warmup_ms)
      ~duration:(Eventsim.Time_ns.ms duration_ms)
  in
  Harness.finish_timeseries ts;
  Fabric.Topology.shutdown net;
  Dcpkt.Int_meta.set_enabled int_was;
  Obs.Attrib.set_enabled attrib attrib_was;
  let drops = Fabric.Topology.total_switch_drops net in
  Format.printf "  goodput %a Gbps, %d switch drops@." Harness.pp_gbps_list tputs drops;
  Obs.Report.add_config report "scheme" (Obs.Json.String scheme.Harness.label);
  Obs.Report.add_config report "pairs" (Obs.Json.Int pairs);
  Obs.Report.add_config report "warmup_ms" (Obs.Json.Int warmup_ms);
  Obs.Report.add_config report "duration_ms" (Obs.Json.Int duration_ms);
  Obs.Report.add_int report "flows" (List.length tputs);
  Obs.Report.add_scalar report "aggregate_goodput_gbps" (List.fold_left ( +. ) 0.0 tputs);
  Obs.Report.add_int report "switch_drops" drops;
  Obs.Report.add_samples report ~name:"probe_rtt_ms" ~unit_label:"ms"
    (Workload.Probe.samples_ms probe);
  Obs.Report.embed_timeseries report ts;
  (* The event core's cost, so it cannot silently grow: the report_diff
     gate watches the 4096-pending churn row. *)
  let rows = Fig_cpu.scheduler_rows ~quota:0.05 in
  Fig_cpu.print_rows rows;
  match List.assoc_opt "scheduler/wheel/churn-04096" rows with
  | Some ns when ns > 0.0 -> Obs.Report.add_scalar report "sched_wheel_ns_per_op" ns
  | _ -> ()
