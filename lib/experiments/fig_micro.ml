module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns

module Fig6 = struct
  type point = { limit_mss : int; cwnd_gbps : float; rwnd_gbps : float }

  type result = { mtu : int; points : point list }

  let one_flow ~params ~acdc ~config ~duration =
    let engine = Engine.create () in
    let net = Fabric.Topology.star engine ~params ~acdc ~hosts:2 () in
    let conn =
      Fabric.Conn.establish ~src:(Fabric.Topology.host net 0) ~dst:(Fabric.Topology.host net 1)
        ~config ()
    in
    Fabric.Conn.send_forever conn;
    let tputs =
      Harness.measure_goodput net [ conn ] ~warmup:(Time_ns.ms 100)
        ~duration:(Time_ns.sec duration)
    in
    Fabric.Topology.shutdown net;
    List.hd tputs

  let run ?(mtu = 9000) ?(duration = 0.4) () =
    let params = Fabric.Params.with_mtu Fabric.Params.default mtu in
    let mss = Fabric.Params.mss params in
    let limits =
      if mtu >= 9000 then [ 1; 2; 3; 4; 6; 8; 10; 12; 16 ]
      else [ 1; 2; 5; 10; 25; 50; 75; 100; 150; 200; 250 ]
    in
    let cubic_cfg = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
    let points =
      List.map
        (fun limit ->
          let clamp = limit * mss in
          (* (a) the tenant clamps its own CWND (snd_cwnd_clamp)... *)
          let cwnd_gbps =
            one_flow ~params ~acdc:Fabric.Topology.no_acdc
              ~config:{ cubic_cfg with max_cwnd = Some clamp }
              ~duration
          in
          (* (b) ...vs AC/DC clamping RWND in the vSwitch (§3.4). *)
          let acdc_cfg = Fabric.Params.acdc_config params in
          let acdc_cfg =
            {
              acdc_cfg with
              Acdc.Config.policy =
                (fun _ -> { Acdc.Config.default_policy with max_rwnd = Some clamp });
              min_window_bytes = Stdlib.min clamp mss;
            }
          in
          let rwnd_gbps =
            one_flow ~params ~acdc:(fun _ -> Some acdc_cfg) ~config:cubic_cfg ~duration
          in
          { limit_mss = limit; cwnd_gbps; rwnd_gbps })
        limits
    in
    { mtu; points }

  let print result =
    Harness.print_header "Figure 6"
      (Printf.sprintf "RWND clamping controls throughput like CWND clamping (MTU %d)"
         result.mtu);
    Harness.print_row "limit (MSS)" "%8s %12s %12s" "" "CWND Gbps" "RWND Gbps";
    List.iter
      (fun p ->
        Harness.print_row (string_of_int p.limit_mss) "%8s %12.2f %12.2f" "" p.cwnd_gbps
          p.rwnd_gbps)
      result.points
end

module Fig8 = struct
  type per_scheme = {
    scheme : string;
    tputs : float list;
    fairness : float;
    rtt_ms : Dcstats.Samples.t;
  }

  type result = per_scheme list

  let schemes = [ Harness.cubic; Harness.dctcp; Harness.acdc () ]

  let dumbbell_run scheme ~duration =
    let net = Harness.dumbbell scheme ~pairs:5 () in
    let conns = Harness.long_lived_pairs net scheme ~pairs:5 in
    let probe =
      Workload.Probe.start
        ~src:(Fabric.Topology.host net 0)
        ~dst:(Fabric.Topology.host net 5)
        ~config:(Harness.host_config scheme net.Fabric.Topology.params)
        ()
    in
    let tputs =
      Harness.measure_goodput net conns ~warmup:(Time_ns.ms 200) ~duration:(Time_ns.sec duration)
    in
    Fabric.Topology.shutdown net;
    {
      scheme = scheme.Harness.label;
      tputs;
      fairness = Dcstats.Fairness.index (Array.of_list tputs);
      rtt_ms = Workload.Probe.samples_ms probe;
    }

  let parking_lot_run scheme ~duration =
    let params = Harness.params_for scheme Fabric.Params.default in
    let engine = Engine.create () in
    let net =
      Fabric.Topology.parking_lot engine ~params ~acdc:(Harness.acdc_select scheme params)
        ~senders:4 ()
    in
    let config = Harness.host_config scheme params in
    let receiver = Fabric.Topology.host net 4 in
    let conns =
      List.init 4 (fun i ->
          let conn =
            Fabric.Conn.establish ~src:(Fabric.Topology.host net i) ~dst:receiver ~config ()
          in
          Fabric.Conn.send_forever conn;
          conn)
    in
    let probe = Workload.Probe.start ~src:(Fabric.Topology.host net 0) ~dst:receiver ~config () in
    let tputs =
      Harness.measure_goodput net conns ~warmup:(Time_ns.ms 200) ~duration:(Time_ns.sec duration)
    in
    Fabric.Topology.shutdown net;
    {
      scheme = scheme.Harness.label;
      tputs;
      fairness = Dcstats.Fairness.index (Array.of_list tputs);
      rtt_ms = Workload.Probe.samples_ms probe;
    }

  let run ?(duration = 1.5) () = List.map (dumbbell_run ~duration) schemes

  let run_parking_lot ?(duration = 1.5) () = List.map (parking_lot_run ~duration) schemes

  let print result =
    Harness.print_header "Figure 8" "RTT on the dumbbell: AC/DC tracks DCTCP, not CUBIC";
    List.iter
      (fun r ->
        Harness.print_row r.scheme "tput=%a fairness=%.3f rtt_p50=%.3fms rtt_p999=%.3fms"
          Harness.pp_gbps_list r.tputs r.fairness
          (Harness.pctl r.rtt_ms 50.0)
          (Harness.pctl r.rtt_ms 99.9))
      result;
    List.iter (fun r -> Harness.print_cdf ~label:(r.scheme ^ " RTT ms") r.rtt_ms) result
end

module Table1 = struct
  type row = {
    label : string;
    rtt_p50_us : float;
    rtt_p99_us : float;
    avg_tput_gbps : float;
    fairness : float;
  }

  type result = { mtu : int; rows : row list }

  let measure scheme ~label ~params ~duration =
    let net = Harness.dumbbell scheme ~params ~pairs:5 () in
    let conns = Harness.long_lived_pairs net scheme ~pairs:5 in
    let probe =
      Workload.Probe.start
        ~src:(Fabric.Topology.host net 0)
        ~dst:(Fabric.Topology.host net 5)
        ~config:(Harness.host_config scheme net.Fabric.Topology.params)
        ()
    in
    let tputs =
      Harness.measure_goodput net conns ~warmup:(Time_ns.ms 200) ~duration:(Time_ns.sec duration)
    in
    Fabric.Topology.shutdown net;
    let samples = Workload.Probe.samples_ms probe in
    {
      label;
      rtt_p50_us = Harness.pctl samples 50.0 *. 1000.0;
      rtt_p99_us = Harness.pctl samples 99.0 *. 1000.0;
      avg_tput_gbps = List.fold_left ( +. ) 0.0 tputs /. float_of_int (List.length tputs);
      fairness = Dcstats.Fairness.index (Array.of_list tputs);
    }

  let run ?(mtu = 9000) ?(duration = 1.0) () =
    let params = Fabric.Params.with_mtu Fabric.Params.default mtu in
    let acdc_rows =
      List.map
        (fun (name, cc) ->
          let host_ecn = String.equal name "dctcp" in
          measure (Harness.acdc ~host_cc:cc ~host_ecn ()) ~label:name ~params ~duration)
        Tcp.Cc_registry.all
    in
    let rows =
      measure Harness.cubic ~label:"CUBIC*" ~params ~duration
      :: measure Harness.dctcp ~label:"DCTCP*" ~params ~duration
      :: acdc_rows
    in
    { mtu; rows }

  let print result =
    Harness.print_header "Table 1"
      (Printf.sprintf "AC/DC works with many congestion control variants (MTU %d)" result.mtu);
    Harness.print_row "host stack" "%12s %12s %12s %10s" "p50 RTT us" "p99 RTT us" "tput Gbps"
      "fairness";
    List.iter
      (fun r ->
        Harness.print_row r.label "%12.0f %12.0f %12.2f %10.3f" r.rtt_p50_us r.rtt_p99_us
          r.avg_tput_gbps r.fairness)
      result.rows
end

(* Shared machinery for the window-tracking figures, both at 1.5 KB MTU. *)
let window_trace ~host_cc ~host_ecn ~log_only ~duration =
  let params =
    Fabric.Params.with_ecn (Fabric.Params.with_mtu Fabric.Params.default 1500)
  in
  let mss = float_of_int (Fabric.Params.mss params) in
  let engine = Engine.create () in
  let acdc_cfg = { (Fabric.Params.acdc_config params) with Acdc.Config.log_only } in
  let net = Fabric.Topology.dumbbell engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~pairs:5 () in
  let config = Fabric.Params.tcp_config params ~cc:host_cc ~ecn:host_ecn in
  (* Five competing flows, as in the Fig. 7a experiment the paper reuses. *)
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
  let traced = List.hd conns in
  (* Large budgets: the aligned-stats comparison below wants the raw
     per-ACK signal, so decimation should stay a safety net, not the
     common case. *)
  let ts = Obs.Timeseries.create ~default_budget:65536 engine in
  let cwnd_ch = Obs.Timeseries.channel ts ~unit_label:"MSS" "flow0.cwnd_mss" in
  Tcp.Endpoint.add_cwnd_hook (Fabric.Conn.client traced) (fun time w ->
      Obs.Timeseries.record cwnd_ch ~now:time (float_of_int w /. mss));
  let rwnd_ch = Obs.Timeseries.channel ts ~unit_label:"MSS" "flow0.rwnd_mss" in
  (match Fabric.Host.acdc (Fabric.Topology.host net 0) with
  | Some instance ->
    Acdc.Sender.set_window_hook (Acdc.sender instance) (fun key time w ->
        if Dcpkt.Flow_key.equal key (Fabric.Conn.key traced) then
          Obs.Timeseries.record rwnd_ch ~now:time (float_of_int w /. mss))
  | None -> assert false);
  Engine.run ~until:(Time_ns.sec duration) engine;
  Harness.finish_timeseries ts;
  Fabric.Topology.shutdown net;
  (Obs.Timeseries.points cwnd_ch, Obs.Timeseries.points rwnd_ch)

(* Resample both series onto a grid and compare. *)
let aligned_stats cwnd rwnd ~until =
  let grid_step = Time_ns.ms 1 in
  let value_at series time =
    let rec last best = function
      | (t, v) :: rest when t <= time -> last (Some v) rest
      | _ -> best
    in
    last None series
  in
  let points = until / grid_step in
  let diffs = ref [] and limiting = ref 0 and total = ref 0 in
  for i = 1 to points do
    let time = i * grid_step in
    match (value_at cwnd time, value_at rwnd time) with
    | Some c, Some r ->
      incr total;
      diffs := Float.abs (c -. r) :: !diffs;
      if r < c then incr limiting
    | _ -> ()
  done;
  let mae =
    match !diffs with
    | [] -> nan
    | d -> List.fold_left ( +. ) 0.0 d /. float_of_int (List.length d)
  in
  let frac = if !total = 0 then nan else float_of_int !limiting /. float_of_int !total in
  (mae, frac)

module Fig9 = struct
  type result = {
    host_cwnd : (Time_ns.t * float) list;
    acdc_rwnd : (Time_ns.t * float) list;
    mean_abs_error_mss : float;
  }

  let run ?(duration = 1.0) () =
    let host_cwnd, acdc_rwnd =
      window_trace ~host_cc:Tcp.Dctcp_cc.factory ~host_ecn:true ~log_only:true ~duration
    in
    let mae, _ = aligned_stats host_cwnd acdc_rwnd ~until:(Time_ns.sec duration) in
    { host_cwnd; acdc_rwnd; mean_abs_error_mss = mae }

  let print result =
    Harness.print_header "Figure 9" "AC/DC's RWND tracks DCTCP's CWND (log-only mode)";
    Harness.print_row "cwnd samples" "%d" (List.length result.host_cwnd);
    Harness.print_row "rwnd samples" "%d" (List.length result.acdc_rwnd);
    Harness.print_row "mean |cwnd - rwnd|" "%.2f MSS" result.mean_abs_error_mss;
    let show label series =
      let first_100ms =
        List.filter (fun (t, _) -> t <= Time_ns.ms 100) series
        |> List.filteri (fun i _ -> i mod 5 = 0)
      in
      Format.printf "  %s (first 100 ms, decimated):@." label;
      List.iter (fun (t, v) -> Format.printf "    %8.2fms %6.1f@." (Time_ns.to_ms t) v)
        first_100ms
    in
    show "DCTCP CWND (MSS)" result.host_cwnd;
    show "AC/DC RWND (MSS)" result.acdc_rwnd
end

module Fig10 = struct
  type result = {
    host_cwnd : (Time_ns.t * float) list;
    acdc_rwnd : (Time_ns.t * float) list;
    fraction_rwnd_limiting : float;
  }

  let run ?(duration = 1.0) () =
    let host_cwnd, acdc_rwnd =
      window_trace ~host_cc:Tcp.Cubic.factory ~host_ecn:false ~log_only:false ~duration
    in
    let _, frac = aligned_stats host_cwnd acdc_rwnd ~until:(Time_ns.sec duration) in
    { host_cwnd; acdc_rwnd; fraction_rwnd_limiting = frac }

  let print result =
    Harness.print_header "Figure 10" "who limits throughput when AC/DC runs under CUBIC?";
    Harness.print_row "fraction of time RWND < CWND" "%.3f" result.fraction_rwnd_limiting;
    Harness.print_row "cwnd samples" "%d" (List.length result.host_cwnd);
    Harness.print_row "rwnd samples" "%d" (List.length result.acdc_rwnd)
end
