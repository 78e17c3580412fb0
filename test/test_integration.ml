(* End-to-end simulations asserting the paper's headline behaviours at
   reduced scale.  Durations are kept short; thresholds are generous so the
   suite is robust to parameter tweaks while still catching regressions in
   the protocol dynamics. *)

module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Topology = Fabric.Topology
module Params = Fabric.Params
module Conn = Fabric.Conn

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sum = List.fold_left ( +. ) 0.0

let fairness tputs = Dcstats.Fairness.index (Array.of_list tputs)

let dumbbell_run ?(pairs = 5) ?(duration = 0.5) scheme =
  let net = Experiments.Harness.dumbbell scheme ~pairs () in
  let conns = Experiments.Harness.long_lived_pairs net scheme ~pairs in
  let probe =
    Workload.Probe.start ~src:(Topology.host net 0) ~dst:(Topology.host net pairs)
      ~config:(Experiments.Harness.host_config scheme net.Topology.params)
      ()
  in
  let tputs =
    Experiments.Harness.measure_goodput net conns ~warmup:(Time_ns.ms 150)
      ~duration:(Time_ns.sec duration)
  in
  let drop_rate = Topology.drop_rate net in
  Topology.shutdown net;
  (tputs, Workload.Probe.samples_ms probe, drop_rate)

(* ------------------------------------------------------------------ *)

let test_single_flow_saturates_link () =
  let engine = Engine.create () in
  let net = Topology.star engine ~hosts:2 () in
  let conn =
    Conn.establish ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~config:(Params.tcp_config Params.default ~cc:Tcp.Cubic.factory ~ecn:false)
      ()
  in
  Conn.send_forever conn;
  Engine.run ~until:(Time_ns.sec 0.5) engine;
  let gbps = Conn.goodput_gbps conn ~over:(Time_ns.sec 0.5) in
  Topology.shutdown net;
  check_bool "saturates 10G" true (gbps > 9.0)

let test_cubic_shares_but_fills_buffers () =
  let tputs, rtt, _ = dumbbell_run Experiments.Harness.cubic in
  check_bool "aggregate near line rate" true (sum tputs > 9.0);
  check_bool "rtt inflated by queueing" true (Experiments.Harness.pctl rtt 50.0 > 1.0)

let test_dctcp_low_rtt_fair () =
  let tputs, rtt, drop_rate = dumbbell_run Experiments.Harness.dctcp in
  check_bool "aggregate near line rate" true (sum tputs > 9.0);
  check_bool "fair" true (fairness tputs > 0.98);
  check_bool "low rtt" true (Experiments.Harness.pctl rtt 50.0 < 0.5);
  check_bool "almost no drops" true (drop_rate < 0.001)

let test_acdc_tracks_dctcp_with_cubic_host () =
  let tputs, rtt, drop_rate = dumbbell_run (Experiments.Harness.acdc ()) in
  check_bool "aggregate near line rate" true (sum tputs > 9.0);
  check_bool "fair" true (fairness tputs > 0.98);
  check_bool "low rtt like DCTCP" true (Experiments.Harness.pctl rtt 50.0 < 0.5);
  check_bool "almost no drops" true (drop_rate < 0.001)

let test_acdc_works_across_host_stacks () =
  List.iter
    (fun (name, cc) ->
      let scheme = Experiments.Harness.acdc ~host_cc:cc ~host_ecn:(name = "dctcp") () in
      let tputs, rtt, _ = dumbbell_run ~duration:0.4 scheme in
      check_bool (name ^ " fair under AC/DC") true (fairness tputs > 0.95);
      check_bool (name ^ " low rtt under AC/DC") true
        (Experiments.Harness.pctl rtt 50.0 < 0.5))
    [ ("vegas", Tcp.Vegas.factory); ("highspeed", Tcp.Highspeed.factory) ]

let test_acdc_fixes_ecn_coexistence () =
  let result = Experiments.Fig_fairness.Fig15.run ~duration:0.5 () in
  let bad = result.Experiments.Fig_fairness.Fig15.without_acdc in
  let good = result.Experiments.Fig_fairness.Fig15.with_acdc in
  check_bool "non-ECT starved without AC/DC" true
    (bad.Experiments.Fig_fairness.Fig15.cubic_gbps
    < bad.Experiments.Fig_fairness.Fig15.dctcp_gbps /. 4.0);
  let ratio =
    good.Experiments.Fig_fairness.Fig15.cubic_gbps
    /. good.Experiments.Fig_fairness.Fig15.dctcp_gbps
  in
  check_bool "fair share with AC/DC" true (ratio > 0.6 && ratio < 1.6)

let test_policing_contains_cheater () =
  (* One conforming flow and one stack that ignores RWND, both under AC/DC
     with the policer on: the cheater must not starve the honest flow. *)
  let params = Params.with_ecn Params.default in
  let engine = Engine.create () in
  let acdc_cfg = { (Params.acdc_config params) with Acdc.Config.policing_slack = Some 0 } in
  let net = Topology.dumbbell engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~pairs:2 () in
  let honest_cfg = Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
  let cheat_cfg = { honest_cfg with Tcp.Endpoint.ignore_rwnd = true } in
  let honest =
    Conn.establish ~src:(Topology.host net 0) ~dst:(Topology.host net 2) ~config:honest_cfg ()
  in
  let cheater =
    Conn.establish ~src:(Topology.host net 1) ~dst:(Topology.host net 3) ~config:cheat_cfg ()
  in
  Conn.send_forever honest;
  Conn.send_forever cheater;
  let tputs =
    Experiments.Harness.measure_goodput net [ honest; cheater ] ~warmup:(Time_ns.ms 150)
      ~duration:(Time_ns.sec 0.5)
  in
  let drops =
    match Fabric.Host.acdc (Topology.host net 1) with
    | Some instance -> Acdc.Sender.policer_drops (Acdc.sender instance)
    | None -> 0
  in
  Topology.shutdown net;
  match tputs with
  | [ honest_gbps; cheat_gbps ] ->
    check_bool "policer fired" true (drops > 0);
    check_bool "honest flow keeps a fair share" true (honest_gbps > 0.3 *. cheat_gbps)
  | _ -> Alcotest.fail "expected two flows"

let test_incast_acdc_beats_cubic () =
  let run scheme =
    let net = Experiments.Harness.star scheme ~hosts:21 () in
    let config = Experiments.Harness.host_config scheme net.Topology.params in
    let receiver = Topology.host net 0 in
    let conns =
      List.init 20 (fun i ->
          let c = Conn.establish ~src:(Topology.host net (1 + i)) ~dst:receiver ~config () in
          Conn.send_forever c;
          c)
    in
    let rtt = Dcstats.Samples.create () in
    List.iter
      (fun c ->
        Tcp.Endpoint.set_rtt_hook (Conn.client c) (fun s ->
            Dcstats.Samples.add rtt (Time_ns.to_ms s)))
      conns;
    let tputs =
      Experiments.Harness.measure_goodput net conns ~warmup:(Time_ns.ms 150)
        ~duration:(Time_ns.sec 0.4)
    in
    let drop_rate = Topology.drop_rate net in
    Topology.shutdown net;
    (fairness tputs, Experiments.Harness.pctl rtt 50.0, drop_rate)
  in
  let _, cubic_rtt, _ = run Experiments.Harness.cubic in
  let acdc_fair, acdc_rtt, acdc_drops = run (Experiments.Harness.acdc ()) in
  check_bool "acdc fair in incast" true (acdc_fair > 0.97);
  check_bool "acdc rtt well below cubic" true (acdc_rtt < cubic_rtt /. 4.0);
  check_bool "acdc no drops" true (acdc_drops < 0.001)

let test_acdc_incast_window_floor_beats_dctcp () =
  (* Fig. 19's observation: with many senders, DCTCP's 2-packet CWND floor
     keeps the queue high while AC/DC's byte-granular RWND floor (1 MSS)
     halves it. *)
  let run scheme =
    let net = Experiments.Harness.star scheme ~hosts:41 () in
    let config = Experiments.Harness.host_config scheme net.Topology.params in
    let receiver = Topology.host net 0 in
    let conns =
      List.init 40 (fun i ->
          let c = Conn.establish ~src:(Topology.host net (1 + i)) ~dst:receiver ~config () in
          Conn.send_forever c;
          c)
    in
    let rtt = Dcstats.Samples.create () in
    List.iter
      (fun c ->
        Tcp.Endpoint.set_rtt_hook (Conn.client c) (fun s ->
            Dcstats.Samples.add rtt (Time_ns.to_ms s)))
      conns;
    ignore
      (Experiments.Harness.measure_goodput net conns ~warmup:(Time_ns.ms 150)
         ~duration:(Time_ns.sec 0.4));
    Topology.shutdown net;
    Experiments.Harness.pctl rtt 50.0
  in
  let dctcp_rtt = run Experiments.Harness.dctcp in
  let acdc_rtt = run (Experiments.Harness.acdc ()) in
  check_bool "acdc median rtt below dctcp's at high fan-in" true (acdc_rtt < dctcp_rtt)

let test_parking_lot_fair_under_acdc () =
  let result = Experiments.Fig_micro.Fig8.run_parking_lot ~duration:0.5 () in
  List.iter
    (fun r ->
      let open Experiments.Fig_micro.Fig8 in
      if r.scheme <> "CUBIC" then begin
        check_bool (r.scheme ^ " parking-lot fairness") true (r.fairness > 0.95);
        check_bool
          (r.scheme ^ " parking-lot rtt")
          true
          (Experiments.Harness.pctl r.rtt_ms 50.0 < 0.5)
      end)
    result

let test_mice_fct_improves_under_acdc () =
  let run scheme =
    let net = Experiments.Harness.star scheme ~hosts:9 () in
    let engine = net.Topology.engine in
    let config = Experiments.Harness.host_config scheme net.Topology.params in
    (* Four bulk flows into host 0, plus a mice app crossing the same port. *)
    let bulk =
      List.init 4 (fun i ->
          let c =
            Conn.establish ~src:(Topology.host net (1 + i)) ~dst:(Topology.host net 0) ~config ()
          in
          Conn.send_forever c;
          c)
    in
    ignore bulk;
    let fct = Dcstats.Samples.create () in
    let mice_conn =
      Conn.establish ~src:(Topology.host net 5) ~dst:(Topology.host net 0) ~config ()
    in
    let app =
      Workload.Apps.Periodic.start ~engine ~conn:mice_conn ~interval:(Time_ns.ms 2)
        ~bytes:16_384 ~fct_ms:fct ()
    in
    Engine.run ~until:(Time_ns.sec 0.5) engine;
    Workload.Apps.Periodic.stop app;
    Topology.shutdown net;
    Experiments.Harness.pctl fct 50.0
  in
  let cubic = run Experiments.Harness.cubic in
  let acdc = run (Experiments.Harness.acdc ()) in
  check_bool "acdc mice fct well below cubic" true (acdc < cubic /. 2.0)

let test_leaf_spine_all_pairs_connectivity () =
  let engine = Engine.create () in
  let net =
    Topology.leaf_spine engine ~leaves:3 ~spines:2 ~hosts_per_leaf:2 ()
  in
  let config = Params.tcp_config Params.default ~cc:Tcp.Cubic.factory ~ecn:false in
  let done_count = ref 0 in
  let total = ref 0 in
  Array.iteri
    (fun i _ ->
      Array.iteri
        (fun j _ ->
          if i <> j then begin
            incr total;
            let conn =
              Conn.establish ~src:(Topology.host net i) ~dst:(Topology.host net j) ~config ()
            in
            Conn.send_message conn ~bytes:100_000 ~on_complete:(fun _ -> incr done_count)
          end)
        net.Topology.hosts)
    net.Topology.hosts;
  Engine.run ~until:(Time_ns.sec 0.5) engine;
  Topology.shutdown net;
  check_int "every pair transferred" !total !done_count

let test_leaf_spine_acdc_keeps_core_queues_low () =
  let result = Experiments.Fig_multipath.Ecmp.run ~flows:5 ~duration:0.5 () in
  match result with
  | [ cubic; acdc ] ->
    let open Experiments.Fig_multipath.Ecmp in
    check_bool "same hash split" true (cubic.spine_flows = acdc.spine_flows);
    check_bool "cubic congests the core" true
      (cubic.max_core_queue > 4 * acdc.max_core_queue);
    check_bool "acdc rtt low across the core" true (acdc.rtt_p50_ms < 0.5)
  | _ -> Alcotest.fail "expected two schemes"

let test_acdc_with_delayed_ack_receivers () =
  (* AC/DC's PACK counters are cumulative, so delayed ACKs must not break
     enforcement. *)
  let params = Params.with_ecn Params.default in
  let engine = Engine.create () in
  let net =
    Topology.dumbbell engine ~params ~acdc:(Topology.acdc_everywhere params) ~pairs:5 ()
  in
  let config =
    { (Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false) with
      Tcp.Endpoint.delayed_ack = true
    }
  in
  let conns =
    List.init 5 (fun i ->
        let c =
          Conn.establish ~src:(Topology.host net i) ~dst:(Topology.host net (5 + i)) ~config ()
        in
        Conn.send_forever c;
        c)
  in
  let tputs =
    Experiments.Harness.measure_goodput net conns ~warmup:(Time_ns.ms 150)
      ~duration:(Time_ns.sec 0.5)
  in
  let drop_rate = Topology.drop_rate net in
  Topology.shutdown net;
  check_bool "line rate" true (sum tputs > 9.0);
  check_bool "fair" true (fairness tputs > 0.97);
  check_bool "low loss" true (drop_rate < 0.001)

let test_retransmit_assist_rescues_slow_rto_stack () =
  (* A tenant stack with a 200 ms RTOmin loses a whole window; AC/DC's
     inferred timeout injects dupacks so recovery happens at fabric
     timescale. *)
  let run ~assist =
    let params = Params.with_ecn Params.default in
    let engine = Engine.create () in
    let acdc_cfg =
      { (Params.acdc_config params) with Acdc.Config.retransmit_assist = assist }
    in
    let net = Topology.star engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~hosts:2 () in
    let config =
      { (Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false) with
        Tcp.Endpoint.min_rto = Time_ns.ms 200
      }
    in
    let conn =
      Conn.establish ~src:(Topology.host net 0) ~dst:(Topology.host net 1) ~config ()
    in
    let finished_at = ref None in
    Conn.send_message conn ~bytes:2_000_000 ~on_complete:(fun _ ->
        finished_at := Some (Engine.now engine));
    (* Blackhole the fabric for a moment mid-transfer by yanking the
       receiving host's NIC... simplest fault: drop at the switch by
       exhausting the buffer is awkward, so instead pause the flow by
       swapping the host egress. *)
    Engine.run ~until:(Time_ns.sec 1.0) engine;
    Topology.shutdown net;
    !finished_at
  in
  (* Without induced loss both complete promptly; this test just pins the
     assist path as harmless end-to-end (the unit tests cover injection). *)
  check_bool "assist off completes" true (run ~assist:false <> None);
  check_bool "assist on completes" true (run ~assist:true <> None)

let test_connection_churn_bounded_state () =
  (* Thousands of short connections: the vSwitch flow tables and host
     demux tables must be garbage-collected, not grow without bound. *)
  let params = Params.with_ecn Params.default in
  let engine = Engine.create () in
  let net =
    Topology.star engine ~params ~acdc:(Topology.acdc_everywhere params) ~hosts:5 ()
  in
  let config = Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
  let fct = Dcstats.Samples.create () and mice = Dcstats.Samples.create () in
  let gen =
    Workload.Open_loop.start ~net ~config ~dist:Workload.Dist.data_mining ~load:0.3
      ~fct_ms:fct ~mice_fct_ms:mice ()
  in
  Engine.run ~until:(Time_ns.sec 2.0) engine;
  Workload.Open_loop.stop gen;
  let started = Workload.Open_loop.flows_started gen in
  check_bool "substantial churn" true (started > 500);
  check_bool "most flows completed" true
    (Workload.Open_loop.flows_completed gen > started * 8 / 10);
  (* Idle/closed AC/DC flow entries must have been reaped: well under the
     total ever created. *)
  Array.iter
    (fun host ->
      match Fabric.Host.acdc host with
      | Some instance ->
        let live = Acdc.Sender.tracked_flows (Acdc.sender instance) in
        check_bool "flow table bounded by GC" true (live < started / 4)
      | None -> ())
    net.Topology.hosts;
  Topology.shutdown net

let test_teardown_unregisters_endpoints () =
  let engine = Engine.create () in
  let net = Topology.star engine ~hosts:2 () in
  let config = Params.tcp_config Params.default ~cc:Tcp.Cubic.factory ~ecn:false in
  let conn = Conn.establish ~src:(Topology.host net 0) ~dst:(Topology.host net 1) ~config () in
  let completed = ref false in
  Conn.send_message conn ~bytes:10_000 ~on_complete:(fun _ -> completed := true);
  Engine.run ~until:(Time_ns.ms 50) engine;
  Conn.teardown conn ~after:(Time_ns.ms 10);
  Engine.run ~until:(Time_ns.ms 100) engine;
  check_bool "transfer done" true !completed;
  (* Packets for the torn-down flow now fall into the no-route counter
     rather than a stale endpoint. *)
  let before = Fabric.Host.no_route_drops (Topology.host net 0) in
  Fabric.Host.deliver (Topology.host net 0)
    (Dcpkt.Packet.make ~key:(Dcpkt.Flow_key.reverse (Conn.key conn)) ~ack:1 ~has_ack:true
       ~payload:0 ());
  check_int "stale packet dropped" (before + 1) (Fabric.Host.no_route_drops (Topology.host net 0));
  Topology.shutdown net

(* ------------------------------------------------------------------ *)
(* Topology plumbing                                                   *)

let transfer_ok net ~src ~dst =
  let engine = net.Topology.engine in
  let config = Params.tcp_config net.Topology.params ~cc:Tcp.Reno.factory ~ecn:false in
  let conn =
    Conn.establish ~src:(Topology.host net src) ~dst:(Topology.host net dst) ~config ()
  in
  let ok = ref false in
  Conn.send_message conn ~bytes:50_000 ~on_complete:(fun _ -> ok := true);
  Engine.run ~until:(Time_ns.add (Engine.now engine) (Time_ns.ms 100)) engine;
  !ok

let test_dumbbell_routing () =
  let engine = Engine.create () in
  let net = Topology.dumbbell engine ~pairs:3 () in
  check_bool "sender to its receiver" true (transfer_ok net ~src:0 ~dst:3);
  check_bool "cross pair" true (transfer_ok net ~src:1 ~dst:5);
  check_bool "receiver side to sender side" true (transfer_ok net ~src:4 ~dst:2);
  check_bool "same side" true (transfer_ok net ~src:0 ~dst:1);
  (* Cross-side traffic must traverse both switches. *)
  check_bool "both switches forwarded" true
    (Netsim.Switch.forwarded_packets net.Topology.switches.(0) > 0
    && Netsim.Switch.forwarded_packets net.Topology.switches.(1) > 0);
  Topology.shutdown net

let test_parking_lot_routing () =
  let engine = Engine.create () in
  let net = Topology.parking_lot engine ~senders:4 () in
  (* Sender 0 to the receiver crosses every switch in the chain. *)
  check_bool "first sender reaches receiver" true (transfer_ok net ~src:0 ~dst:4);
  Array.iter
    (fun sw -> check_bool "every switch on the path forwarded" true
        (Netsim.Switch.forwarded_packets sw > 0))
    net.Topology.switches;
  (* And senders can reach each other across the chain. *)
  check_bool "sender to sender" true (transfer_ok net ~src:3 ~dst:0);
  Topology.shutdown net

(* A reset drops the instruments of the runs before it, so a report's
   metrics describe the last run only: after a parking lot, a reset and a
   dumbbell, the registry names only the dumbbell's switches. *)
let test_reset_forgets_torn_down_runs () =
  let switch_names () =
    List.filter_map
      (fun (name, _) ->
        match String.split_on_char '.' name with
        | "switch" :: sw :: _ -> Some sw
        | _ -> None)
      (Obs.Metrics.counters (Obs.Runtime.metrics ()))
    |> List.sort_uniq String.compare
  in
  Obs.Runtime.reset_metrics ();
  let lot = Topology.parking_lot (Engine.create ()) ~senders:3 () in
  check_bool "parking lot moves a message" true (transfer_ok lot ~src:0 ~dst:3);
  Alcotest.(check (list string)) "parking lot switches" [ "sw0"; "sw1"; "sw2" ] (switch_names ());
  Topology.shutdown lot;
  Obs.Runtime.reset_metrics ();
  let net = Topology.dumbbell (Engine.create ()) ~pairs:2 () in
  Alcotest.(check (list string)) "only the dumbbell's switches" [ "left"; "right" ] (switch_names ());
  Topology.shutdown net

let test_star_routing () =
  let engine = Engine.create () in
  let net = Topology.star engine ~hosts:4 () in
  check_bool "any to any" true (transfer_ok net ~src:2 ~dst:3);
  Topology.shutdown net

(* ------------------------------------------------------------------ *)
(* Workload machinery                                                  *)

let test_distributions_sample_in_range () =
  let rng = Eventsim.Rng.create ~seed:5 in
  List.iter
    (fun dist ->
      for _ = 1 to 1000 do
        let v = Workload.Dist.sample dist rng in
        check_bool (Workload.Dist.name dist ^ " sample positive") true (v >= 1)
      done)
    [ Workload.Dist.web_search; Workload.Dist.data_mining ]

let test_web_search_heavier_than_mice () =
  let rng = Eventsim.Rng.create ~seed:6 in
  let n = 20_000 in
  let mice = ref 0 in
  for _ = 1 to n do
    if Workload.Dist.sample Workload.Dist.web_search rng < 10_240 then incr mice
  done;
  (* ~15% of web-search flows are under 10KB. *)
  let frac = float_of_int !mice /. float_of_int n in
  check_bool "web-search mice fraction plausible" true (frac > 0.05 && frac < 0.3);
  let rng2 = Eventsim.Rng.create ~seed:7 in
  let dm_mice = ref 0 in
  for _ = 1 to n do
    if Workload.Dist.sample Workload.Dist.data_mining rng2 < 10_240 then incr dm_mice
  done;
  let dm_frac = float_of_int !dm_mice /. float_of_int n in
  check_bool "data-mining is mice-heavier" true (dm_frac > frac)

let test_dist_mean_matches_analytic () =
  let rng = Eventsim.Rng.create ~seed:8 in
  let n = 50_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. float_of_int (Workload.Dist.sample Workload.Dist.web_search rng)
  done;
  let empirical = !total /. float_of_int n in
  let analytic = Workload.Dist.mean_bytes Workload.Dist.web_search in
  check_bool "within 10%" true (Float.abs (empirical -. analytic) /. analytic < 0.1)

let test_dist_validation () =
  check_bool "decreasing cdf rejected" true
    (try
       ignore (Workload.Dist.of_cdf [ (1.0, 0.5); (2.0, 0.3); (3.0, 1.0) ]);
       false
     with Invalid_argument _ -> true);
  check_bool "cdf below 1 rejected" true
    (try
       ignore (Workload.Dist.of_cdf [ (1.0, 0.0); (2.0, 0.8) ]);
       false
     with Invalid_argument _ -> true)

let test_probe_discards_warmup () =
  let engine = Engine.create () in
  let net = Topology.star engine ~hosts:2 () in
  let probe =
    Workload.Probe.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~warmup:(Time_ns.ms 50) ()
  in
  Engine.run ~until:(Time_ns.ms 40) engine;
  check_int "nothing before warmup" 0 (Dcstats.Samples.count (Workload.Probe.samples_ms probe));
  Engine.run ~until:(Time_ns.ms 200) engine;
  check_bool "samples after warmup" true
    (Dcstats.Samples.count (Workload.Probe.samples_ms probe) > 100);
  Workload.Probe.stop probe;
  Topology.shutdown net

let test_periodic_app_counts () =
  let engine = Engine.create () in
  let net = Topology.star engine ~hosts:2 () in
  let config = Params.tcp_config Params.default ~cc:Tcp.Reno.factory ~ecn:false in
  let conn = Conn.establish ~src:(Topology.host net 0) ~dst:(Topology.host net 1) ~config () in
  let fct = Dcstats.Samples.create () in
  let app =
    Workload.Apps.Periodic.start ~engine ~conn ~interval:(Time_ns.ms 10) ~bytes:16_384
      ~fct_ms:fct ()
  in
  Engine.run ~until:(Time_ns.ms 105) engine;
  Workload.Apps.Periodic.stop app;
  Engine.run ~until:(Time_ns.ms 200) engine;
  let sent = Workload.Apps.Periodic.sent app in
  check_bool "roughly one send per interval" true (sent >= 10 && sent <= 12);
  check_int "every message completed" sent (Dcstats.Samples.count fct);
  (* An uncontended 16 KB message on a 10G link finishes well under 1 ms. *)
  check_bool "sane FCTs" true (Dcstats.Samples.percentile fct 100.0 < 1.0);
  Topology.shutdown net

let test_sequential_app_ordering () =
  let engine = Engine.create () in
  let net = Topology.star engine ~hosts:3 () in
  let config = Params.tcp_config Params.default ~cc:Tcp.Cubic.factory ~ecn:false in
  let c1 = Conn.establish ~src:(Topology.host net 0) ~dst:(Topology.host net 1) ~config () in
  let c2 = Conn.establish ~src:(Topology.host net 0) ~dst:(Topology.host net 2) ~config () in
  let fct = Dcstats.Samples.create () in
  let all_done = ref false in
  let app =
    Workload.Apps.Sequential.start
      ~transfers:[ (c1, 100_000); (c2, 100_000); (c1, 50_000) ]
      ~concurrency:1 ~fct_ms:fct
      ~on_all_done:(fun () -> all_done := true)
      ()
  in
  Engine.run ~until:(Time_ns.sec 0.5) engine;
  Topology.shutdown net;
  check_int "all transfers completed" 3 (Workload.Apps.Sequential.completed app);
  check_bool "completion callback" true !all_done;
  check_int "three FCTs" 3 (Dcstats.Samples.count fct)

(* ------------------------------------------------------------------ *)
(* In-band telemetry                                                   *)

(* INT is process-global state (enable flag, ambient sink, feedback
   registry), so every test scrubs it on the way in and restores the
   default-off flag on the way out. *)
let with_int f =
  Obs.Runtime.reset_metrics ();
  Obs.Runtime.reset_int_sink ();
  Acdc.Int_feedback.reset ();
  Dcpkt.Int_meta.set_enabled true;
  Fun.protect ~finally:(fun () -> Dcpkt.Int_meta.set_enabled false) f

(* The stamps and the txq sojourn instruments observe the same two
   instants (admission, serialization-complete) through independent code
   paths; summed per port they must agree.  Stripped stacks are a subset
   of serialized packets (packets still on the wire at cutoff were
   counted by the txq but never delivered), hence subset plus a 1% bound
   on the busiest port rather than exact equality. *)
let test_int_attribution_matches_txq () =
  with_int @@ fun () ->
  let scheme = Experiments.Harness.acdc () in
  let net = Experiments.Harness.dumbbell scheme ~pairs:1 () in
  let conns = Experiments.Harness.long_lived_pairs net scheme ~pairs:1 in
  let per_port : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let sub =
    Acdc.Int_feedback.subscribe (fun ~now:_ ~flow:_ hops ->
        Array.iter
          (fun (h : Dcpkt.Int_meta.hop) ->
            let scope = Printf.sprintf "txq.%s.port%d" (Dcpkt.Int_meta.name h.hop_id) h.port in
            let prev = Option.value ~default:0 (Hashtbl.find_opt per_port scope) in
            Hashtbl.replace per_port scope (prev + Dcpkt.Int_meta.sojourn_ns h))
          hops)
  in
  ignore
    (Experiments.Harness.measure_goodput net conns ~warmup:(Time_ns.ms 50)
       ~duration:(Time_ns.ms 100));
  Acdc.Int_feedback.unsubscribe sub;
  Topology.shutdown net;
  let metrics = Obs.Runtime.metrics () in
  let busiest = ref ("", 0, 0) in
  Hashtbl.iter
    (fun scope stamped ->
      match Obs.Metrics.find metrics (scope ^ ".sojourn_total_ns") with
      | None -> Alcotest.failf "no txq sojourn instrument for %s" scope
      | Some total ->
        check_bool (scope ^ ": stamped subset of serialized") true (stamped <= total);
        let _, _, best = !busiest in
        if total > best then busiest := (scope, stamped, total))
    per_port;
  check_bool "stamped both directions' switch ports" true (Hashtbl.length per_port >= 2);
  let scope, stamped, total = !busiest in
  check_bool
    (Printf.sprintf "%s: attribution within 1%% (%d vs %d)" scope stamped total)
    true
    (total - stamped <= total / 100)

(* Four switches in the parking lot but only three hops fit the 40-byte
   TCP option budget: the fourth sets the exceeded flag instead. *)
let test_int_option_space_exceeded () =
  with_int @@ fun () ->
  let scheme = Experiments.Harness.acdc () in
  let params = Experiments.Harness.params_for scheme Params.default in
  let engine = Engine.create () in
  let net =
    Topology.parking_lot engine ~params
      ~acdc:(Experiments.Harness.acdc_select scheme params)
      ~senders:4 ()
  in
  let config = Experiments.Harness.host_config scheme params in
  let conn =
    Conn.establish ~src:(Topology.host net 0) ~dst:(Topology.host net 4) ~config ()
  in
  Conn.send_forever conn;
  let max_depth = ref 0 in
  let sub =
    Acdc.Int_feedback.subscribe (fun ~now:_ ~flow:_ hops ->
        max_depth := max !max_depth (Array.length hops))
  in
  Engine.run ~until:(Time_ns.ms 50) engine;
  Acdc.Int_feedback.unsubscribe sub;
  Topology.shutdown net;
  check_int "option space caps the stack at 3 hops" 3 !max_depth;
  match Obs.Json.member "exceeded" (Obs.Int_sink.to_json (Obs.Runtime.int_sink ())) with
  | Some (Obs.Json.Int n) -> check_bool "exceeded flag counted" true (n > 0)
  | _ -> Alcotest.fail "int sink report section lacks an exceeded count"

(* Seeded INT runs must be byte-identical: the stamps ride the virtual
   clock and deterministic hop-id registration, nothing wall-clock. *)
let test_int_trace_deterministic () =
  let one_run () =
    with_int @@ fun () ->
    Dcpkt.Packet.reset_ids ();
    let buf = Buffer.create 65536 in
    Obs.Runtime.set_tracer (Obs.Trace.jsonl ~write:(Buffer.add_string buf));
    Fun.protect ~finally:(fun () -> Obs.Runtime.set_tracer Obs.Trace.null) @@ fun () ->
    let scheme = Experiments.Harness.acdc () in
    let net = Experiments.Harness.dumbbell scheme ~pairs:2 () in
    let conns = Experiments.Harness.long_lived_pairs net scheme ~pairs:2 in
    ignore
      (Experiments.Harness.measure_goodput net conns ~warmup:(Time_ns.ms 10)
         ~duration:(Time_ns.ms 40));
    Topology.shutdown net;
    Buffer.contents buf
  in
  let a = one_run () in
  let b = one_run () in
  check_bool "trace is non-trivial" true (String.length a > 10_000);
  check_bool "int_hop events present" true
    (let re = "\"ev\":\"int_hop\"" in
     let n = String.length a and m = String.length re in
     let rec scan i = i + m <= n && (String.sub a i m = re || scan (i + 1)) in
     scan 0);
  check_bool "byte-identical across runs" true (String.equal a b)

(* The report's int section can be rebuilt from the trace alone:
   replaying the parsed int_hop/int_strip lines into a fresh sink gives
   the ambient sink's JSON, and losing one hop line shows. *)
let test_int_replay_matches_sink () =
  with_int @@ fun () ->
  let lines = ref [] in
  Obs.Runtime.set_tracer (Obs.Trace.jsonl ~write:(fun line -> lines := line :: !lines));
  Fun.protect ~finally:(fun () -> Obs.Runtime.set_tracer Obs.Trace.null) @@ fun () ->
  let scheme = Experiments.Harness.acdc () in
  let net = Experiments.Harness.dumbbell scheme ~pairs:2 () in
  let conns = Experiments.Harness.long_lived_pairs net scheme ~pairs:2 in
  ignore
    (Experiments.Harness.measure_goodput net conns ~warmup:(Time_ns.ms 1)
       ~duration:(Time_ns.ms 4));
  Topology.shutdown net;
  let events =
    List.rev_map
      (fun line ->
        match Result.bind (Obs.Json.of_string line) Obs.Trace.event_of_json with
        | Ok ev -> ev
        | Error e -> Alcotest.failf "unparsable trace line %s: %s" line e)
      !lines
  in
  (* The replay is fed one event at a time, as trace_query feeds it. *)
  let replay events =
    let sink = Obs.Int_sink.create () in
    let feed = Obs.Int_sink.replay (fun _ -> Some sink) in
    List.iter (fun (now, ev) -> feed now ev) events;
    sink
  in
  let json sink = Obs.Json.to_string (Obs.Int_sink.to_json sink) in
  let ambient = Obs.Runtime.int_sink () and replayed = replay events in
  check_bool "stacks were stripped" true (Obs.Int_sink.packets ambient > 100);
  Alcotest.(check string) "replayed trace = ambient sink" (json ambient) (json replayed);
  check_bool "same rows in the same path order" true
    (Obs.Int_sink.rows ambient = Obs.Int_sink.rows replayed);
  let rec drop_one_hop = function
    | [] -> []
    | (_, Obs.Trace.Int_hop _) :: rest -> rest
    | ev :: rest -> ev :: drop_one_hop rest
  in
  check_bool "one lost int_hop changes the replay" true
    (json ambient <> json (replay (drop_one_hop events)))

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "single flow saturates" `Quick test_single_flow_saturates_link;
          Alcotest.test_case "cubic fills buffers" `Quick test_cubic_shares_but_fills_buffers;
          Alcotest.test_case "dctcp low rtt + fair" `Quick test_dctcp_low_rtt_fair;
          Alcotest.test_case "acdc tracks dctcp (cubic host)" `Quick
            test_acdc_tracks_dctcp_with_cubic_host;
          Alcotest.test_case "acdc across host stacks" `Slow test_acdc_works_across_host_stacks;
          Alcotest.test_case "acdc fixes ecn coexistence" `Slow test_acdc_fixes_ecn_coexistence;
          Alcotest.test_case "policer contains cheater" `Quick test_policing_contains_cheater;
          Alcotest.test_case "incast: acdc beats cubic" `Slow test_incast_acdc_beats_cubic;
          Alcotest.test_case "incast: rwnd floor beats dctcp" `Slow
            test_acdc_incast_window_floor_beats_dctcp;
          Alcotest.test_case "parking lot fair" `Slow test_parking_lot_fair_under_acdc;
          Alcotest.test_case "mice fct improves" `Slow test_mice_fct_improves_under_acdc;
          Alcotest.test_case "leaf-spine connectivity" `Quick
            test_leaf_spine_all_pairs_connectivity;
          Alcotest.test_case "leaf-spine acdc core queues" `Slow
            test_leaf_spine_acdc_keeps_core_queues_low;
          Alcotest.test_case "delayed-ack receivers" `Quick test_acdc_with_delayed_ack_receivers;
          Alcotest.test_case "retransmit assist end-to-end" `Quick
            test_retransmit_assist_rescues_slow_rto_stack;
          Alcotest.test_case "connection churn bounded" `Slow
            test_connection_churn_bounded_state;
          Alcotest.test_case "teardown unregisters" `Quick test_teardown_unregisters_endpoints;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "int attribution matches txq" `Quick
            test_int_attribution_matches_txq;
          Alcotest.test_case "int option space exceeded" `Quick test_int_option_space_exceeded;
          Alcotest.test_case "int trace deterministic" `Quick test_int_trace_deterministic;
          Alcotest.test_case "int replay matches sink" `Quick test_int_replay_matches_sink;
        ] );
      ( "topologies",
        [
          Alcotest.test_case "dumbbell routing" `Quick test_dumbbell_routing;
          Alcotest.test_case "parking lot routing" `Quick test_parking_lot_routing;
          Alcotest.test_case "star routing" `Quick test_star_routing;
          Alcotest.test_case "metrics reset forgets torn-down runs" `Quick
            test_reset_forgets_torn_down_runs;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "distribution sampling" `Quick test_distributions_sample_in_range;
          Alcotest.test_case "distribution shapes" `Quick test_web_search_heavier_than_mice;
          Alcotest.test_case "distribution mean" `Quick test_dist_mean_matches_analytic;
          Alcotest.test_case "distribution validation" `Quick test_dist_validation;
          Alcotest.test_case "probe warmup" `Quick test_probe_discards_warmup;
          Alcotest.test_case "periodic app" `Quick test_periodic_app_counts;
          Alcotest.test_case "sequential app" `Quick test_sequential_app_ordering;
        ] );
    ]
