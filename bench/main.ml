(* The paper's CPU-overhead measurement, the CI smoke run and the
   ablations; the figures themselves run under `bin/acdc_expt.exe`.

   - cpu: Bechamel microbenchmarks of the vSwitch datapath — the simulator
     equivalent of Figs. 11-12's CPU overhead measurement.  The paper
     compares `sar` CPU% of OVS with and without AC/DC at 100..10K
     concurrent connections; we measure ns/packet through the same
     interception points, which is the quantity that CPU% proxies.
   - smoke: a fast end-to-end run for CI, written as one run report.
   - ablation-fack, ablation-floor: the ablations called out in DESIGN.md.

   Run with: dune exec bench/main.exe            (cpu and both ablations)
             dune exec bench/main.exe -- cpu     (microbenchmarks only)
             dune exec bench/main.exe -- smoke --report REPORT.json
   Any other argument exits 1 before anything runs. *)

module Engine = Eventsim.Engine
module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key

(* ------------------------------------------------------------------ *)
(* Figs. 11-12: datapath cost with and without AC/DC                   *)

let mss = 1448 (* the paper measures overhead at 1.5 KB MTU *)

type dp_setup = {
  datapath : Vswitch.Datapath.t;
  keys : Flow_key.t array;
  mutable cursor : int;
}

(* A datapath with [flows] established AC/DC flows (or none for the
   baseline), primed exactly as the paper's experiment: connections are
   set up first, then packets are pushed through. *)
let make_sender_setup ~flows ~with_acdc =
  let engine = Engine.create () in
  let datapath = Vswitch.Datapath.create () in
  if with_acdc then Acdc.attach (Acdc.create engine (Acdc.Config.default ~mss)) datapath;
  let keys =
    Array.init flows (fun i ->
        Flow_key.make ~src_ip:1 ~dst_ip:(2 + (i mod 251)) ~src_port:(10_000 + (i / 251))
          ~dst_port:5001)
  in
  Array.iter
    (fun key ->
      let syn =
        Packet.make ~key ~seq:0 ~syn:true ~options:[ Packet.Window_scale 9 ] ~payload:0 ()
      in
      Vswitch.Datapath.process_egress datapath syn ~emit:ignore;
      let syn_ack =
        Packet.make ~key:(Flow_key.reverse key) ~seq:0 ~syn:true ~has_ack:true ~ack:1
          ~options:[ Packet.Window_scale 9 ]
          ~payload:0 ()
      in
      Vswitch.Datapath.process_ingress datapath syn_ack ~deliver:ignore)
    keys;
  { datapath; keys; cursor = 0 }

(* The receiver host tracks flows created by *ingress* SYNs. *)
let make_receiver_setup ~flows ~with_acdc =
  let engine = Engine.create () in
  let datapath = Vswitch.Datapath.create () in
  if with_acdc then Acdc.attach (Acdc.create engine (Acdc.Config.default ~mss)) datapath;
  let keys =
    Array.init flows (fun i ->
        Flow_key.make ~src_ip:(2 + (i mod 251)) ~dst_ip:1 ~src_port:(10_000 + (i / 251))
          ~dst_port:5001)
  in
  Array.iter
    (fun key ->
      Vswitch.Datapath.process_ingress datapath
        (Packet.make ~key ~seq:0 ~syn:true ~payload:0 ())
        ~deliver:ignore)
    keys;
  { datapath; keys; cursor = 0 }

let next_key setup =
  let key = setup.keys.(setup.cursor) in
  setup.cursor <- (setup.cursor + 1) mod Array.length setup.keys;
  key

(* Sender-side work per segment: egress data + ingress ACK with PACK. *)
let sender_side setup () =
  let key = next_key setup in
  let seg = Packet.make ~key ~seq:1 ~payload:mss () in
  Vswitch.Datapath.process_egress setup.datapath seg ~emit:ignore;
  let ack =
    Packet.make ~key:(Flow_key.reverse key) ~ack:(1 + mss) ~has_ack:true ~rwnd_field:0xFFFF
      ~options:[ Packet.Pack { total_bytes = mss; marked_bytes = 0 } ]
      ~payload:0 ()
  in
  Vswitch.Datapath.process_ingress setup.datapath ack ~deliver:ignore

(* Receiver-side work per segment: ingress data + egress ACK. *)
let receiver_side setup () =
  let key = next_key setup in
  let seg = Packet.make ~key ~seq:1 ~ecn:Packet.Ect0 ~payload:mss () in
  Vswitch.Datapath.process_ingress setup.datapath seg ~deliver:ignore;
  let ack = Packet.make ~key:(Flow_key.reverse key) ~ack:(1 + mss) ~has_ack:true ~payload:0 () in
  Vswitch.Datapath.process_egress setup.datapath ack ~emit:ignore

let cpu_tests () =
  let open Bechamel in
  let flow_counts = [ 100; 1_000; 10_000 ] in
  let tests =
    List.concat_map
      (fun flows ->
        [
          Test.make
            ~name:(Printf.sprintf "sender/baseline/%05d-flows" flows)
            (let setup = make_sender_setup ~flows ~with_acdc:false in
             Staged.stage (sender_side setup));
          Test.make
            ~name:(Printf.sprintf "sender/acdc/%05d-flows" flows)
            (let setup = make_sender_setup ~flows ~with_acdc:true in
             Staged.stage (sender_side setup));
          Test.make
            ~name:(Printf.sprintf "receiver/baseline/%05d-flows" flows)
            (let setup = make_receiver_setup ~flows ~with_acdc:false in
             Staged.stage (receiver_side setup));
          Test.make
            ~name:(Printf.sprintf "receiver/acdc/%05d-flows" flows)
            (let setup = make_receiver_setup ~flows ~with_acdc:true in
             Staged.stage (receiver_side setup));
        ])
      flow_counts
  in
  Test.make_grouped ~name:"datapath" tests

(* Steady-state event-queue churn.  Each op schedules one future event and
   fires one — the queue holds a fixed number of pending events
   throughout, and the delays cycle through a fixed pattern spanning every
   wheel level (100 ns .. 10 ms), so each op pays the amortized O(1) slot
   insert + cascade.  The 4096-pending row is the smoke report's
   [sched_wheel_ns_per_op] scalar. *)
let scheduler_tests () =
  let open Bechamel in
  let nop_h : (unit, unit) Engine.handler = Engine.handler (fun () () -> ()) in
  let make_churn ~pending =
    let engine = Engine.create () in
    let delays =
      let st = Random.State.make [| 0xACDC |] in
      Array.init 1024 (fun _ ->
          Eventsim.Time_ns.ns (100 + Random.State.int st 10_000_000))
    in
    let cursor = ref 0 in
    for i = 0 to pending - 1 do
      Engine.schedule_static_after engine ~delay:delays.(i land 1023) nop_h () ()
    done;
    Staged.stage (fun () ->
        let d = delays.(!cursor) in
        cursor := (!cursor + 1) land 1023;
        Engine.schedule_static_after engine ~delay:d nop_h () ();
        ignore (Engine.step engine))
  in
  let row pending =
    Test.make ~name:(Printf.sprintf "wheel/churn-%05d" pending) (make_churn ~pending)
  in
  (* 4096 pending ~ a busy dumbbell; 65536 ~ a 1000-host fabric. *)
  Test.make_grouped ~name:"scheduler" [ row 4096; row 65536 ]

let cpu_rows = ref []

let run_cpu_bench ?(quota = 0.5) () =
  let open Bechamel in
  let open Toolkit in
  (* The datapath rows are the paper's profiling-off numbers; a driver
     that profiled the preceding simulation must not leak spans in here.
     Collection resumes for any scenario that follows. *)
  let was_profiling = Obs.Prof.enabled () in
  Obs.Prof.set_enabled false;
  Format.printf "@.=== Figures 11-12: vSwitch datapath cost (CPU overhead proxy) ===@.";
  Format.printf "  ns per (data segment + ACK) through the datapath@.";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  let value ols =
    match Analyze.OLS.estimates ols with Some (v :: _) -> v | Some [] | None -> nan
  in
  let bench_rows test =
    let results = Analyze.all ols Instance.monotonic_clock (Benchmark.all cfg instances test) in
    Hashtbl.fold (fun name ols acc -> (name, value ols) :: acc) results []
  in
  let rows =
    bench_rows (cpu_tests ()) @ bench_rows (scheduler_tests ())
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  cpu_rows := rows;
  List.iter (fun (name, v) -> Format.printf "  %-44s %10.0f ns/op@." name v) rows;
  let find side scheme flows =
    List.assoc_opt (Printf.sprintf "datapath/%s/%s/%05d-flows" side scheme flows) rows
  in
  List.iter
    (fun side ->
      List.iter
        (fun flows ->
          match (find side "baseline" flows, find side "acdc" flows) with
          | Some b, Some a ->
            Format.printf
              "  %-8s %5d flows: baseline %6.0f ns, AC/DC %6.0f ns (+%.0f ns, +%.1f%%)@." side
              flows b a (a -. b)
              (100.0 *. (a -. b) /. Float.max 1.0 b)
          | _ -> ())
        [ 100; 1_000; 10_000 ])
    [ "sender"; "receiver" ];
  (* Put the absolute numbers in the paper's terms: OVS sits above TSO/GRO
     (§4), so AC/DC runs per 64 KB segment, not per wire packet. *)
  (match find "sender" "acdc" 10_000 with
  | Some a ->
    let segs_per_sec = 10e9 /. 8.0 /. 65536.0 in
    Format.printf
      "  at 10 Gb/s with TSO (64 KB segments): %.0f segs/s x %.0f ns = %.2f%% of one core —@."
      segs_per_sec a
      (segs_per_sec *. a /. 1e9 *. 100.0);
    Format.printf "  the same sub-1%%-point overhead the paper reports.@."
  | None -> ());
  if was_profiling then Obs.Prof.set_enabled true

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §5)                                            *)

let ablation_fack () =
  Format.printf "@.=== Ablation: PACK piggy-backing vs dedicated FACKs ===@.";
  let run ~fack_only =
    let params = Fabric.Params.with_ecn Fabric.Params.default in
    let engine = Engine.create () in
    let acdc_cfg = { (Fabric.Params.acdc_config params) with Acdc.Config.fack_only } in
    let net =
      Fabric.Topology.dumbbell engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~pairs:5 ()
    in
    let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
    let conns =
      List.init 5 (fun i ->
          let c =
            Fabric.Conn.establish
              ~src:(Fabric.Topology.host net i)
              ~dst:(Fabric.Topology.host net (5 + i))
              ~config ()
          in
          Fabric.Conn.send_forever c;
          c)
    in
    let tputs =
      Experiments.Harness.measure_goodput net conns
        ~warmup:(Eventsim.Time_ns.ms 200)
        ~duration:(Eventsim.Time_ns.sec 1.0)
    in
    let packs, facks =
      Array.fold_left
        (fun (p, f) host ->
          match Fabric.Host.acdc host with
          | Some instance ->
            ( p + Acdc.Receiver.packs_sent (Acdc.receiver instance),
              f + Acdc.Receiver.facks_sent (Acdc.receiver instance) )
          | None -> (p, f))
        (0, 0) net.Fabric.Topology.hosts
    in
    Fabric.Topology.shutdown net;
    (List.fold_left ( +. ) 0.0 tputs, packs, facks)
  in
  let tput_pack, packs, facks = run ~fack_only:false in
  Format.printf "  piggy-backed: aggregate %.2f Gbps, %d PACKs, %d extra FACK packets@."
    tput_pack packs facks;
  let tput_fack, packs2, facks2 = run ~fack_only:true in
  Format.printf "  FACK-only:    aggregate %.2f Gbps, %d PACKs, %d extra FACK packets@."
    tput_fack packs2 facks2;
  Format.printf "  -> piggy-backing carries the feedback for free; FACK-only adds one@.";
  Format.printf "     reverse-path packet per ACK for identical control behaviour.@."

let ablation_window_floor () =
  Format.printf "@.=== Ablation: enforced-window floor in large incast (Fig. 19a) ===@.";
  let senders = 40 in
  let run ~floor_mss =
    let params = Fabric.Params.with_ecn Fabric.Params.default in
    let engine = Engine.create () in
    let base = Fabric.Params.acdc_config params in
    let acdc_cfg =
      {
        base with
        Acdc.Config.min_window_bytes =
          int_of_float (floor_mss *. float_of_int base.Acdc.Config.mss);
      }
    in
    let net = Fabric.Topology.star engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~hosts:48 () in
    let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
    let receiver = Fabric.Topology.host net 0 in
    let rtt = Dcstats.Samples.create () in
    let conns =
      List.init senders (fun i ->
          let c =
            Fabric.Conn.establish
              ~src:(Fabric.Topology.host net (1 + i))
              ~dst:receiver ~config ()
          in
          Tcp.Endpoint.set_rtt_hook (Fabric.Conn.client c) (fun s ->
              Dcstats.Samples.add rtt (Eventsim.Time_ns.to_ms s));
          Fabric.Conn.send_forever c;
          c)
    in
    ignore
      (Experiments.Harness.measure_goodput net conns
         ~warmup:(Eventsim.Time_ns.ms 200)
         ~duration:(Eventsim.Time_ns.sec 0.6));
    Fabric.Topology.shutdown net;
    Experiments.Harness.pctl rtt 50.0
  in
  List.iter
    (fun floor_mss ->
      Format.printf "  floor %.1f MSS -> median incast RTT %.3f ms@." floor_mss (run ~floor_mss))
    [ 2.0; 1.0; 0.5 ];
  Format.printf "  -> RWND is byte-granular, so AC/DC can sit below DCTCP's 2-packet@.";
  Format.printf "     CWND floor — why it beats native DCTCP at high fan-in.@."

(* ------------------------------------------------------------------ *)
(* Smoke: a fast end-to-end run for CI — exercises the switches, the
   vSwitch datapath and the AC/DC hooks in well under a second so the
   workflow can gate a real run report on every push. *)

let report_out = ref "REPORT.json"

let smoke () =
  Format.printf "@.=== smoke: 5-pair AC/DC dumbbell, 100 ms ===@.";
  let scheme = Experiments.Harness.acdc () in
  let pairs = 5 in
  (* INT on for the fabric portion only: every switch stamps per-hop
     telemetry, the report grows an "int" section and the timeseries
     export carries flow 0's per-hop channels.  The cpu microbench below
     runs with INT back off so its rows stay comparable to figs. 11-12. *)
  Dcpkt.Int_meta.set_enabled true;
  (* FCT attribution likewise: the report grows a deterministic
     "fct_attrib" section (live stall clocks for the saturating pairs,
     exact snapshots for completed flows) that the report_diff gate
     tracks, and flow 0's per-state clock streams to the timeseries. *)
  Obs.Attrib.set_enabled (Obs.Runtime.attrib ()) true;
  let net = Experiments.Harness.dumbbell scheme ~pairs () in
  let conns = Experiments.Harness.long_lived_pairs net scheme ~pairs in
  (* Instrument the run: switch queues, one flow's enforced window, flow
     0's per-hop INT samples, the aggregate goodput counter and a
     sockperf-style RTT probe all feed the run report. *)
  let ts = Experiments.Harness.new_timeseries net in
  Obs.Int_sink.watch (Obs.Runtime.int_sink ()) ~ts (Fabric.Conn.key (List.hd conns));
  Obs.Attrib.watch (Obs.Runtime.attrib ()) ~ts (Fabric.Conn.key (List.hd conns));
  let sample_every = Eventsim.Time_ns.us 500 in
  Array.iter
    (fun sw -> Netsim.Switch.register_probes sw ~ts ~interval:sample_every ())
    net.Fabric.Topology.switches;
  (match Fabric.Host.acdc (Fabric.Topology.host net 0) with
  | Some instance ->
    Acdc.Sender.register_flow_probes (Acdc.sender instance) ~ts ~prefix:"flow0"
      ~interval:sample_every
      (Fabric.Conn.key (List.hd conns))
  | None -> ());
  ignore
    (Workload.Goodput.track_aggregate ts ~name:"goodput.bytes_acked" ~interval:sample_every
       conns);
  let probe =
    Workload.Probe.start
      ~src:(Fabric.Topology.host net 0)
      ~dst:(Fabric.Topology.host net pairs)
      ~config:(Experiments.Harness.host_config scheme net.Fabric.Topology.params)
      ~warmup:(Eventsim.Time_ns.ms 20) ()
  in
  let tputs =
    Experiments.Harness.measure_goodput net conns
      ~warmup:(Eventsim.Time_ns.ms 20)
      ~duration:(Eventsim.Time_ns.ms 80)
  in
  Experiments.Harness.finish_timeseries ts;
  Fabric.Topology.shutdown net;
  Format.printf "  goodput %a Gbps, %d switch drops@." Experiments.Harness.pp_gbps_list tputs
    (Fabric.Topology.total_switch_drops net);
  let report =
    Experiments.Harness.report_of_run ~id:"smoke" ~scheme
      ~config:
        [
          ("pairs", Obs.Json.Int pairs);
          ("warmup_ms", Obs.Json.Int 20);
          ("duration_ms", Obs.Json.Int 80);
        ]
      ~goodputs:tputs ~timeseries:ts ()
  in
  Obs.Report.add_int report "switch_drops" (Fabric.Topology.total_switch_drops net);
  Obs.Report.add_samples report ~name:"probe_rtt_ms" ~unit_label:"ms"
    (Workload.Probe.samples_ms probe);
  (* Close any --trace/--pcap/--profile artifacts here so they cover
     exactly the simulation run: the CPU microbench below pushes synthetic
     packets through bare datapaths, which would pollute provenance
     (events with no Created origin), break `trace_query validate`, and
     skew the profiling-off datapath rows. *)
  Obs.Runtime.close_trace ();
  Obs.Runtime.close_pcap ();
  Obs.Runtime.close_profile ();
  Dcpkt.Int_meta.set_enabled false;
  Obs.Attrib.set_enabled (Obs.Runtime.attrib ()) false;
  run_cpu_bench ~quota:0.05 ();
  (* The report is written only now so it can fold in the scheduler churn
     row: [sched_wheel_ns_per_op] is what the report_diff gate watches so
     the event core's cost cannot silently grow.  [set_metrics]/[add_*]
     above snapshotted at call time, so the deterministic sections are
     unaffected by the bench running after. *)
  (match List.assoc_opt "scheduler/wheel/churn-04096" !cpu_rows with
  | Some wheel_ns when wheel_ns > 0.0 ->
    Obs.Report.add_scalar report "sched_wheel_ns_per_op" wheel_ns
  | _ -> ());
  Obs.Report.write report ~path:!report_out;
  Format.printf "  wrote %s@." !report_out

(* ------------------------------------------------------------------ *)

let scenarios =
  [
    ("cpu", fun () -> run_cpu_bench ());
    ("smoke", smoke);
    ("ablation-fack", ablation_fack);
    ("ablation-floor", ablation_window_floor);
  ]

(* What no id, or [all], runs: everything but the CI smoke run. *)
let all_ids = [ "cpu"; "ablation-fack"; "ablation-floor" ]

let () =
  (* Sinks open only once every argument is known to be valid, so a typo
     creates no file and runs nothing. *)
  let rec parse ids setup = function
    | [] -> (List.rev ids, List.rev setup)
    | "--report" :: path :: rest -> parse ids ((fun () -> report_out := path) :: setup) rest
    | "--trace" :: path :: rest ->
      parse ids ((fun () -> Obs.Runtime.trace_to_file path) :: setup) rest
    | "--pcap" :: path :: rest ->
      parse ids ((fun () -> Obs.Runtime.pcap_to_file path) :: setup) rest
    | "--timeseries" :: dir :: rest ->
      parse ids ((fun () -> Obs.Runtime.set_timeseries_sink ~dir) :: setup) rest
    | "--profile" :: rest -> parse ids ((fun () -> Obs.Runtime.profile_to ()) :: setup) rest
    | arg :: rest when String.length arg > 10 && String.sub arg 0 10 = "--profile=" ->
      let folded = String.sub arg 10 (String.length arg - 10) in
      parse ids ((fun () -> Obs.Runtime.profile_to ~folded ()) :: setup) rest
    | arg :: rest -> parse (arg :: ids) setup rest
  in
  let ids, setup = parse [] [] (List.tl (Array.to_list Sys.argv)) in
  let ids = match ids with [] | [ "all" ] -> all_ids | ids -> ids in
  (match List.filter (fun id -> not (List.mem_assoc id scenarios)) ids with
  | [] -> ()
  | unknown ->
    Format.eprintf
      "bench: unknown argument(s): %s@.valid ids: %s, or all (the paper's figures run under \
       bin/acdc_expt.exe)@.flags: --report FILE, --trace FILE, --pcap FILE, --timeseries DIR, \
       --profile[=FILE]@."
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst scenarios));
    exit 1);
  List.iter (fun open_sink -> open_sink ()) setup;
  List.iter
    (fun id ->
      let wall_s, _ = Experiments.Harness.timed_run (List.assoc id scenarios) in
      Format.printf "  [%s finished in %.1fs]@." id wall_s)
    ids;
  Obs.Runtime.close_trace ();
  Obs.Runtime.close_pcap ();
  Obs.Runtime.close_profile ()
