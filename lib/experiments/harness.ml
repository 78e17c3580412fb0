module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns

type scheme = {
  label : string;
  fabric_ecn : bool;
  host_cc : Tcp.Cc.factory;
  host_ecn : bool;
  acdc : bool;
}

let cubic =
  { label = "CUBIC"; fabric_ecn = false; host_cc = Tcp.Cubic.factory; host_ecn = false; acdc = false }

let dctcp =
  {
    label = "DCTCP";
    fabric_ecn = true;
    host_cc = Tcp.Dctcp_cc.factory;
    host_ecn = true;
    acdc = false;
  }

let acdc ?(host_cc = Tcp.Cubic.factory) ?(host_ecn = false) () =
  { label = "AC/DC"; fabric_ecn = true; host_cc; host_ecn; acdc = true }

let params_for scheme params =
  if scheme.fabric_ecn then Fabric.Params.with_ecn params else params

let acdc_select scheme params =
  if scheme.acdc then Fabric.Topology.acdc_everywhere params else Fabric.Topology.no_acdc

let host_config scheme params =
  Fabric.Params.tcp_config params ~cc:scheme.host_cc ~ecn:scheme.host_ecn

let dumbbell scheme ?(params = Fabric.Params.default) ~pairs () =
  let params = params_for scheme params in
  let engine = Engine.create () in
  Fabric.Topology.dumbbell engine ~params ~acdc:(acdc_select scheme params) ~pairs ()

let star scheme ?(params = Fabric.Params.default) ~hosts () =
  let params = params_for scheme params in
  let engine = Engine.create () in
  Fabric.Topology.star engine ~params ~acdc:(acdc_select scheme params) ~hosts ()

let long_lived_pairs (net : Fabric.Topology.t) scheme ~pairs =
  let config = host_config scheme net.Fabric.Topology.params in
  List.init pairs (fun i ->
      let conn =
        Fabric.Conn.establish
          ~src:(Fabric.Topology.host net i)
          ~dst:(Fabric.Topology.host net (pairs + i))
          ~config ()
      in
      Fabric.Conn.send_forever conn;
      conn)

let measure_goodput (net : Fabric.Topology.t) conns ~warmup ~duration =
  let engine = net.Fabric.Topology.engine in
  let marks = ref [] in
  Engine.schedule engine ~at:warmup (fun () ->
      marks := List.map Fabric.Conn.bytes_acked conns);
  Engine.run ~until:(Time_ns.add warmup duration) engine;
  let finals = List.map Fabric.Conn.bytes_acked conns in
  List.map2
    (fun fin start -> float_of_int ((fin - start) * 8) /. Time_ns.to_sec duration /. 1e9)
    finals !marks

(* ------------------------------------------------------------------ *)
(* Time-series plumbing                                                *)

let new_timeseries (net : Fabric.Topology.t) = Obs.Timeseries.create net.Fabric.Topology.engine

let finish_timeseries ts =
  Obs.Timeseries.stop ts;
  Obs.Runtime.export_timeseries ts

let add_observer_sections report =
  Obs.Report.set_metrics report (Obs.Runtime.metrics ());
  if Obs.Prof.touched () then begin
    Obs.Report.set_profile report (Obs.Prof.to_json ());
    List.iter (fun (key, v) -> Obs.Report.add_scalar report key v) (Obs.Prof.baselines ())
  end;
  let sink = Obs.Runtime.int_sink () in
  if Obs.Int_sink.packets sink > 0 then Obs.Report.set_int report (Obs.Int_sink.to_json sink);
  let attrib = Obs.Runtime.attrib () in
  if Obs.Attrib.touched attrib then Obs.Report.set_fct_attrib report (Obs.Attrib.to_json attrib)

let report_of_run ~id ?scheme ?(config = []) ?goodputs ?timeseries () =
  let report = Obs.Report.create ~id in
  (match scheme with
  | Some s -> Obs.Report.add_config report "scheme" (Obs.Json.String s.label)
  | None -> ());
  List.iter (fun (key, v) -> Obs.Report.add_config report key v) config;
  (match goodputs with
  | Some tputs ->
    Obs.Report.add_int report "flows" (List.length tputs);
    Obs.Report.add_scalar report "aggregate_goodput_gbps" (List.fold_left ( +. ) 0.0 tputs)
  | None -> ());
  add_observer_sections report;
  (match timeseries with Some ts -> Obs.Report.embed_timeseries report ts | None -> ());
  report

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let pp_gbps_list fmt values =
  Format.fprintf fmt "[%s]" (String.concat "; " (List.map (Printf.sprintf "%.2f") values))

let print_header id title =
  Format.printf "@.=== %s: %s ===@." id title

let print_cdf ~label samples =
  if Dcstats.Samples.is_empty samples then Format.printf "  %-28s (no samples)@." label
  else begin
    Format.printf "  CDF %s (n=%d):@." label (Dcstats.Samples.count samples);
    let percentiles = [ 1.0; 5.0; 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 99.9; 100.0 ] in
    List.iter
      (fun p ->
        Format.printf "    p%-5.1f %10.4f@." p (Dcstats.Samples.percentile samples p))
      percentiles
  end

let print_row label fmt =
  Format.printf "  %-28s " label;
  Format.kfprintf (fun f -> Format.pp_print_newline f ()) Format.std_formatter fmt

let pctl samples p =
  if Dcstats.Samples.is_empty samples then nan else Dcstats.Samples.percentile samples p

(* ------------------------------------------------------------------ *)
(* Per-run metric snapshots                                            *)

let reset_run_metrics () =
  Obs.Runtime.reset_metrics ();
  Obs.Runtime.reset_int_sink ();
  Obs.Runtime.reset_attrib ();
  Acdc.Int_feedback.reset ()

let timed_run f =
  reset_run_metrics ();
  (* Per-run span attribution: each timed scenario starts from clean
     accumulators, so its report's profile section describes that run
     alone. *)
  if Obs.Prof.enabled () then begin
    Obs.Prof.reset ();
    Obs.Prof.set_enabled true
  end;
  let events0 = Engine.total_events_processed () in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall_s = Unix.gettimeofday () -. t0 in
  (wall_s, Engine.total_events_processed () - events0)
