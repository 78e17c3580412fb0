module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Prof = Obs.Prof
module Json = Obs.Json
module Diff = Obs.Diff

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let find_site name =
  List.find (fun s -> String.equal s.Prof.s_name name) (Prof.snapshot ())

let mini_run ~pairs ~duration_ms =
  let scheme = Experiments.Harness.acdc () in
  let net = Experiments.Harness.dumbbell scheme ~pairs () in
  let conns = Experiments.Harness.long_lived_pairs net scheme ~pairs in
  ignore
    (Experiments.Harness.measure_goodput net conns ~warmup:(Time_ns.ms 5)
       ~duration:(Time_ns.ms duration_ms));
  Fabric.Topology.shutdown net

(* ------------------------------------------------------------------ *)
(* Core span machinery                                                 *)

let test_disabled_noop () =
  Prof.reset ();
  Prof.set_enabled false;
  mini_run ~pairs:2 ~duration_ms:10;
  check_bool "no spans recorded" false (Prof.touched ());
  check_int "stack balanced" 0 (Prof.depth ());
  check_int "pending gauge untouched" 0 (Prof.pending_max ())

let test_span_accounting () =
  Prof.reset ();
  Prof.set_enabled true;
  let tok = Prof.enter Prof.Site.netsim_txq in
  ignore (Sys.opaque_identity (Array.make 1000 0.0));
  Prof.leave tok;
  Prof.set_enabled false;
  let s = find_site "netsim.txq" in
  check_int "one span" 1 s.Prof.s_count;
  check_bool "wall time measured" true (s.Prof.s_total_ns > 0);
  check_bool "max covers the only span" true (s.Prof.s_max_ns <= s.Prof.s_total_ns);
  (* The float array is ~1001 words; where it lands (minor vs major) is
     the runtime's business, but the span must see it. *)
  check_bool "allocation attributed to the span" true
    (s.Prof.s_minor_words +. s.Prof.s_major_words >= 1000.0);
  (* Every other site stayed silent. *)
  List.iter
    (fun st ->
      if not (String.equal st.Prof.s_name "netsim.txq") then
        check_int ("silent site " ^ st.Prof.s_name) 0 st.Prof.s_count)
    (Prof.snapshot ())

(* Minor words are exact, whatever the heap held before the span: a span
   charges the words its own code and its nested spans allocated, and none
   of the profiler's own samples. *)
let test_minor_words_exact () =
  let nested () =
    let outer = Prof.enter Prof.Site.netsim_switch in
    ignore (Sys.opaque_identity (Array.make 100 0));
    let inner = Prof.enter Prof.Site.netsim_txq in
    ignore (Sys.opaque_identity (Array.make 50 0));
    Prof.leave inner;
    Prof.leave outer
  in
  let words name = (find_site name).Prof.s_minor_words in
  Prof.reset ();
  Prof.set_enabled true;
  (* The first pass builds the folded-stack nodes for this path. *)
  nested ();
  let inner0 = words "netsim.txq" and outer0 = words "netsim.switch" in
  nested ();
  Prof.set_enabled false;
  let check_words = Alcotest.(check (float 0.0)) in
  check_words "inner span: a 50-element array" 51.0 (words "netsim.txq" -. inner0);
  check_words "outer span: its own 101 words plus the inner span's" 152.0
    (words "netsim.switch" -. outer0)

let test_exception_unwind () =
  Prof.reset ();
  Prof.set_enabled true;
  (try
     Prof.with_span Prof.Site.acdc_sender (fun () ->
         (* An abandoned inner frame: the raise skips its leave; the
            protected outer span must pop it on the way out. *)
         let _tok = Prof.enter Prof.Site.tcp_endpoint in
         failwith "boom")
   with Failure _ -> ());
  check_int "stack balanced after raise" 0 (Prof.depth ());
  check_int "outer span closed" 1 (find_site "acdc.sender").Prof.s_count;
  check_int "abandoned inner span closed" 1 (find_site "tcp.endpoint").Prof.s_count;
  Prof.set_enabled false

let test_engine_dispatch_unwind () =
  Prof.reset ();
  Prof.set_enabled true;
  let engine = Engine.create () in
  Engine.schedule engine ~at:Time_ns.zero (fun () -> failwith "callback raises");
  Engine.schedule engine ~at:(Time_ns.us 1) ignore;
  (try Engine.run engine with Failure _ -> ());
  Prof.set_enabled false;
  check_int "stack balanced after raising callback" 0 (Prof.depth ());
  check_int "dispatch span closed" 1 (find_site "eventsim.engine").Prof.s_count;
  check_int "pending gauge fed at dispatch" 1 (Prof.pending_max ())

let test_folded_structure () =
  Prof.reset ();
  Prof.set_enabled true;
  Prof.with_span Prof.Site.eventsim_engine (fun () ->
      Prof.with_span Prof.Site.netsim_switch (fun () ->
          Prof.with_span Prof.Site.netsim_txq (fun () -> ()));
      Prof.with_span Prof.Site.vswitch_datapath (fun () -> ()));
  Prof.with_span Prof.Site.fabric_conn (fun () -> ());
  Prof.set_enabled false;
  Alcotest.(check (list string))
    "folded stack paths, sorted"
    [
      "eventsim.engine";
      "eventsim.engine;netsim.switch";
      "eventsim.engine;netsim.switch;netsim.txq";
      "eventsim.engine;vswitch.datapath";
      "fabric.conn";
    ]
    (List.map fst (Prof.folded ()));
  List.iter
    (fun (path, self_ns) ->
      check_bool (Printf.sprintf "self ns of %s non-negative" path) true (self_ns >= 0))
    (Prof.folded ());
  (* The rendered form is one "path self_ns" line per stack. *)
  let lines = String.split_on_char '\n' (String.trim (Prof.folded_to_string ())) in
  check_int "one line per stack" (List.length (Prof.folded ())) (List.length lines)

(* ------------------------------------------------------------------ *)
(* One vocabulary with the performance ledger                          *)

(* The ledger's layers: BENCHMARK.json's per-layer [<layer>.calls] rows,
   in file order (a declared dependency of this test). *)
let ledger_layers () =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  let spec = match Json.of_string text with Ok j -> j | Error e -> Alcotest.fail e in
  match Json.member "per_layer" spec with
  | Some (Json.List rows) ->
    List.filter_map
      (fun row ->
        match Json.member "name" row with
        | Some (Json.String name) when String.ends_with ~suffix:".calls" name ->
          Some (String.sub name 0 (String.length name - String.length ".calls"))
        | _ -> None)
      rows
  | _ -> Alcotest.fail "BENCHMARK.json has no per_layer list"

let test_sites_are_ledger_layers () =
  Alcotest.(check (list string))
    "Site.all names the ledger's layers, in order" (ledger_layers ())
    (List.map Prof.Site.name Prof.Site.all)

(* Each boundary span fires once per call across it: the switch span once
   per switch input, the datapath span once per vSwitch packet either way,
   the engine span once per dispatched event. *)
let test_boundary_counts () =
  Experiments.Harness.reset_run_metrics ();
  Prof.reset ();
  Prof.set_enabled true;
  let events0 = Engine.total_events_processed () in
  mini_run ~pairs:2 ~duration_ms:10;
  let events = Engine.total_events_processed () - events0 in
  Prof.set_enabled false;
  let counters = Obs.Metrics.counters (Obs.Runtime.metrics ()) in
  let sum keep = List.fold_left (fun acc (k, v) -> if keep k then acc + v else acc) 0 counters in
  let switch_inputs =
    sum (fun k ->
        String.starts_with ~prefix:"switch." k && String.ends_with ~suffix:".input_packets" k)
  in
  let vswitch_packets =
    sum (fun k -> k = "vswitch.egress_packets" || k = "vswitch.ingress_packets")
  in
  check_bool "the run moved packets" true (switch_inputs > 0 && vswitch_packets > 0);
  check_int "netsim.switch = switch inputs" switch_inputs (find_site "netsim.switch").Prof.s_count;
  check_int "vswitch.datapath = vSwitch packets" vswitch_packets
    (find_site "vswitch.datapath").Prof.s_count;
  check_int "eventsim.engine = events processed" events
    (find_site "eventsim.engine").Prof.s_count

(* ------------------------------------------------------------------ *)
(* Determinism of the rendered profile                                 *)

let strip_keys drop json =
  let rec go = function
    | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) -> if List.mem k drop then None else Some (k, go v))
           fields)
    | Json.List items -> Json.List (List.map go items)
    | leaf -> leaf
  in
  go json

(* Wall-clock leaves are noise by design and always excluded. *)
let wall_keys = [ "total_ns"; "max_ns"; "events_per_sec" ]

(* Minor words are exact, so two same-seed runs in one process allocate
   the same.  Major words are not: what a minor collection promotes
   depends on where collections fall, which moves as heap state evolves
   inside one process.  They replay deterministically in a fresh process,
   which is what the alloc-word byte-identity criterion is about — see
   [test_cross_process_determinism] below. *)
let alloc_keys = [ "major_words" ]

let profiled_mini_run () =
  Experiments.Harness.reset_run_metrics ();
  Prof.reset ();
  Prof.set_enabled true;
  mini_run ~pairs:2 ~duration_ms:20;
  let json = Prof.to_json () in
  Prof.set_enabled false;
  json

let test_seeded_determinism () =
  let render json = Json.to_string (strip_keys (wall_keys @ alloc_keys) json) in
  let first = profiled_mini_run () in
  let second = profiled_mini_run () in
  check_string "counts, gauges and minor words byte-identical across same-seed runs"
    (render first) (render second)

(* The full criterion — counts AND allocation words byte-identical across
   two same-seed runs — holds between fresh processes with identical argv:
   re-exec this very binary twice in child mode and compare the bytes. *)
let prof_child () =
  print_string (Json.to_string (strip_keys wall_keys (profiled_mini_run ())))

let spawn_child () =
  let cmd = Filename.quote Sys.executable_name ^ " --prof-child" in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "profiled child process failed");
  Buffer.contents buf

let test_cross_process_determinism () =
  let first = spawn_child () in
  let second = spawn_child () in
  check_bool "child rendered a profile" true (String.length first > 0);
  check_bool "child profile includes alloc words" true
    (let sub = "minor_words" in
     let n = String.length sub in
     let rec scan i =
       i + n <= String.length first && (String.equal (String.sub first i n) sub || scan (i + 1))
     in
     scan 0);
  check_string "profile (incl. alloc words) byte-identical across processes"
    first second

(* A profiled run with INT and attribution on: the one report carries
   every observer section and cost baseline a run produces. *)
let test_report_carries_profile () =
  Experiments.Harness.reset_run_metrics ();
  Prof.reset ();
  Prof.set_enabled true;
  let attrib = Obs.Runtime.attrib () in
  Obs.Attrib.set_enabled attrib true;
  Dcpkt.Int_meta.set_enabled true;
  let json =
    Fun.protect
      ~finally:(fun () ->
        Prof.set_enabled false;
        Obs.Attrib.set_enabled attrib false;
        Dcpkt.Int_meta.set_enabled false)
      (fun () ->
        mini_run ~pairs:2 ~duration_ms:10;
        Obs.Report.to_json (Experiments.Harness.report_of_run ~id:"prof-test" ()))
  in
  let observer_sections = [ "metrics"; "timeseries"; "profile"; "int"; "fct_attrib" ] in
  let keys = match json with Json.Obj fields -> List.map fst fields | _ -> [] in
  Alcotest.(check (list string))
    "observer sections, in order" observer_sections
    (List.filter (fun k -> List.mem k observer_sections) keys);
  let scalar name =
    match Option.bind (Json.member "scalars" json) (Json.member name) with
    | Some (Json.Float v) -> v
    | _ -> Alcotest.fail (name ^ " scalar missing")
  in
  check_bool "ns_per_event positive" true (scalar "ns_per_event" > 0.0);
  check_bool "ns_per_packet positive" true (scalar "ns_per_packet" > 0.0);
  check_bool "minor_words_per_packet positive" true (scalar "minor_words_per_packet" > 0.0)

(* ------------------------------------------------------------------ *)
(* Diff semantics for profile-bearing reports                          *)

let test_diff_new_sections_are_info () =
  let base =
    Json.Obj [ ("scalars", Json.Obj [ ("a", Json.Int 1) ]); ("metrics", Json.Null) ]
  in
  let current =
    Json.Obj
      [
        ("scalars", Json.Obj [ ("a", Json.Int 1); ("ns_per_event", Json.Float 500.0) ]);
        ("metrics", Json.Obj [ ("x", Json.Int 3) ]);
        ("profile", Json.Obj [ ("sites", Json.Obj [] ) ]);
      ]
  in
  let out = Diff.diff ~base ~current () in
  check_int "no regressions from new sections" 0 out.Diff.regressions;
  check_int "no warnings from new sections" 0 out.Diff.warnings;
  check_bool "all findings informational" true
    (out.Diff.findings <> []
    && List.for_all (fun f -> f.Diff.severity = Diff.Info) out.Diff.findings)

let test_diff_ignores_wall_leaves () =
  let base = Json.Obj [ ("total_ns", Json.Int 100); ("max_ns", Json.Int 7) ] in
  let current = Json.Obj [ ("total_ns", Json.Int 1_000_000); ("max_ns", Json.Int 900) ] in
  let out = Diff.diff ~base ~current () in
  check_int "wall leaves never compared" 0 out.Diff.compared;
  check_int "wall leaves produce no findings" 0 (List.length out.Diff.findings)

let test_diff_baseline_directions () =
  let pair v v' = (Json.Obj [ ("ns_per_packet", Json.Float v) ],
                   Json.Obj [ ("ns_per_packet", Json.Float v') ]) in
  let base, worse = pair 100.0 200.0 in
  let out = Diff.diff ~base ~current:worse () in
  check_int "ns_per_packet growth is a regression" 1 out.Diff.regressions;
  let base, better = pair 100.0 50.0 in
  let out = Diff.diff ~base ~current:better () in
  check_int "ns_per_packet drop is not a regression" 0 out.Diff.regressions;
  check_bool "improvement reported as info" true
    (List.exists (fun f -> f.Diff.severity = Diff.Info) out.Diff.findings)

let test_parse_rule_ignore () =
  match Diff.parse_rule "total_ns=0:ignore" with
  | Ok r -> check_bool "parsed ignore direction" true (r.Diff.dir = Diff.Ignore)
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* INT-style per-port telemetry                                        *)

let test_switch_service_rate_probe () =
  let engine = Engine.create () in
  let sw = Netsim.Switch.create engine ~name:"probed" () in
  ignore
    (Netsim.Switch.add_port sw ~rate_bps:10_000_000_000 ~prop_delay:(Time_ns.us 1)
       ~deliver:(fun _ -> ())
       ());
  Netsim.Switch.add_route sw ~dst_ip:9 ~port:0;
  let ts = Obs.Timeseries.create engine in
  Netsim.Switch.register_probes sw ~ts ~interval:10_000 ();
  let key = Dcpkt.Flow_key.make ~src_ip:1 ~dst_ip:9 ~src_port:1 ~dst_port:2 in
  for i = 0 to 19 do
    Engine.schedule engine
      ~at:(Time_ns.us (2 * i))
      (fun () -> Netsim.Switch.input sw (Dcpkt.Packet.make ~key ~seq:0 ~payload:1448 ()))
  done;
  Engine.run ~until:(Time_ns.us 200) engine;
  Obs.Timeseries.stop ts;
  let channel name =
    List.find_opt
      (fun c -> String.equal (Obs.Timeseries.name c) name)
      (Obs.Timeseries.channels ts)
  in
  check_bool "qbytes channel registered" true (channel "switch.probed.port0.qbytes" <> None);
  match channel "switch.probed.port0.svc_gbps" with
  | None -> Alcotest.fail "svc_gbps channel missing"
  | Some c -> check_bool "service rate sampled" true (Obs.Timeseries.length c > 0)

(* ------------------------------------------------------------------ *)

let () =
  if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "--prof-child" then begin
    prof_child ();
    exit 0
  end;
  Alcotest.run "prof"
    [
      ( "spans",
        [
          Alcotest.test_case "disabled profiler records nothing" `Quick test_disabled_noop;
          Alcotest.test_case "span accounting" `Quick test_span_accounting;
          Alcotest.test_case "minor words are exact" `Quick test_minor_words_exact;
          Alcotest.test_case "exception unwinds abandoned frames" `Quick
            test_exception_unwind;
          Alcotest.test_case "engine dispatch span survives a raise" `Quick
            test_engine_dispatch_unwind;
          Alcotest.test_case "folded stacks" `Quick test_folded_structure;
        ] );
      ( "layers",
        [
          Alcotest.test_case "sites are the ledger's layers" `Quick
            test_sites_are_ledger_layers;
          Alcotest.test_case "boundary span counts" `Quick test_boundary_counts;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same-seed counts byte-identical" `Quick
            test_seeded_determinism;
          Alcotest.test_case "same-seed alloc words byte-identical across processes"
            `Quick test_cross_process_determinism;
          Alcotest.test_case "report carries profile + baselines" `Quick
            test_report_carries_profile;
        ] );
      ( "diff",
        [
          Alcotest.test_case "new sections are informational" `Quick
            test_diff_new_sections_are_info;
          Alcotest.test_case "wall-clock leaves ignored" `Quick test_diff_ignores_wall_leaves;
          Alcotest.test_case "baseline keys are direction-aware" `Quick
            test_diff_baseline_directions;
          Alcotest.test_case "parse_rule accepts ignore" `Quick test_parse_rule_ignore;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "per-port service-rate probe" `Quick
            test_switch_service_rate_probe;
        ] );
    ]
