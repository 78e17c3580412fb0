(* The second observability tier: time-series channels (decimation,
   probes, binned rates), run reports (round-trip through the JSON
   parser), the diff engine behind report_diff, and the determinism
   guarantee — the same seeded run twice produces byte-identical CSV and
   report artifacts. *)

module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Ts = Obs.Timeseries
module Json = Obs.Json

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let approx = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Timeseries: decimation                                              *)

let test_decimation_bounds () =
  let engine = Engine.create () in
  let ts = Ts.create ~default_budget:16 engine in
  let ch = Ts.channel ts ~unit_label:"bytes" "q" in
  let n = 1000 in
  for i = 0 to n - 1 do
    Ts.record ch ~now:(Time_ns.ns (10 * i)) (float_of_int i)
  done;
  check_int "offered points all counted" n (Ts.recorded ch);
  check_bool "stored points within budget" true (Ts.length ch <= 16);
  let stride = Ts.stride ch in
  check_bool "stride is a power of two" true (stride land (stride - 1) = 0);
  check_bool "decimation happened" true (stride > 1);
  let pts = Ts.points ch in
  (match pts with
  | (t0, v0) :: _ ->
    check_int "first point kept" 0 t0;
    approx "first value kept" 0.0 v0
  | [] -> Alcotest.fail "no points");
  (match List.rev pts with
  | (tl, vl) :: _ ->
    check_int "last offered point survives" (10 * (n - 1)) tl;
    approx "last offered value survives" (float_of_int (n - 1)) vl
  | [] -> assert false);
  (* Strictly increasing timestamps, and a uniform grid over the stored
     prefix (the trailing appended point may sit closer). *)
  let rec deltas acc = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> deltas ((t2 - t1) :: acc) rest
    | _ -> List.rev acc
  in
  let ds = deltas [] pts in
  List.iter (fun d -> check_bool "monotone timestamps" true (d > 0)) ds;
  (match ds with
  | first :: rest ->
    List.iteri
      (fun i d ->
        if i < List.length rest - 1 then check_int "uniform stored grid" first d)
      rest
  | [] -> Alcotest.fail "too few points")

let test_no_decimation_under_budget () =
  let engine = Engine.create () in
  let ts = Ts.create ~default_budget:64 engine in
  let ch = Ts.channel ts "x" in
  for i = 0 to 49 do
    Ts.record ch ~now:(Time_ns.ns i) (float_of_int (i * i))
  done;
  check_int "everything stored" 50 (Ts.length ch);
  check_int "stride untouched" 1 (Ts.stride ch)

let test_record_rejects_time_travel () =
  let engine = Engine.create () in
  let ts = Ts.create engine in
  let ch = Ts.channel ts "x" in
  Ts.record ch ~now:(Time_ns.ns 100) 1.0;
  Alcotest.check_raises "non-monotone time raises"
    (Invalid_argument "Timeseries.record x: time 50ns before last point 100ns") (fun () ->
      Ts.record ch ~now:(Time_ns.ns 50) 2.0)

let test_channel_idempotent () =
  let engine = Engine.create () in
  let ts = Ts.create engine in
  let a = Ts.channel ts "same" in
  let b = Ts.channel ts "same" in
  check_bool "same physical channel" true (a == b);
  check_int "registered once" 1 (List.length (Ts.channels ts))

(* ------------------------------------------------------------------ *)
(* Timeseries: probes                                                  *)

let test_probe_counts () =
  let engine = Engine.create () in
  let ts = Ts.create engine in
  let ch =
    Ts.probe ts ~name:"clock" ~interval:(Time_ns.us 10) ~until:(Time_ns.us 100) (fun () ->
        Some (Time_ns.to_sec (Engine.now engine)))
  in
  let skipping = ref 0 in
  let sparse =
    Ts.probe ts ~name:"sparse" ~interval:(Time_ns.us 10) ~until:(Time_ns.us 100) (fun () ->
        incr skipping;
        if !skipping mod 2 = 0 then Some 1.0 else None)
  in
  Engine.run ~until:(Time_ns.ms 1) engine;
  (* Samples at 0, 10us, ..., 100us inclusive. *)
  check_int "fixed-interval samples" 11 (Ts.recorded ch);
  check_bool "None skips the sample" true (Ts.recorded sparse < 11);
  (* The [until] bound deactivated both probes: running the engine further
     must not add samples. *)
  Engine.run ~until:(Time_ns.ms 2) engine;
  check_int "probes stopped" 11 (Ts.recorded ch)

let test_probe_stop_drains () =
  let engine = Engine.create () in
  let ts = Ts.create engine in
  ignore (Ts.probe ts ~name:"forever" ~interval:(Time_ns.us 10) (fun () -> Some 0.0));
  Engine.run ~until:(Time_ns.us 95) engine;
  Ts.stop ts;
  Engine.run engine;
  let ch = Option.get (Ts.find ts "forever") in
  check_bool "stop halts sampling" true (Ts.recorded ch <= 11)

(* ------------------------------------------------------------------ *)
(* Timeseries: binned rates vs the exact increment sum                 *)

(* The reference [Ts.binned_rate] is held to: byte increments
   [(time, bytes)], in time order, summed into [bin]-wide intervals from
   0 to [until], as [(bin_end_sec, gbps)] per interval. *)
let windowed_rate increments ~bin ~until =
  let bins = ((until + bin - 1) / bin) + 1 in
  let acc = Array.make bins 0.0 in
  List.iter
    (fun (time, bytes) ->
      let idx = time / bin in
      if idx < bins then acc.(idx) <- acc.(idx) +. bytes)
    increments;
  let secs = Time_ns.to_sec bin in
  List.init bins (fun i -> (Time_ns.to_sec ((i + 1) * bin), acc.(i) *. 8.0 /. secs /. 1e9))

let test_series_windowed_rate () =
  (* 1250 bytes in each of two 1-us bins = 10 Gb/s. *)
  match windowed_rate [ (100, 1250.0); (1_100, 1250.0) ] ~bin:1_000 ~until:2_000 with
  | (_, r1) :: (_, r2) :: _ ->
    approx "bin 1 rate" 10.0 r1;
    approx "bin 2 rate" 10.0 r2
  | _ -> Alcotest.fail "expected two bins"

let test_binned_rate_matches_windowed_rate () =
  let engine = Engine.create () in
  let ts = Ts.create ~default_budget:4096 engine in
  let ch = Ts.channel ts "bytes" in
  let increments = ref [] in
  let rng = Eventsim.Rng.create ~seed:7 in
  let level = ref 0.0 in
  let time = ref 0 in
  for _ = 1 to 500 do
    time := !time + Eventsim.Rng.int rng 40_000;
    let inc = float_of_int (Eventsim.Rng.int rng 3_000) in
    level := !level +. inc;
    increments := (!time, inc) :: !increments;
    Ts.record ch ~now:!time !level
  done;
  let bin = Time_ns.ms 1 and until = Time_ns.ms 12 in
  let expected = windowed_rate (List.rev !increments) ~bin ~until in
  let got = Ts.binned_rate ch ~bin ~until in
  check_int "same bin count" (List.length expected) (List.length got);
  List.iter2
    (fun (te, ve) (tg, vg) ->
      approx "bin end" te tg;
      approx "bin rate" ve vg)
    expected got

let test_binned_rate_survives_decimation () =
  (* Decimation moves increments across bin edges by at most one sample
     gap, but conserves the total: the sum over all bins must equal the
     final level regardless of budget. *)
  let total_of ~budget =
    let engine = Engine.create () in
    let ts = Ts.create ~default_budget:budget engine in
    let ch = Ts.channel ts "bytes" in
    for i = 1 to 10_000 do
      Ts.record ch ~now:(Time_ns.ns (i * 1_000)) (float_of_int (i * 100))
    done;
    let bin = Time_ns.ms 1 and until = Time_ns.ms 10 in
    let secs = Time_ns.to_sec bin in
    List.fold_left (fun acc (_, gbps) -> acc +. (gbps *. 1e9 *. secs /. 8.0)) 0.0
      (Ts.binned_rate ch ~bin ~until)
  in
  approx "totals conserved under decimation" (total_of ~budget:65536) (total_of ~budget:64)

(* ------------------------------------------------------------------ *)
(* Report: build and round-trip through the parser                     *)

let sample_report () =
  let report = Obs.Report.create ~id:"unit" in
  Obs.Report.add_config report "scheme" (Json.String "AC/DC");
  Obs.Report.add_config report "pairs" (Json.Int 5);
  Obs.Report.add_scalar report "aggregate_goodput_gbps" 9.375;
  Obs.Report.add_int report "switch_drops" 12;
  let samples = Dcstats.Samples.create () in
  List.iter (Dcstats.Samples.add samples) [ 0.1; 0.2; 0.3; 0.4; 0.5 ];
  Obs.Report.add_samples report ~name:"rtt_ms" ~unit_label:"ms" samples;
  let engine = Engine.create () in
  let ts = Ts.create engine in
  let ch = Ts.channel ts ~unit_label:"bytes" "q" in
  Ts.record ch ~now:Time_ns.zero 0.0;
  Ts.record ch ~now:(Time_ns.us 1) 1500.0;
  Obs.Report.embed_timeseries report ts;
  report

let test_report_round_trip () =
  let json = Obs.Report.to_json (sample_report ()) in
  let s = Json.to_string json in
  match Json.of_string s with
  | Error msg -> Alcotest.fail ("report does not parse: " ^ msg)
  | Ok parsed ->
    check_string "parse . print is the identity on printed reports" s (Json.to_string parsed);
    (match Json.member "schema" parsed with
    | Some (Json.String schema) -> check_string "schema" "acdc-report/1" schema
    | _ -> Alcotest.fail "schema missing");
    (match Json.member "scalars" parsed with
    | Some scalars -> (
      match Json.member "aggregate_goodput_gbps" scalars with
      | Some (Json.Float v) -> approx "scalar survives" 9.375 v
      | _ -> Alcotest.fail "scalar missing")
    | None -> Alcotest.fail "scalars missing");
    (match Json.member "percentiles" parsed with
    | Some pct -> (
      match Json.member "rtt_ms" pct with
      | Some summary ->
        (match Json.member "count" summary with
        | Some (Json.Int 5) -> ()
        | _ -> Alcotest.fail "sample count wrong");
        (match Json.member "p50" summary with
        | Some (Json.Float v) -> approx "p50" 0.3 v
        | Some (Json.Int v) -> approx "p50" 0.3 (float_of_int v)
        | _ -> Alcotest.fail "p50 missing")
      | None -> Alcotest.fail "rtt_ms summary missing")
    | None -> Alcotest.fail "percentiles missing")

let test_report_write_unwritable () =
  match Obs.Report.write (sample_report ()) ~path:"/nonexistent-dir-xyzzy/report.json" with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Diff engine                                                         *)

let bench_like ~ns_per_op ~events_per_sec =
  Json.Obj
    [
      ("schema", Json.String "acdc-bench/1");
      ( "scenarios",
        Json.List
          [
            Json.Obj
              [ ("id", Json.String "smoke"); ("events_per_sec", Json.Float events_per_sec) ];
          ] );
      ( "cpu",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "datapath/sender/acdc/00100-flows");
                ("ns_per_op", Json.Float ns_per_op);
              ];
          ] );
    ]

let test_diff_identical () =
  let doc = bench_like ~ns_per_op:500.0 ~events_per_sec:2e6 in
  let outcome = Obs.Diff.diff ~base:doc ~current:doc () in
  check_int "no regressions" 0 outcome.Obs.Diff.regressions;
  check_int "no warnings" 0 outcome.Obs.Diff.warnings;
  check_bool "numeric fields compared" true (outcome.Obs.Diff.compared >= 2)

let test_diff_flags_regression () =
  let base = bench_like ~ns_per_op:500.0 ~events_per_sec:2e6 in
  (* ns/op up 20%, events/sec down 20%: both beyond the 15% tolerance in
     their bad direction. *)
  let current = bench_like ~ns_per_op:600.0 ~events_per_sec:1.6e6 in
  let outcome = Obs.Diff.diff ~base ~current () in
  check_int "both regressions flagged" 2 outcome.Obs.Diff.regressions

let test_diff_direction_matters () =
  let base = bench_like ~ns_per_op:500.0 ~events_per_sec:2e6 in
  (* Moves of the same size in the good direction: not regressions. *)
  let current = bench_like ~ns_per_op:400.0 ~events_per_sec:2.4e6 in
  let outcome = Obs.Diff.diff ~base ~current () in
  check_int "improvements are not regressions" 0 outcome.Obs.Diff.regressions

let test_diff_unknown_keys_drift () =
  let doc v = Json.Obj [ ("mystery_metric", Json.Float v) ] in
  let outcome = Obs.Diff.diff ~base:(doc 100.0) ~current:(doc 130.0) () in
  check_int "drift beyond tolerance only warns" 0 outcome.Obs.Diff.regressions;
  check_int "warning recorded" 1 outcome.Obs.Diff.warnings

let test_diff_tolerance_override () =
  let base = bench_like ~ns_per_op:500.0 ~events_per_sec:2e6 in
  let current = bench_like ~ns_per_op:600.0 ~events_per_sec:2e6 in
  let rule =
    match Obs.Diff.parse_rule "ns_per_op=0.6" with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  check_bool "direction kept from the builtin table" true
    (rule.Obs.Diff.dir = Obs.Diff.Higher_is_worse);
  let outcome =
    Obs.Diff.diff ~rules:(rule :: Obs.Diff.default_rules) ~base ~current ()
  in
  check_int "relaxed tolerance passes" 0 outcome.Obs.Diff.regressions

let test_parse_rule_errors () =
  check_bool "missing =" true (Result.is_error (Obs.Diff.parse_rule "nonsense"));
  check_bool "bad tolerance" true (Result.is_error (Obs.Diff.parse_rule "k=abc"));
  check_bool "bad direction" true (Result.is_error (Obs.Diff.parse_rule "k=0.5:sideways"));
  match Obs.Diff.parse_rule "k=0.5:lower" with
  | Ok r -> check_bool "explicit direction" true (r.Obs.Diff.dir = Obs.Diff.Lower_is_worse)
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Determinism: one seeded instrumented run, twice — CSV exports and
   the report JSON must be byte-identical.                             *)

let instrumented_run () =
  Dcpkt.Packet.reset_ids ();
  Obs.Runtime.reset_metrics ();
  let params = Fabric.Params.with_ecn Fabric.Params.default in
  let engine = Engine.create () in
  let net =
    Fabric.Topology.dumbbell engine ~params
      ~acdc:(Fabric.Topology.acdc_everywhere params)
      ~pairs:2 ()
  in
  let ts = Ts.create engine in
  Array.iter
    (fun sw -> Netsim.Switch.register_probes sw ~ts ~interval:(Time_ns.us 50) ())
    net.Fabric.Topology.switches;
  let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
  let conns =
    List.init 2 (fun i ->
        let c =
          Fabric.Conn.establish
            ~src:(Fabric.Topology.host net i)
            ~dst:(Fabric.Topology.host net (2 + i))
            ~config ()
        in
        Fabric.Conn.send_forever c;
        c)
  in
  ignore
    (Workload.Goodput.track_aggregate ts ~name:"goodput.bytes_acked"
       ~interval:(Time_ns.us 50) conns);
  Engine.run ~until:(Time_ns.ms 5) engine;
  Ts.stop ts;
  let goodputs = List.map (fun c -> Fabric.Conn.goodput_gbps c ~over:(Time_ns.ms 5)) conns in
  Fabric.Topology.shutdown net;
  let report = Obs.Report.create ~id:"determinism" in
  Obs.Report.add_config report "pairs" (Json.Int 2);
  Obs.Report.add_scalar report "aggregate_goodput_gbps" (List.fold_left ( +. ) 0.0 goodputs);
  Obs.Report.set_metrics report (Obs.Runtime.metrics ());
  Obs.Report.embed_timeseries report ts;
  let csv = String.concat "" (List.map Ts.to_csv (Ts.channels ts)) in
  (csv, Json.to_string (Obs.Report.to_json report))

let test_same_seed_byte_identical () =
  let csv_a, report_a = instrumented_run () in
  let csv_b, report_b = instrumented_run () in
  check_bool "csv non-trivial" true (String.length csv_a > 200);
  check_string "csv byte-identical"
    (Digest.to_hex (Digest.string csv_a))
    (Digest.to_hex (Digest.string csv_b));
  check_string "report byte-identical"
    (Digest.to_hex (Digest.string report_a))
    (Digest.to_hex (Digest.string report_b));
  (* And the diff gate agrees: two identical runs show no regression. *)
  let parse s = match Json.of_string s with Ok j -> j | Error e -> Alcotest.fail e in
  let outcome = Obs.Diff.diff ~base:(parse report_a) ~current:(parse report_b) () in
  check_int "identical runs pass the gate" 0 outcome.Obs.Diff.regressions

(* ------------------------------------------------------------------ *)
(* The smoke run writes CI's gated rows into the report it is given,
   and leaves INT and attribution as it found them.                    *)

let smoke_report () =
  let report = Obs.Report.create ~id:"smoke" in
  Experiments.Harness.reset_run_metrics ();
  Experiments.Smoke.run report;
  Obs.Report.to_json report

let int_and_attrib () = (Dcpkt.Int_meta.enabled (), Obs.Attrib.enabled (Obs.Runtime.attrib ()))

let test_smoke_rows () =
  let json = smoke_report () in
  let keys name =
    match Json.member name json with Some (Json.Obj fields) -> List.map fst fields | _ -> []
  in
  Alcotest.(check (list string))
    "config" [ "scheme"; "pairs"; "warmup_ms"; "duration_ms" ] (keys "config");
  List.iter
    (fun key -> check_bool (key ^ " present") true (List.mem key (keys "scalars")))
    [ "flows"; "aggregate_goodput_gbps"; "switch_drops"; "sched_wheel_ns_per_op" ];
  check_bool "flows = 5" true
    (Option.bind (Json.member "scalars" json) (Json.member "flows") = Some (Json.Int 5));
  Alcotest.(check (list string)) "percentiles" [ "probe_rtt_ms" ] (keys "percentiles");
  (match Json.member "timeseries" json with
  | Some (Json.List [ embedded ]) ->
    check_bool "embedded time series non-empty" true
      (match Json.member "embedded" embedded with Some (Json.List (_ :: _)) -> true | _ -> false)
  | _ -> Alcotest.fail "expected one embedded time series");
  Alcotest.(check (pair bool bool)) "INT and attribution off again" (false, false)
    (int_and_attrib ())

let test_smoke_keeps_flags () =
  let attrib = Obs.Runtime.attrib () in
  Dcpkt.Int_meta.set_enabled true;
  Obs.Attrib.set_enabled attrib true;
  let after =
    Fun.protect
      ~finally:(fun () ->
        Dcpkt.Int_meta.set_enabled false;
        Obs.Attrib.set_enabled attrib false)
      (fun () ->
        ignore (smoke_report ());
        int_and_attrib ())
  in
  Alcotest.(check (pair bool bool)) "INT and attribution still on" (true, true) after

let () =
  Alcotest.run "report"
    [
      ( "timeseries",
        [
          Alcotest.test_case "decimation bounds + endpoints" `Quick test_decimation_bounds;
          Alcotest.test_case "no decimation under budget" `Quick test_no_decimation_under_budget;
          Alcotest.test_case "monotone time enforced" `Quick test_record_rejects_time_travel;
          Alcotest.test_case "channel find-or-create" `Quick test_channel_idempotent;
          Alcotest.test_case "probe sampling" `Quick test_probe_counts;
          Alcotest.test_case "stop drains the queue" `Quick test_probe_stop_drains;
          Alcotest.test_case "series windowed rate" `Quick test_series_windowed_rate;
          Alcotest.test_case "binned_rate = windowed_rate" `Quick
            test_binned_rate_matches_windowed_rate;
          Alcotest.test_case "binned_rate under decimation" `Quick
            test_binned_rate_survives_decimation;
        ] );
      ( "report",
        [
          Alcotest.test_case "round-trip" `Quick test_report_round_trip;
          Alcotest.test_case "unwritable path" `Quick test_report_write_unwritable;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical reports pass" `Quick test_diff_identical;
          Alcotest.test_case "20% regression flagged" `Quick test_diff_flags_regression;
          Alcotest.test_case "direction matters" `Quick test_diff_direction_matters;
          Alcotest.test_case "unknown keys drift" `Quick test_diff_unknown_keys_drift;
          Alcotest.test_case "tolerance override" `Quick test_diff_tolerance_override;
          Alcotest.test_case "parse_rule errors" `Quick test_parse_rule_errors;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, same bytes" `Quick test_same_seed_byte_identical ] );
      ( "smoke",
        [
          Alcotest.test_case "rows in the report" `Quick test_smoke_rows;
          Alcotest.test_case "INT and attribution kept on" `Quick test_smoke_keeps_flags;
        ] );
    ]
