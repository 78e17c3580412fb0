(* CLI driver: run any of the paper's experiments by id. *)

let list_experiments () =
  Format.printf "available experiments:@.";
  List.iter
    (fun e -> Format.printf "  %-14s %s@." e.Experiments.Registry.id e.Experiments.Registry.title)
    (Experiments.Registry.all ())

let fail fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "%s@." msg;
      exit 1)
    fmt

let writing flag f = try f () with Sys_error msg -> fail "cannot write %s: %s" flag msg

(* Run each experiment bracketed by the observability harness; returns
   each id's wall time and simulator event count. *)
let run_ids ids =
  List.map
    (fun id ->
      let e = Option.get (Experiments.Registry.find id) in
      let wall_s, events =
        Experiments.Harness.timed_run (fun () -> e.Experiments.Registry.run ())
      in
      Format.printf "  [%s finished in %.1fs]@." id wall_s;
      (id, wall_s, events))
    ids

let write_report ~path runs =
  let ids = List.map (fun (id, _, _) -> id) runs in
  let report = Obs.Report.create ~id:(String.concat "+" ids) in
  Obs.Report.add_config report "experiments"
    (Obs.Json.List (List.map (fun id -> Obs.Json.String id) ids));
  List.iter
    (fun (id, wall_s, events) ->
      Obs.Report.add_scalar report (id ^ ".wall_s") wall_s;
      Obs.Report.add_int report (id ^ ".events") events;
      Obs.Report.add_scalar report (id ^ ".events_per_sec")
        (if wall_s > 0.0 then float_of_int events /. wall_s else 0.0))
    runs;
  (* The observer sections describe the last experiment only (timed_run
     resets between runs); for one report per experiment, run each id on
     its own, as farm.exe does. *)
  Experiments.Harness.add_observer_sections report;
  writing "--report" (fun () -> Obs.Report.write report ~path)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  let doc = "Enable debug logging of protocol events (very chatty)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let ids_arg =
  let doc = "Experiment ids to run (see --list); 'all' runs everything." in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let list_arg =
  let doc = "List available experiments." in
  Arg.(value & flag & info [ "list"; "l" ] ~doc)

let trace_arg =
  let doc =
    "Write a JSONL event trace (enqueues, drops, CE marks, RWND rewrites, ...) to $(docv). \
     Tracing is off unless this flag is given."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_filter_arg =
  let doc =
    "Filter trace events before the sink (requires --trace).  $(docv) is comma-separated \
     'flow=SRC_IP:SRC_PORT-DST_IP:DST_PORT' and 'kind=K1|K2|...' clauses; repeated values of \
     one key union, distinct keys intersect; an unknown kind is an error.  Example: \
     'flow=1:40000-6:5001,kind=drop|ce_mark|rwnd_rewrite'."
  in
  Arg.(value & opt (some string) None & info [ "trace-filter" ] ~docv:"SPEC" ~doc)

let pcap_arg =
  let doc =
    "Capture every frame crossing a switch port, VM edge or impaired link to $(docv) \
     (pcapng with per-link interfaces if the name ends in .pcapng, classic pcap otherwise)."
  in
  Arg.(value & opt (some string) None & info [ "pcap" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Profile the run: per-layer span counts, wall time and allocation words are added to \
     the --report output, and flamegraph-compatible folded stacks are written to $(docv) \
     (default 'profile.folded' when the flag is given bare)."
  in
  Arg.(
    value
    & opt ~vopt:(Some "profile.folded") (some string) None
    & info [ "profile" ] ~docv:"FILE" ~doc)

let report_arg =
  let doc = "Write a structured run report (see README 'Run reports') to $(docv)." in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let timeseries_arg =
  let doc =
    "Export every instrumented experiment's time-series channels as CSV files into $(docv) \
     (created if missing)."
  in
  Arg.(value & opt (some string) None & info [ "timeseries" ] ~docv:"DIR" ~doc)

let impair_arg =
  let doc =
    "Impair every link of every topology with $(docv), a comma-separated spec like \
     'loss=0.01,reorder=0.05,reorder_delay_us=50' (keys: loss, dup, corrupt, strip_pack, \
     reorder, reorder_delay_us/_ns, jitter_us/_ns).  Applies to experiment ids; fuzz \
     scenarios sample their own impairments."
  in
  Arg.(value & opt (some string) None & info [ "impair" ] ~docv:"SPEC" ~doc)

let int_arg =
  let doc =
    "Enable in-band network telemetry: every switch stamps per-hop metadata (ingress/egress \
     time, queue depth, service rate) into the packets it forwards; the receiving vSwitch \
     strips the stack into trace events ('int_hop'/'int_strip'), the report's 'int' section \
     and the CC feedback channel.  Query with 'trace_query int --flow'."
  in
  Arg.(value & flag & info [ "int" ] ~doc)

let attrib_arg =
  let doc =
    "Enable causal FCT attribution: every flow's lifetime is split across a mutually \
     exclusive stall-state clock (handshake, app/cwnd/rwnd-limited — native vs \
     vSwitch-enforced — RTO recovery, in-flight) whose durations sum exactly to its FCT.  \
     Results ride in the report's 'fct_attrib' section, 'attrib' trace events and \
     'trace_query why --flow'."
  in
  Arg.(value & flag & info [ "attrib" ] ~doc)

let fuzz_arg =
  let doc =
    "Run $(docv) randomized invariant-checking scenarios instead of experiments; exits \
     nonzero and prints a replayable seed per violation."
  in
  Arg.(value & opt (some int) None & info [ "fuzz" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Root seed for --fuzz scenarios and --impair randomness." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Fuzz mode: scenarios [seed, seed+n), one line each, report optional;
   the exit code is the number of violated invariants (capped by the
   shell's 8 bits, but zero means zero). *)
let run_fuzz ~count ~seed ~report =
  Format.printf "fuzzing %d scenario(s) from seed %d@." count seed;
  let outcomes = Experiments.Fuzz_harness.run ~count ~seed in
  List.iter Experiments.Fuzz_harness.print_outcome outcomes;
  let violations =
    List.fold_left
      (fun acc o -> acc + List.length o.Experiments.Fuzz_harness.violations)
      0 outcomes
  in
  Option.iter
    (fun path ->
      writing "--report" (fun () ->
          Obs.Report.write (Experiments.Fuzz_harness.report_of_outcomes outcomes) ~path);
      Format.printf "  [report written to %s]@." path)
    report;
  if violations = 0 then Format.printf "all invariants held@."
  else begin
    let failing =
      List.filter (fun o -> o.Experiments.Fuzz_harness.violations <> []) outcomes
    in
    Format.printf "%d invariant violation(s) across %d scenario(s); replay with:@."
      violations (List.length failing);
    List.iter
      (fun o ->
        Format.printf "  acdc_expt --fuzz 1 --seed %d@."
          o.Experiments.Fuzz_harness.scenario.Experiments.Fuzz_harness.seed)
      failing
  end;
  violations

let main verbose list trace trace_filter pcap report timeseries impair profile
    int_enabled attrib_enabled fuzz seed ids =
  setup_logs verbose;
  (* Every spec and output path is checked before any output is created,
     truncated or made, so a bad flag leaves the file system as it was. *)
  let trace_filter =
    match trace_filter with
    | None -> None
    | Some spec when trace = None -> fail "--trace-filter %S requires --trace" spec
    | Some spec -> (
      match Obs.Trace.filter_of_spec spec with
      | Ok wrap -> Some wrap
      | Error msg -> fail "bad --trace-filter spec: %s" msg)
  in
  let impair =
    Option.map
      (fun spec ->
        match Netsim.Impair.config_of_string spec with
        | Ok config -> config
        | Error msg -> fail "bad --impair spec: %s" msg)
      impair
  in
  let ids = if ids = [ "all" ] then Experiments.Registry.ids () else ids in
  (match (fuzz, List.filter (fun id -> Experiments.Registry.find id = None) ids) with
  | Some count, _ when count <= 0 -> fail "--fuzz expects a positive count"
  | None, (_ :: _ as missing) when not list ->
    fail "unknown experiment(s): %s" (String.concat ", " missing)
  | _ -> ());
  let check_output flag kind =
    Option.iter (fun path ->
        Result.iter_error (fail "%s") (Obs.Runtime.check_output ~flag kind path))
  in
  check_output "--trace" `File trace;
  check_output "--pcap" `File pcap;
  check_output "--report" `File report;
  check_output "--timeseries" `Dir timeseries;
  check_output "--profile" `File profile;
  if int_enabled then Dcpkt.Int_meta.set_enabled true;
  if attrib_enabled then Obs.Attrib.set_enabled (Obs.Runtime.attrib ()) true;
  Option.iter (fun folded -> Obs.Runtime.profile_to ~folded ()) profile;
  Option.iter (fun path -> writing "--trace" (fun () -> Obs.Runtime.trace_to_file path)) trace;
  Option.iter (fun wrap -> Obs.Runtime.set_tracer (wrap (Obs.Runtime.tracer ()))) trace_filter;
  Option.iter (fun path -> writing "--pcap" (fun () -> Obs.Runtime.pcap_to_file path)) pcap;
  Option.iter
    (fun dir ->
      writing "--timeseries" (fun () -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
      Obs.Runtime.set_timeseries_sink ~dir)
    timeseries;
  Option.iter (fun config -> Netsim.Impair.set_default ~config ~seed) impair;
  let violations =
    match fuzz with
    | Some count -> run_fuzz ~count ~seed ~report
    | None ->
      if list || ids = [] then list_experiments ()
      else begin
        let runs = run_ids ids in
        Option.iter
          (fun path ->
            write_report ~path runs;
            Format.printf "  [report written to %s]@." path)
          report;
        Option.iter (Format.printf "  [timeseries written to %s]@.") timeseries
      end;
      0
  in
  Obs.Runtime.clear_timeseries_sink ();
  Obs.Runtime.close_trace ();
  Obs.Runtime.close_pcap ();
  writing "--profile" Obs.Runtime.close_profile;
  if violations > 0 then exit 1;
  if fuzz = None then begin
    Option.iter (Format.printf "  [trace written to %s]@.") trace;
    Option.iter (Format.printf "  [pcap written to %s]@.") pcap;
    Option.iter (Format.printf "  [folded profile stacks written to %s]@.") profile
  end

let cmd =
  let doc = "reproduce the AC/DC TCP (SIGCOMM 2016) experiments" in
  let info = Cmd.info "acdc_expt" ~doc in
  Cmd.v info
    Term.(
      const main $ verbose_arg $ list_arg $ trace_arg $ trace_filter_arg $ pcap_arg
      $ report_arg $ timeseries_arg $ impair_arg $ profile_arg $ int_arg
      $ attrib_arg $ fuzz_arg $ seed_arg $ ids_arg)

let () = exit (Cmd.eval cmd)
