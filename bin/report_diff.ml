(* Compare two run reports field by field and exit nonzero on
   regression — the CI gate behind the bench smoke report.

   Exit codes: 0 no regression, 1 regression found, 2 usage error or an
   input that is not a report.  Both inputs go through
   [Obs.Report.read_file], as in the farm and [trace_query validate], so
   an unreadable file, bad JSON or a missing "schema" field is exit 2. *)

open Cmdliner

let base_arg =
  let doc = "Baseline report (the previous run's artifact)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE" ~doc)

let current_arg =
  let doc = "Current report to judge against $(b,BASE)." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"CURRENT" ~doc)

let tol_arg =
  let doc =
    "Override or add a per-key tolerance, as $(i,KEY=FRAC) or \
     $(i,KEY=FRAC:higher|lower|drift) (e.g. --tol ns_per_op=0.6).  Without a direction the \
     built-in one for $(i,KEY) is kept (drift for unknown keys).  Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "tol" ] ~docv:"RULE" ~doc)

let default_tol_arg =
  let doc = "Relative tolerance for numeric fields without a specific rule." in
  Arg.(value & opt float 0.15 & info [ "default-tol" ] ~docv:"FRAC" ~doc)

let quiet_arg =
  let doc = "Only print regressions (suppress warnings and improvements)." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let main base current tols default_tol quiet =
  let overrides =
    List.map
      (fun spec ->
        match Obs.Diff.parse_rule spec with
        | Ok rule -> rule
        | Error msg ->
          Format.eprintf "bad --tol: %s@." msg;
          exit 2)
      tols
  in
  (* Overrides shadow the defaults: first match wins in Diff. *)
  let rules = overrides @ Obs.Diff.default_rules in
  let load path =
    match Obs.Report.read_file ~path with
    | Ok json -> json
    | Error msg ->
      Format.eprintf "%s@." msg;
      exit 2
  in
  let base_json = load base in
  let current_json = load current in
  let outcome = Obs.Diff.diff ~rules ~default_tol ~base:base_json ~current:current_json () in
  let outcome =
    if quiet then
      {
        outcome with
        Obs.Diff.findings =
          List.filter
            (fun f -> f.Obs.Diff.severity = Obs.Diff.Regression)
            outcome.Obs.Diff.findings;
      }
    else outcome
  in
  Format.printf "%a" Obs.Diff.pp_outcome outcome;
  if outcome.Obs.Diff.regressions > 0 then exit 1

let cmd =
  let doc = "compare two run reports and fail on metric regressions" in
  let info = Cmd.info "report_diff" ~doc ~exits:[] in
  Cmd.v info
    Term.(const main $ base_arg $ current_arg $ tol_arg $ default_tol_arg $ quiet_arg)

let () = exit (Cmd.eval cmd)
