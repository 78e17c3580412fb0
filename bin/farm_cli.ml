(* Experiment-farm CLI: content-addressed parallel scenario runner.

     farm run --all -j 4        run everything not already cached, merge corpus
     farm status                cache hit/miss plan + regression-gate status
     farm gc                    drop cache entries no current scenario owns
     farm fingerprint           print the code fingerprint cache keys use
     farm gate --record ...     record whether CI's regression gate ran

   Scenario identity is (id, kind, seed, canonical config JSON, arguments)
   hashed together with the digest of the worker executables, so a
   scenario re-runs exactly when its parameters or the simulator code
   change.  [<root>/corpus.json] is the sweep's one merged artifact. *)

let default_expt_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "acdc_expt.exe"

let default_bench_exe () =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat (Filename.concat ".." "bench") "main.exe")

type ctx = {
  root : string;
  fingerprint : string;
  scenarios : Farm.Scenario.t list;
}

(* Build the full scenario universe (figures + fuzz corpus + bench smoke)
   and the code fingerprint over the executables that run it. *)
let make_ctx ~root ~expt_exe ~bench_exe ~no_bench ~fuzz_count ~fuzz_seed =
  let expt_exe = Option.value expt_exe ~default:(default_expt_exe ()) in
  let bench_exe = Option.value bench_exe ~default:(default_bench_exe ()) in
  if not (Sys.file_exists expt_exe) then begin
    Format.eprintf "farm: worker executable %s not found (build it, or pass --expt-exe)@."
      expt_exe;
    exit 1
  end;
  if (not no_bench) && not (Sys.file_exists bench_exe) then begin
    Format.eprintf
      "farm: bench executable %s not found (build it, pass --bench-exe, or use --no-bench)@."
      bench_exe;
    exit 1
  end;
  let seeds = List.init fuzz_count (fun i -> fuzz_seed + i) in
  let scenarios =
    Farm.Scenario.figures ~exe:expt_exe ()
    @ Farm.Scenario.fuzz ~exe:expt_exe ~seeds
    @ (if no_bench then [] else Farm.Scenario.bench_smoke ~exe:bench_exe)
  in
  let exes = expt_exe :: (if no_bench then [] else [ bench_exe ]) in
  { root; fingerprint = Farm.Scenario.fingerprint_of_exes exes; scenarios }

let select ~ids ~filter ~changed_only ctx =
  let scenarios = ctx.scenarios in
  let scenarios =
    match ids with
    | [] -> scenarios
    | ids ->
      let known = List.map (fun s -> s.Farm.Scenario.id) scenarios in
      let missing = List.filter (fun id -> not (List.mem id known)) ids in
      if missing <> [] then begin
        Format.eprintf "farm: unknown scenario id(s): %s@." (String.concat ", " missing);
        exit 1
      end;
      List.filter (fun s -> List.mem s.Farm.Scenario.id ids) scenarios
  in
  let scenarios =
    match filter with
    | None -> scenarios
    | Some substr ->
      List.filter
        (fun s ->
          let id = s.Farm.Scenario.id in
          let n, m = (String.length id, String.length substr) in
          let rec has i = i + m <= n && (String.sub id i m = substr || has (i + 1)) in
          has 0)
        scenarios
  in
  if changed_only then
    List.filter_map
      (fun item ->
        if item.Farm.Service.cached then None else Some item.Farm.Service.scenario)
      (Farm.Service.plan ~root:ctx.root ~fingerprint:ctx.fingerprint scenarios)
  else scenarios

(* ------------------------------------------------------------------ *)

let cmd_run ctx ids filter changed_only jobs =
  let scenarios = select ~ids ~filter ~changed_only ctx in
  if scenarios = [] then begin
    Format.printf "farm: nothing selected (all up to date?)@.";
    0
  end
  else begin
    let summary =
      Farm.Service.run ~jobs ~root:ctx.root ~fingerprint:ctx.fingerprint scenarios
    in
    let pct =
      if summary.Farm.Service.total = 0 then 100.0
      else
        100.0 *. float_of_int summary.Farm.Service.hits /. float_of_int summary.Farm.Service.total
    in
    Format.printf "farm: %d scenario(s), %d cache hit(s), %d executed (%.1f%% hits)@."
      summary.Farm.Service.total summary.Farm.Service.hits summary.Farm.Service.executed pct;
    Format.printf "corpus: %s@." summary.Farm.Service.corpus_path;
    if summary.Farm.Service.failures <> [] then begin
      List.iter
        (fun f ->
          Format.eprintf "farm: FAILED %s (exit %d) — log: %s@." f.Farm.Service.id
            f.Farm.Service.exit_code f.Farm.Service.log)
        summary.Farm.Service.failures;
      1
    end
    else 0
  end

let cmd_status ctx =
  let items = Farm.Service.plan ~root:ctx.root ~fingerprint:ctx.fingerprint ctx.scenarios in
  let cached = List.filter (fun i -> i.Farm.Service.cached) items in
  let entries = Farm.Cache.list ctx.root in
  let fingerprints =
    List.sort_uniq String.compare
      (List.filter_map
         (fun e ->
           match Obs.Json.member "fingerprint" e.Farm.Cache.meta with
           | Some (Obs.Json.String f) -> Some f
           | _ -> None)
         entries)
  in
  Format.printf "farm root:        %s@." ctx.root;
  Format.printf "code fingerprint: %s@." ctx.fingerprint;
  Format.printf "scenarios:        %d (%d cached, %d to run)@." (List.length items)
    (List.length cached)
    (List.length items - List.length cached);
  Format.printf "cache entries:    %d across %d fingerprint(s)@." (List.length entries)
    (List.length fingerprints);
  List.iter
    (fun i ->
      if not i.Farm.Service.cached then
        Format.printf "  to run: %-16s %s@." i.Farm.Service.scenario.Farm.Scenario.id
          i.Farm.Service.key)
    items;
  Format.printf "%s@." (Farm.Gate.describe (Farm.Gate.read ~root:ctx.root));
  0

let cmd_gc ctx dry_run =
  let live =
    List.map (fun i -> i.Farm.Service.key)
      (Farm.Service.plan ~root:ctx.root ~fingerprint:ctx.fingerprint ctx.scenarios)
  in
  if dry_run then begin
    let entries = Farm.Cache.list ctx.root in
    let dead = List.filter (fun e -> not (List.mem e.Farm.Cache.key live)) entries in
    Format.printf "farm gc (dry run): would remove %d of %d entries@." (List.length dead)
      (List.length entries);
    List.iter (fun e -> Format.printf "  %s@." e.Farm.Cache.key) dead
  end
  else begin
    let removed = Farm.Cache.gc ctx.root ~live in
    Format.printf "farm gc: removed %d orphaned entr%s, kept %d live@." (List.length removed)
      (if List.length removed = 1 then "y" else "ies")
      (List.length live)
  end;
  0

let cmd_fingerprint ctx =
  print_endline ctx.fingerprint;
  0

let cmd_gate root record detail =
  (match record with
  | None -> ()
  | Some ran -> Farm.Gate.record ~root ~ran ~detail:(Option.value detail ~default:""));
  Format.printf "%s@." (Farm.Gate.describe (Farm.Gate.read ~root));
  0

(* ------------------------------------------------------------------ *)

open Cmdliner

let root_arg =
  let doc = "Farm state directory (cache, corpus, gate status)." in
  Arg.(value & opt string "_farm" & info [ "root" ] ~docv:"DIR" ~doc)

let expt_exe_arg =
  let doc = "Path to acdc_expt.exe (default: next to farm.exe)." in
  Arg.(value & opt (some string) None & info [ "expt-exe" ] ~docv:"EXE" ~doc)

let bench_exe_arg =
  let doc = "Path to bench/main.exe (default: ../bench/main.exe next to farm.exe)." in
  Arg.(value & opt (some string) None & info [ "bench-exe" ] ~docv:"EXE" ~doc)

let no_bench_arg =
  let doc = "Leave the bench smoke scenario out of the scenario set." in
  Arg.(value & flag & info [ "no-bench" ] ~doc)

let fuzz_count_arg =
  let doc = "Number of fuzz scenarios in the corpus." in
  Arg.(value & opt int 25 & info [ "fuzz-count" ] ~docv:"N" ~doc)

let fuzz_seed_arg =
  let doc = "First fuzz seed (scenarios cover [SEED, SEED+N))." in
  Arg.(value & opt int 1 & info [ "fuzz-seed" ] ~docv:"SEED" ~doc)

let ctx_term =
  let make root expt_exe bench_exe no_bench fuzz_count fuzz_seed =
    make_ctx ~root ~expt_exe ~bench_exe ~no_bench ~fuzz_count ~fuzz_seed
  in
  Term.(
    const make $ root_arg $ expt_exe_arg $ bench_exe_arg $ no_bench_arg $ fuzz_count_arg
    $ fuzz_seed_arg)

let jobs_arg =
  let doc = "Worker processes to run cache misses on." in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let ids_arg =
  let doc = "Scenario ids to restrict to ('--all' or nothing selects everything)." in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let all_arg =
  let doc = "Select every scenario (the default when no ids are given)." in
  Arg.(value & flag & info [ "all" ] ~doc)

let filter_arg =
  let doc = "Only scenarios whose id contains $(docv)." in
  Arg.(value & opt (some string) None & info [ "filter" ] ~docv:"SUBSTR" ~doc)

let changed_only_arg =
  let doc =
    "Select only cache misses (incremental re-run after a code change); the merged corpus \
     then covers just the selection."
  in
  Arg.(value & flag & info [ "changed-only" ] ~doc)

let run_cmd =
  let doc = "run scenarios through the cache, in parallel, and merge the corpus" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const (fun ctx ids _all filter changed_only jobs ->
          cmd_run ctx ids filter changed_only jobs)
      $ ctx_term $ ids_arg $ all_arg $ filter_arg $ changed_only_arg $ jobs_arg)

let status_cmd =
  let doc = "show the cache plan and whether the regression gate ran" in
  Cmd.v (Cmd.info "status" ~doc) Term.(const cmd_status $ ctx_term)

let gc_cmd =
  let doc = "remove cache entries no current scenario refers to" in
  let dry =
    Arg.(value & flag & info [ "dry-run" ] ~doc:"List what would be removed, remove nothing.")
  in
  Cmd.v (Cmd.info "gc" ~doc) Term.(const cmd_gc $ ctx_term $ dry)

let fingerprint_cmd =
  let doc = "print the code fingerprint current cache keys are derived from" in
  Cmd.v (Cmd.info "fingerprint" ~doc) Term.(const cmd_fingerprint $ ctx_term)

let gate_cmd =
  let doc = "show or record regression-gate status (used by CI)" in
  let record =
    let status_conv = Arg.enum [ ("ran", Some true); ("skipped", Some false) ] in
    Arg.(
      value & opt status_conv None & info [ "record" ] ~docv:"ran|skipped" ~doc:"Record status.")
  in
  let detail =
    Arg.(
      value
      & opt (some string) None
      & info [ "detail" ] ~docv:"TEXT" ~doc:"Free-form context (baseline run id, reason).")
  in
  Cmd.v (Cmd.info "gate" ~doc) Term.(const cmd_gate $ root_arg $ record $ detail)

let cmd =
  let doc = "content-addressed parallel scenario farm for the AC/DC evaluation suite" in
  Cmd.group (Cmd.info "farm" ~doc)
    [ run_cmd; status_cmd; gc_cmd; fingerprint_cmd; gate_cmd ]

let () = exit (Cmd.eval' cmd)
