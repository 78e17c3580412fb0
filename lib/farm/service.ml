type plan_item = { scenario : Scenario.t; key : string; cached : bool }
type failure = { id : string; exit_code : int; log : string }

type summary = {
  total : int;
  hits : int;
  executed : int;
  failures : failure list;
  corpus_path : string;
}

let corpus_path root = Filename.concat root "corpus.json"
let tmp_dir root = Filename.concat root "tmp"

let plan ~root ~fingerprint scenarios =
  List.map
    (fun s ->
      let key = Scenario.key ~fingerprint s in
      { scenario = s; key; cached = Cache.find root ~key <> None })
    scenarios

(* ------------------------------------------------------------------ *)
(* Corpus merge                                                        *)

let meta_of ~fingerprint ~wall_s ~argv item =
  let s = item.scenario in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "acdc-farm-meta/1");
      ("id", Obs.Json.String s.Scenario.id);
      ("kind", Obs.Json.String s.Scenario.kind);
      ("seed", Obs.Json.Int s.Scenario.seed);
      ("key", Obs.Json.String item.key);
      ("fingerprint", Obs.Json.String fingerprint);
      ("config", Scenario.canonicalize s.Scenario.config);
      ("wall_s", Obs.Json.Float wall_s);
      ("argv", Obs.Json.List (List.map (fun a -> Obs.Json.String a) argv));
    ]

let corpus_entries ~root ~fingerprint scenarios =
  List.filter_map
    (fun item ->
      if not item.cached then None
      else
        match Obs.Report.read_file ~path:(Cache.report_path root item.key) with
        | Error _ -> None
        | Ok report ->
          let s = item.scenario in
          (* Only deterministic fields: wall-clock provenance lives in
             meta.json, never in the merged corpus. *)
          Some
            ( s.Scenario.id,
              Obs.Json.Obj
                [
                  ("kind", Obs.Json.String s.Scenario.kind);
                  ("seed", Obs.Json.Int s.Scenario.seed);
                  ("key", Obs.Json.String item.key);
                  ("config", Scenario.canonicalize s.Scenario.config);
                  ("report", report);
                ] ))
    (plan ~root ~fingerprint scenarios)

let write_corpus ~root ~fingerprint scenarios =
  let entries = corpus_entries ~root ~fingerprint scenarios in
  let corpus =
    Obs.Report.merge_corpus
      ~extra:[ ("fingerprint", Obs.Json.String fingerprint) ]
      entries
  in
  Cache.mkdir_p root;
  let path = corpus_path root in
  let oc = open_out path in
  Obs.Json.to_channel oc corpus;
  close_out oc;
  path

(* ------------------------------------------------------------------ *)

let run ?(jobs = 1) ~root ~fingerprint scenarios =
  Cache.mkdir_p root;
  let items = plan ~root ~fingerprint scenarios in
  let misses = List.filter (fun item -> not item.cached) items in
  let tmp = tmp_dir root in
  let queue =
    List.map
      (fun item ->
        let dir = Filename.concat tmp item.key in
        Cache.rm_rf dir;
        Cache.mkdir_p dir;
        {
          Runner.scenario = item.scenario;
          key = item.key;
          dir;
          report = Filename.concat dir "report.json";
          log = Filename.concat dir "log.txt";
        })
      misses
  in
  let results = Runner.run ~jobs queue in
  let failures =
    List.filter_map
      (fun r ->
        let job = r.Runner.job in
        let item = { scenario = job.Runner.scenario; key = job.Runner.key; cached = false } in
        if r.Runner.exit_code = 0 && Sys.file_exists job.Runner.report then begin
          let meta =
            meta_of ~fingerprint ~wall_s:r.Runner.wall_s
              ~argv:(job.Runner.scenario.Scenario.argv ~report:"report.json" ~dir:".")
              item
          in
          let oc = open_out (Filename.concat job.Runner.dir "meta.json") in
          Obs.Json.to_channel oc meta;
          close_out oc;
          Cache.store root ~key:job.Runner.key ~src:job.Runner.dir;
          None
        end
        else
          Some
            {
              id = job.Runner.scenario.Scenario.id;
              exit_code = r.Runner.exit_code;
              log = job.Runner.log;
            })
      results
  in
  let corpus_path = write_corpus ~root ~fingerprint scenarios in
  (* Drop the scratch area once nothing in it is needed for debugging. *)
  if failures = [] && Sys.file_exists tmp then Cache.rm_rf tmp;
  {
    total = List.length items;
    hits = List.length items - List.length misses;
    executed = List.length misses;
    failures;
    corpus_path;
  }
