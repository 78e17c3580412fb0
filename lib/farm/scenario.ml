type t = {
  id : string;
  kind : string;
  seed : int;
  config : Obs.Json.t;
  argv : report:string -> dir:string -> string list;
}

let rec canonicalize = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.stable_sort
         (fun (a, _) (b, _) -> String.compare a b)
         (List.map (fun (k, v) -> (k, canonicalize v)) fields))
  | Obs.Json.List items -> Obs.Json.List (List.map canonicalize items)
  | leaf -> leaf

let key ~fingerprint t =
  (* The argv meta.json records, less the executable: the fingerprint
     already covers its contents. *)
  let args =
    match t.argv ~report:"report.json" ~dir:"." with [] -> [] | _exe :: args -> args
  in
  let identity =
    Obs.Json.Obj
      [
        ("id", Obs.Json.String t.id);
        ("kind", Obs.Json.String t.kind);
        ("seed", Obs.Json.Int t.seed);
        ("config", canonicalize t.config);
        ("argv", Obs.Json.List (List.map (fun a -> Obs.Json.String a) args));
      ]
  in
  Digest.to_hex (Digest.string (fingerprint ^ "\n" ^ Obs.Json.to_string identity))

let fingerprint_of_exes exes =
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file exes)))

(* ------------------------------------------------------------------ *)

let figures ~exe () =
  List.map
    (fun e ->
      {
        id = e.Experiments.Registry.id;
        kind = "figure";
        seed = 0;
        config = e.Experiments.Registry.config;
        argv = (fun ~report ~dir:_ -> [ exe; e.Experiments.Registry.id; "--report"; report ]);
      })
    (Experiments.Registry.all ())

let fuzz ~exe ~seeds =
  List.map
    (fun seed ->
      {
        id = Printf.sprintf "fuzz-%04d" seed;
        kind = "fuzz";
        seed;
        config = Obs.Json.Obj [ ("count", Obs.Json.Int 1) ];
        argv =
          (fun ~report ~dir:_ ->
            [ exe; "--fuzz"; "1"; "--seed"; string_of_int seed; "--report"; report ]);
      })
    seeds

let bench_smoke ~exe =
  [
    {
      id = "bench-smoke";
      kind = "bench";
      seed = 0;
      config = Obs.Json.Obj [ ("scenario", Obs.Json.String "smoke") ];
      argv =
        (fun ~report ~dir ->
          [
            exe;
            "smoke";
            "--report";
            report;
            (* Profile every cached smoke run: the report grows a profile
               section (ns/packet baselines) and the folded stacks become
               a cached artifact next to it. *)
            "--profile=" ^ Filename.concat dir "profile.folded";
            (* Trace + capture cover the INT- and attribution-enabled
               simulation portion (closed before the cpu microbench), so
               CI can run `trace_query validate` against the farm's own
               cached smoke artifacts; pcapng keeps one interface per
               tap, which the per-port frame check needs. *)
            "--trace";
            Filename.concat dir "trace.jsonl";
            "--pcap";
            Filename.concat dir "smoke.pcapng";
          ]);
    };
  ]
