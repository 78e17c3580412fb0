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

let canonical_string t =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("id", Obs.Json.String t.id);
         ("kind", Obs.Json.String t.kind);
         ("seed", Obs.Json.Int t.seed);
         ("config", canonicalize t.config);
       ])

let key ~fingerprint t =
  Digest.to_hex (Digest.string (fingerprint ^ "\n" ^ canonical_string t))

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
               section (dashboard panel, ns/packet baselines) and the
               folded stacks become a cached artifact next to it. *)
            "--profile=" ^ Filename.concat dir "profile.folded";
            (* Trace + pcap cover the INT- and attribution-enabled
               simulation portion (closed before the cpu microbench), so
               CI can run `trace_query validate` against the farm's own
               cached smoke artifacts. *)
            "--trace";
            Filename.concat dir "trace.jsonl";
            "--pcap";
            Filename.concat dir "smoke.pcap";
          ]);
    };
  ]
