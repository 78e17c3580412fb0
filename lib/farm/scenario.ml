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

let fingerprint_of_exe exe = Digest.to_hex (Digest.file exe)

(* ------------------------------------------------------------------ *)

(* The smoke run profiles itself and leaves its trace and pcapng capture
   (one interface per tap, which the per-port frame check needs) next to
   its report, so CI can run `trace_query validate` against the farm's own
   cached artifacts. *)
let artifacts ~dir = function
  | "smoke" ->
    [
      "--profile=" ^ Filename.concat dir "profile.folded";
      "--trace";
      Filename.concat dir "trace.jsonl";
      "--pcap";
      Filename.concat dir "smoke.pcapng";
    ]
  | _ -> []

let figures ~exe () =
  List.map
    (fun e ->
      let id = e.Experiments.Registry.id in
      {
        id;
        kind = "figure";
        seed = 0;
        config = e.Experiments.Registry.config;
        argv = (fun ~report ~dir -> exe :: id :: "--report" :: report :: artifacts ~dir id);
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
