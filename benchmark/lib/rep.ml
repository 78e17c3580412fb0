(* One repetition's measurements, as a child process reports them to the
   parent run: a single JSON line on its standard output. *)

module Json = Obs.Json

type t = {
  setup_ns : int;  (** child exec to the first [Engine.run] *)
  outcome : Sim.outcome;
  rss_kb : int;  (** peak resident set ([VmHWM]) *)
}

let setup_s t = float_of_int t.setup_ns /. 1e9
let run_s t = float_of_int t.outcome.run_ns /. 1e9
let wall_s t = setup_s t +. run_s t
let per_packet t v = v /. float_of_int (max 1 t.outcome.switch_inputs)

let layer_to_json (l : Spans.layer_stats) =
  Json.Obj
    [
      ("name", Json.String l.name);
      ("calls", Json.Int l.calls);
      ("self_ns", Json.Int l.self_ns);
      ("self_words", Json.Float l.self_words);
      ("p50_ns", Json.Int l.p50_ns);
      ("p99_ns", Json.Int l.p99_ns);
    ]

let to_json t =
  let o = t.outcome in
  Json.Obj
    [
      ("digest", Json.String o.digest);
      ("violations", Json.List (List.map (fun v -> Json.String v) o.violations));
      ("setup_ns", Json.Int t.setup_ns);
      ("run_ns", Json.Int o.run_ns);
      ("run_words", Json.Float o.run_words);
      ("promoted_words", Json.Float o.promoted_words);
      ("minor_gcs", Json.Int o.minor_gcs);
      ("major_gcs", Json.Int o.major_gcs);
      ("switch_inputs", Json.Int o.switch_inputs);
      ("events", Json.Int o.events);
      ("trace_events", Json.Int o.observers.trace_events);
      ("trace_bytes", Json.Int o.observers.trace_bytes);
      ("pcap_frames", Json.Int o.observers.pcap_frames);
      ("pcap_bytes", Json.Int o.observers.pcap_bytes);
      ("pending_max", Json.Int o.pending_max);
      ("rss_kb", Json.Int t.rss_kb);
      ("layers", Json.List (List.map layer_to_json o.layers));
    ]

let field json key =
  match Json.member key json with Some v -> v | None -> failwith ("missing field " ^ key)

let int json key =
  match field json key with Json.Int i -> i | _ -> failwith ("not an integer: " ^ key)

let float json key =
  match field json key with
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> failwith ("not a number: " ^ key)

let string json key =
  match field json key with Json.String s -> s | _ -> failwith ("not a string: " ^ key)

let list json key =
  match field json key with Json.List l -> l | _ -> failwith ("not a list: " ^ key)

let layer_of_json j =
  {
    Spans.name = string j "name";
    calls = int j "calls";
    self_ns = int j "self_ns";
    self_words = float j "self_words";
    p50_ns = int j "p50_ns";
    p99_ns = int j "p99_ns";
  }

let of_json j =
  {
    setup_ns = int j "setup_ns";
    rss_kb = int j "rss_kb";
    outcome =
      {
        Sim.digest = string j "digest";
        violations = List.map (function Json.String s -> s | _ -> "?") (list j "violations");
        run_start_ns = 0;
        run_ns = int j "run_ns";
        run_words = float j "run_words";
        promoted_words = float j "promoted_words";
        minor_gcs = int j "minor_gcs";
        major_gcs = int j "major_gcs";
        switch_inputs = int j "switch_inputs";
        events = int j "events";
        observers =
          {
            Sim.trace_events = int j "trace_events";
            trace_bytes = int j "trace_bytes";
            pcap_frames = int j "pcap_frames";
            pcap_bytes = int j "pcap_bytes";
          };
        layers = List.map layer_of_json (list j "layers");
        pending_max = int j "pending_max";
      };
  }
