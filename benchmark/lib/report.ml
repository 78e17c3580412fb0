(* From repetitions to named metrics: the end-to-end set every run
   reports, and the per-layer set a traced run reports. *)

type metric = { name : string; unit : string; samples : float list }

let value m = match m.samples with [] -> 0.0 | s -> Stats.median s

let end_to_end ~setups (reps : Rep.t list) =
  let of_reps name unit f = { name; unit; samples = List.map f reps } in
  [
    { name = "setup_s"; unit = "s"; samples = setups };
    of_reps "wall_s" "s" Rep.wall_s;
    of_reps "ns_per_packet" "ns/packet" (fun r ->
        Rep.per_packet r (float_of_int r.outcome.run_ns));
    of_reps "words_per_packet" "words/packet" (fun r -> Rep.per_packet r r.outcome.run_words);
    of_reps "peak_rss_mb" "MB" (fun r -> float_of_int r.rss_kb /. 1024.0);
  ]

let layer (r : Rep.t) name =
  List.find (fun (l : Spans.layer_stats) -> l.name = name) r.outcome.layers

(* Layer metrics come from the traced repetitions; whole-run counts and
   rates from the untraced ones, which the spans do not slow down. *)
let per_layer ~(untraced : Rep.t list) ~(traced : Rep.t list) =
  let of_untraced name unit f = { name; unit; samples = List.map f untraced } in
  let layers =
    Array.to_list Spans.names
    |> List.concat_map (fun l ->
           let of_layer suffix unit f =
             { name = l ^ "." ^ suffix; unit; samples = List.map (fun r -> f r (layer r l)) traced }
           in
           [
             of_layer "calls" "count" (fun _ s -> float_of_int s.Spans.calls);
             of_layer "self_frac" "fraction" (fun r s ->
                 float_of_int s.Spans.self_ns /. float_of_int (max 1 r.Rep.outcome.run_ns));
             of_layer "self_ns_p50" "ns" (fun _ s -> float_of_int s.Spans.p50_ns);
             of_layer "self_ns_p99" "ns" (fun _ s -> float_of_int s.Spans.p99_ns);
             of_layer "words_per_call" "words" (fun _ s ->
                 s.Spans.self_words /. float_of_int (max 1 s.Spans.calls));
           ])
  in
  let count f (r : Rep.t) = float_of_int (f r.outcome) in
  layers
  @ [
      of_untraced "eventsim.engine.events_per_s" "1/s" (fun r ->
          float_of_int r.outcome.events /. Rep.run_s r);
      {
        name = "eventsim.engine.pending_max";
        unit = "count";
        samples = List.map (count (fun o -> o.pending_max)) traced;
      };
      of_untraced "gc.minor_collections" "count" (count (fun o -> o.minor_gcs));
      of_untraced "gc.major_collections" "count" (count (fun o -> o.major_gcs));
      of_untraced "gc.promoted_words_per_packet" "words/packet" (fun r ->
          Rep.per_packet r r.outcome.promoted_words);
      of_untraced "obs.trace_events" "count" (count (fun o -> o.observers.trace_events));
      of_untraced "obs.trace_bytes" "bytes" (count (fun o -> o.observers.trace_bytes));
      of_untraced "obs.pcap_frames" "count" (count (fun o -> o.observers.pcap_frames));
      of_untraced "obs.pcap_bytes" "bytes" (count (fun o -> o.observers.pcap_bytes));
      {
        name = "trace.overhead_frac";
        unit = "fraction";
        samples = List.map2 (fun u t -> (Rep.run_s t /. Rep.run_s u) -. 1.0) untraced traced;
      };
    ]

let number f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

(* Printed as the last line of standard output, for tools that read the
   benchmark's result. *)
let result_line ~correct ~attempted ~failed metrics =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number (value m)) m.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))
