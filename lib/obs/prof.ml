include Profcore

(* Leaf keys ending in [_ns] (and the derived [events_per_sec] gauge)
   carry wall-clock noise; [Diff.default_rules] ignores or loosens them so
   the deterministic fields — counts and allocation words — are what the
   regression gate actually bites on. *)
let site_json (s : site_stats) =
  ( s.s_name,
    Json.Obj
      [
        ("count", Json.Int s.s_count);
        ("minor_words", Json.Int (int_of_float s.s_minor_words));
        ("major_words", Json.Int (int_of_float s.s_major_words));
        ("total_ns", Json.Int s.s_total_ns);
        ("max_ns", Json.Int s.s_max_ns);
      ] )

let to_json () =
  Json.Obj
    [
      ("sites", Json.Obj (List.map site_json (snapshot ())));
      ( "gauges",
        Json.Obj
          [
            ("pending_max", Json.Int (pending_max ()));
            ("events_per_sec", Json.Float (events_per_sec ()));
          ] );
    ]

(* Hot-path cost baselines: the per-unit numbers ROADMAP item 1's future
   speedups are measured against.  ns/* are wall-noisy (loose diff rules);
   minor_words_per_packet is deterministic for a seeded run. *)
let baselines () =
  let stats = Array.of_list (snapshot ()) in
  let engine = stats.((Site.eventsim_engine :> int))
  and datapath = stats.((Site.vswitch_datapath :> int)) in
  let per num s =
    if s.s_count > 0 then Some (float_of_int num /. float_of_int s.s_count) else None
  in
  List.filter_map
    (fun (key, v) -> Option.map (fun v -> (key, v)) v)
    [
      ("ns_per_event", per engine.s_total_ns engine);
      ("ns_per_packet", per datapath.s_total_ns datapath);
      ("minor_words_per_packet", per (int_of_float datapath.s_minor_words) datapath);
    ]

let folded_to_string () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (stack, self_ns) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" stack self_ns))
    (folded ());
  Buffer.contents buf

let write_folded ~path =
  let oc = open_out path in
  output_string oc (folded_to_string ());
  close_out oc
