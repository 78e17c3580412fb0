module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Json = Obs.Json

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_counter_semantics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "pkts" in
  check_int "fresh counter" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.add c 41;
  check_int "incr + add" 42 (Metrics.value c)

let test_gauge_semantics () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "depth" in
  Metrics.set g 7;
  Metrics.set_max g 3;
  check_int "set_max keeps high water" 7 (Metrics.gauge_value g);
  Metrics.set_max g 11;
  check_int "set_max raises" 11 (Metrics.gauge_value g);
  Metrics.set g 2;
  check_int "set overrides" 2 (Metrics.gauge_value g)

let test_merge_and_scopes () =
  let reg = Metrics.create () in
  let s1 = Metrics.sub (Metrics.scope reg "switch") "left"
  and s2 = Metrics.sub (Metrics.scope reg "switch") "right" in
  let d1 = Metrics.scope_counter s1 "drops" and d2 = Metrics.scope_counter s2 "drops" in
  (* Same name twice: private handles stay exact, snapshots sum. *)
  let d1' = Metrics.scope_counter s1 "drops" in
  Metrics.add d1 3;
  Metrics.add d1' 4;
  Metrics.add d2 5;
  check_int "private handle" 3 (Metrics.value d1);
  Alcotest.(check (option int)) "merged sum" (Some 7) (Metrics.find reg "switch.left.drops");
  Alcotest.(check (list (pair string int)))
    "sorted snapshot"
    [ ("switch.left.drops", 7); ("switch.right.drops", 5) ]
    (Metrics.counters reg);
  let q1 = Metrics.scope_gauge s1 "qmax" and q2 = Metrics.scope_gauge s2 "qmax" in
  Metrics.set_max q1 10;
  Metrics.set_max q2 30;
  let q1'' = Metrics.scope_gauge s1 "qmax" in
  Metrics.set_max q1'' 20;
  Alcotest.(check (option int)) "gauges merge by max" (Some 30) (Metrics.find reg "switch.right.qmax");
  Metrics.reset_all reg;
  check_int "reset_all" 0 (Metrics.value d2);
  check_int "reset_all gauge" 0 (Metrics.gauge_value q1);
  (* The reset also drops the instruments: a handle still counts, but the
     registry no longer lists it. *)
  Alcotest.(check (list (pair string int))) "reset_all empties the snapshot" [] (Metrics.counters reg);
  Metrics.incr d1;
  check_int "a dropped handle still counts" 1 (Metrics.value d1);
  Alcotest.(check (option int)) "but is not listed" None (Metrics.find reg "switch.left.drops")

let test_metrics_json () =
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter reg "b") 2;
  Metrics.add (Metrics.counter reg "a") 1;
  Metrics.set (Metrics.gauge reg "g") 9;
  check_string "deterministic dump" {|{"counters":{"a":1,"b":2},"gauges":{"g":9}}|}
    (Json.to_string (Metrics.to_json reg))

(* ------------------------------------------------------------------ *)
(* Trace sinks                                                         *)

let test_null () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  Trace.emit Trace.null ~now:Time_ns.zero
    (Trace.Delivered { node = "h"; pkt = 1 }) (* must be a no-op *)

(* ------------------------------------------------------------------ *)
(* Determinism: the same seeded simulation twice produces byte-identical
   JSONL traces (virtual timestamps, no wall-clock anywhere).           *)

let trace_of_run () =
  Dcpkt.Packet.reset_ids ();
  let buf = Buffer.create 4096 in
  let tracer = Trace.jsonl ~write:(fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') in
  Obs.Runtime.set_tracer tracer;
  let params = Fabric.Params.with_ecn Fabric.Params.default in
  let engine = Engine.create () in
  let net =
    Fabric.Topology.dumbbell engine ~params
      ~acdc:(Fabric.Topology.acdc_everywhere params)
      ~pairs:2 ()
  in
  let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
  let conns =
    List.init 2 (fun i ->
        let c =
          Fabric.Conn.establish
            ~src:(Fabric.Topology.host net i)
            ~dst:(Fabric.Topology.host net (2 + i))
            ~config ()
        in
        Fabric.Conn.send_forever c;
        c)
  in
  ignore conns;
  Engine.run ~until:(Time_ns.ms 5) engine;
  Fabric.Topology.shutdown net;
  Obs.Runtime.set_tracer Trace.null;
  Buffer.contents buf

let test_jsonl_determinism () =
  let a = trace_of_run () and b = trace_of_run () in
  Alcotest.(check bool) "trace non-empty" true (String.length a > 0);
  check_int "same length" (String.length a) (String.length b);
  check_string "byte-identical" (Digest.to_hex (Digest.string a))
    (Digest.to_hex (Digest.string b))

(* ------------------------------------------------------------------ *)
(* Trace events: JSONL round-trip and filters                          *)

let flow = Dcpkt.Flow_key.make ~src_ip:1 ~dst_ip:6 ~src_port:40000 ~dst_port:5001

(* One value per constructor, plus one per [drop_reason], one per
   [impair_action] and one whose string needs escaping — extend this list
   when the event type grows. *)
let all_events =
  let drop reason = Trace.Drop { node = "tor0"; port = 2; pkt = 1; size = 1500; reason } in
  let imp action = Trace.Impaired { link = "impair.host0.up"; pkt = 1; action } in
  [
    Trace.Created { node = "host1"; pkt = 1; flow; size = 1500; kind = "data" };
    Trace.Enqueue { node = "tor0"; port = 2; pkt = 1; size = 1500; qbytes = 3000 };
    Trace.Dequeue { node = "tor0"; port = 2; pkt = 1; size = 1500; qbytes = 1500 };
    drop Trace.No_route;
    drop Trace.Buffer_full;
    drop Trace.Over_threshold;
    drop Trace.Wred;
    Trace.Drop { node = "host6"; port = -1; pkt = 1; size = 1500; reason = Trace.No_endpoint };
    Trace.Ce_mark { node = "tor0"; port = 2; pkt = 1; qbytes = 90000 };
    imp Trace.Imp_lost;
    imp Trace.Imp_corrupted;
    imp (Trace.Imp_duplicated { copy = 42 });
    imp Trace.Imp_pack_stripped;
    imp Trace.Imp_reordered;
    Trace.Vswitch_drop { node = "host1"; pkt = 1; egress = true };
    Trace.Vswitch_drop { node = "host1"; pkt = 1; egress = false };
    Trace.Delivered { node = "host6"; pkt = 1 };
    Trace.Delivered { node = "vm \"6\"\t\xc3\xa9"; pkt = 2 };
    Trace.Pack_attach { flow; pkt = 9; total = 123456; marked = 789 };
    Trace.Rwnd_rewrite { flow; pkt = 9; window = 65536; field = 0x100 };
    Trace.Alpha_update { flow; alpha = 0.0625; fraction = 0.5 };
    Trace.Policer_drop { flow; pkt = 9; seq = 1000; window = 20000 };
    Trace.Dupack { flow; ack = 1000; count = 3 };
    Trace.Rto_fire { flow; inferred = true; count = 2 };
    Trace.Rto_fire { flow; inferred = false; count = 1 };
    Trace.Int_hop
      {
        flow;
        pkt = 9;
        depth = 1;
        hop = "spine0";
        port = 3;
        ingress = 1_000_000;
        egress = 1_012_500;
        qbytes = 24_000;
        svc_bps = 10_000_000_000;
      };
    Trace.Int_strip { node = "host6"; flow; pkt = 9; hops = 2; exceeded = true };
    Trace.Int_strip { node = "host6"; flow; pkt = 10; hops = 3; exceeded = false };
    Trace.Attrib_transition
      { flow; from_state = "handshake"; to_state = "cwnd_limited"; spent = 4500 };
    Trace.Attrib_transition
      { flow; from_state = "in_flight"; to_state = "complete"; spent = 250000 };
  ]

(* The lines a [jsonl] sink writes for [all_events], the i-th stamped at
   (i + 1) us. *)
let jsonl_lines events =
  let lines = ref [] in
  let sink = Trace.jsonl ~write:(fun line -> lines := line :: !lines) in
  List.iteri (fun i ev -> Trace.emit sink ~now:(Time_ns.us (i + 1)) ev) events;
  List.rev !lines

let test_event_json_roundtrip () =
  List.iteri
    (fun i (ev, line) ->
      let now = Time_ns.us (i + 1) in
      match Json.of_string line with
      | Error msg -> Alcotest.fail (line ^ ": " ^ msg)
      | Ok json -> (
        match Trace.event_of_json json with
        | Error msg -> Alcotest.fail (line ^ ": " ^ msg)
        | Ok (now', ev') ->
          check_int (Trace.kind_of_event ev ^ ": timestamp") now now';
          Alcotest.(check bool) (Trace.kind_of_event ev ^ ": event") true (ev = ev')))
    (List.combine all_events (jsonl_lines all_events))

(* The encoding pinned byte for byte, one line per [all_events] entry. *)
let golden_lines =
  [
    {|{"t":1000,"ev":"created","node":"host1","pkt":1,"flow":"1:40000>6:5001","size":1500,"kind":"data"}|};
    {|{"t":2000,"ev":"enqueue","node":"tor0","port":2,"pkt":1,"size":1500,"qbytes":3000}|};
    {|{"t":3000,"ev":"dequeue","node":"tor0","port":2,"pkt":1,"size":1500,"qbytes":1500}|};
    {|{"t":4000,"ev":"drop","node":"tor0","port":2,"pkt":1,"size":1500,"reason":"no_route"}|};
    {|{"t":5000,"ev":"drop","node":"tor0","port":2,"pkt":1,"size":1500,"reason":"buffer_full"}|};
    {|{"t":6000,"ev":"drop","node":"tor0","port":2,"pkt":1,"size":1500,"reason":"over_threshold"}|};
    {|{"t":7000,"ev":"drop","node":"tor0","port":2,"pkt":1,"size":1500,"reason":"wred"}|};
    {|{"t":8000,"ev":"drop","node":"host6","port":-1,"pkt":1,"size":1500,"reason":"no_endpoint"}|};
    {|{"t":9000,"ev":"ce_mark","node":"tor0","port":2,"pkt":1,"qbytes":90000}|};
    {|{"t":10000,"ev":"impaired","link":"impair.host0.up","pkt":1,"action":"lost"}|};
    {|{"t":11000,"ev":"impaired","link":"impair.host0.up","pkt":1,"action":"corrupted"}|};
    {|{"t":12000,"ev":"impaired","link":"impair.host0.up","pkt":1,"action":"duplicated","copy":42}|};
    {|{"t":13000,"ev":"impaired","link":"impair.host0.up","pkt":1,"action":"pack_stripped"}|};
    {|{"t":14000,"ev":"impaired","link":"impair.host0.up","pkt":1,"action":"reordered"}|};
    {|{"t":15000,"ev":"vswitch_drop","node":"host1","pkt":1,"dir":"egress"}|};
    {|{"t":16000,"ev":"vswitch_drop","node":"host1","pkt":1,"dir":"ingress"}|};
    {|{"t":17000,"ev":"delivered","node":"host6","pkt":1}|};
    "{\"t\":18000,\"ev\":\"delivered\",\"node\":\"vm \\\"6\\\"\\t\xc3\xa9\",\"pkt\":2}";
    {|{"t":19000,"ev":"pack_attach","flow":"1:40000>6:5001","pkt":9,"total":123456,"marked":789}|};
    {|{"t":20000,"ev":"rwnd_rewrite","flow":"1:40000>6:5001","pkt":9,"window":65536,"field":256}|};
    {|{"t":21000,"ev":"alpha_update","flow":"1:40000>6:5001","alpha":0.0625,"fraction":0.5}|};
    {|{"t":22000,"ev":"policer_drop","flow":"1:40000>6:5001","pkt":9,"seq":1000,"window":20000}|};
    {|{"t":23000,"ev":"dupack","flow":"1:40000>6:5001","ack":1000,"count":3}|};
    {|{"t":24000,"ev":"rto","flow":"1:40000>6:5001","inferred":true,"count":2}|};
    {|{"t":25000,"ev":"rto","flow":"1:40000>6:5001","inferred":false,"count":1}|};
    {|{"t":26000,"ev":"int_hop","flow":"1:40000>6:5001","pkt":9,"depth":1,"hop":"spine0","port":3,"ingress":1000000,"egress":1012500,"qbytes":24000,"svc_bps":10000000000}|};
    {|{"t":27000,"ev":"int_strip","node":"host6","flow":"1:40000>6:5001","pkt":9,"hops":2,"exceeded":true}|};
    {|{"t":28000,"ev":"int_strip","node":"host6","flow":"1:40000>6:5001","pkt":10,"hops":3,"exceeded":false}|};
    {|{"t":29000,"ev":"attrib","flow":"1:40000>6:5001","from":"handshake","to":"cwnd_limited","spent":4500}|};
    {|{"t":30000,"ev":"attrib","flow":"1:40000>6:5001","from":"in_flight","to":"complete","spent":250000}|};
  ]

let test_event_json_golden () =
  Alcotest.(check (list string)) "jsonl lines" golden_lines (jsonl_lines all_events)

let test_event_json_rejects () =
  List.iter
    (fun s ->
      let r = Result.bind (Json.of_string s) Trace.event_of_json in
      Alcotest.(check bool) (s ^ " rejected") true (Result.is_error r))
    [
      {|{"t":1}|} (* no "ev" *);
      {|{"t":1,"ev":"warp"}|} (* unknown kind *);
      {|{"ev":"delivered","node":"h"}|} (* no timestamp *);
      {|{"t":1,"ev":"drop","node":"s","port":0,"pkt":1,"size":9,"reason":"gremlins"}|};
      {|[1,2]|} (* not an object *);
    ]

(* The reader [trace_query] uses, on a file of the given lines; the
   file's path comes back too. *)
let read_lines lines =
  let path = Filename.temp_file "trace" ".jsonl" in
  Out_channel.with_open_bin path (fun oc -> List.iter (Printf.fprintf oc "%s\n") lines);
  let read = Trace.fold_file path ~init:[] (fun acc now ev -> (now, ev) :: acc) in
  Sys.remove path;
  (path, Result.map List.rev read)

(* [events] emitted through [wrap] into a JSONL sink, the i-th at
   (i + 1) us, and read back. *)
let through wrap events =
  let lines = ref [] in
  let sink = wrap (Trace.jsonl ~write:(fun line -> lines := line :: !lines)) in
  List.iteri (fun i ev -> Trace.emit sink ~now:(Time_ns.us (i + 1)) ev) events;
  match read_lines (List.rev !lines) with _, Ok evs -> evs | _, Error msg -> Alcotest.fail msg

let test_reader_roundtrip () =
  Alcotest.(check bool)
    "every constructor comes back, in order, with its timestamp" true
    (through Fun.id all_events = List.mapi (fun i ev -> (Time_ns.us (i + 1), ev)) all_events)

let test_reader_blank_lines () =
  let a, b = match golden_lines with a :: b :: _ -> (a, b) | _ -> assert false in
  let _, read = read_lines [ ""; a; "   "; ""; b; "\t" ] in
  Alcotest.(check (list string))
    "blank lines skipped" [ "created"; "enqueue" ]
    (List.map (fun (_, ev) -> Trace.kind_of_event ev) (Result.get_ok read))

let test_reader_names_bad_line () =
  let a = List.hd golden_lines in
  List.iter
    (fun (lines, lineno) ->
      let path, read = read_lines lines in
      match read with
      | Ok _ -> Alcotest.fail "malformed trace accepted"
      | Error msg ->
        let prefix = Printf.sprintf "%s:%d: " path lineno in
        Alcotest.(check string)
          "error starts with FILE:LINE" prefix
          (String.sub msg 0 (Stdlib.min (String.length msg) (String.length prefix))))
    [
      ([ a; ""; a; {|{"t":1,"ev":"warp"}|}; a ], 4) (* unknown kind; blank lines count *);
      ([ "{oops" ], 1) (* not JSON *);
      ([ a; a; {|{"t":1,"ev":"delivered"}|} ], 3) (* missing field *);
    ];
  Alcotest.(check bool) "missing file is an error" true
    (Result.is_error (Trace.fold_file "/nonexistent/t.jsonl" ~init:() (fun () _ _ -> ())))

let kinds_seen events = List.map (fun (_, ev) -> Trace.kind_of_event ev) events

let spec s = match Trace.filter_of_spec s with Ok wrap -> wrap | Error msg -> Alcotest.fail msg

let test_kind_filter () =
  Alcotest.(check bool) "filter over null collapses" false
    (Trace.enabled (spec "kind=drop" Trace.null));
  Alcotest.(check (list string))
    "only requested kinds pass"
    [ "drop"; "drop"; "drop"; "drop"; "drop"; "ce_mark" ]
    (kinds_seen (through (spec "kind=drop|ce_mark") all_events))

let test_flow_filter () =
  let other = Dcpkt.Flow_key.make ~src_ip:2 ~dst_ip:7 ~src_port:41000 ~dst_port:5001 in
  let created ~pkt ~flow = Trace.Created { node = "h"; pkt; flow; size = 100; kind = "data" } in
  let seen =
    through (spec "flow=1:40000-6:5001")
      [
        created ~pkt:1 ~flow;
        created ~pkt:2 ~flow:other;
        (* Events that carry only a packet id must resolve through the
           state learned from Created. *)
        Trace.Enqueue { node = "s"; port = 0; pkt = 1; size = 100; qbytes = 100 };
        Trace.Enqueue { node = "s"; port = 0; pkt = 2; size = 100; qbytes = 100 };
        (* Duplicates inherit membership from the packet they copy. *)
        Trace.Impaired { link = "l"; pkt = 1; action = Trace.Imp_duplicated { copy = 50 } };
        Trace.Delivered { node = "h"; pkt = 50 };
        Trace.Delivered { node = "h"; pkt = 2 };
        (* The reverse direction belongs to the same flow. *)
        created ~pkt:3 ~flow:(Dcpkt.Flow_key.reverse flow);
        Trace.Dupack { flow = other; ack = 1; count = 1 };
        Trace.Dupack { flow = Dcpkt.Flow_key.reverse flow; ack = 1; count = 1 };
      ]
  in
  Alcotest.(check (list string))
    "matching flow only, through ids, copies and both directions"
    [ "created"; "enqueue"; "impaired"; "delivered"; "created"; "dupack" ]
    (kinds_seen seen)

let test_flow_of_spec () =
  let ok s =
    match Trace.flow_of_spec s with
    | Ok k -> k
    | Error msg -> Alcotest.fail (s ^ ": " ^ msg)
  in
  Alcotest.(check bool) "dash form" true (Dcpkt.Flow_key.equal flow (ok "1:40000-6:5001"));
  Alcotest.(check bool) "arrow form" true (Dcpkt.Flow_key.equal flow (ok "1:40000>6:5001"));
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true (Result.is_error (Trace.flow_of_spec s)))
    [ ""; "1:40000"; "1:40000-6"; "a:b-c:d"; "1:40000-6:5001-7:1" ]

let test_filter_of_spec () =
  let other = Dcpkt.Flow_key.make ~src_ip:9 ~dst_ip:9 ~src_port:1 ~dst_port:2 in
  let seen =
    through
      (spec "flow=1:40000-6:5001,kind=drop|delivered")
      [
        (* The flow clause must learn packet membership even though
           'created' is not a requested kind. *)
        Trace.Created { node = "h"; pkt = 1; flow; size = 100; kind = "data" };
        Trace.Created { node = "h"; pkt = 2; flow = other; size = 100; kind = "data" };
        Trace.Drop { node = "s"; port = 0; pkt = 1; size = 100; reason = Trace.No_route };
        Trace.Drop { node = "s"; port = 0; pkt = 2; size = 100; reason = Trace.No_route };
        Trace.Delivered { node = "h"; pkt = 1 };
        Trace.Enqueue { node = "s"; port = 0; pkt = 1; size = 100; qbytes = 100 };
      ]
  in
  Alcotest.(check (list string))
    "flow and kind clauses intersect" [ "drop"; "delivered" ] (kinds_seen seen);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s ^ " rejected")
        true
        (Result.is_error (Trace.filter_of_spec s)))
    [ "bogus=1"; "flow=nope"; "kind="; "flow=" ]

(* [event_kinds] is the kind filter's vocabulary: every tag an event can
   carry is listed and accepted, and a misspelled one is an error that
   names it. *)
let test_kind_filter_vocabulary () =
  List.iter
    (fun ev ->
      let kind = Trace.kind_of_event ev in
      Alcotest.(check bool) (kind ^ " listed") true (List.mem kind Trace.event_kinds);
      Alcotest.(check bool)
        (kind ^ " accepted") true
        (Result.is_ok (Trace.filter_of_spec ("kind=" ^ kind))))
    all_events;
  (* [all_events] has every constructor, so the list holds nothing else. *)
  Alcotest.(check (list string))
    "one entry per constructor"
    (List.sort_uniq String.compare (List.map Trace.kind_of_event all_events))
    (List.sort String.compare Trace.event_kinds);
  List.iter
    (fun (spec, bad) ->
      match Trace.filter_of_spec spec with
      | Ok _ -> Alcotest.fail (spec ^ " accepted")
      | Error msg ->
        let quoted = Printf.sprintf "%S" bad in
        let rec names i =
          i + String.length quoted <= String.length msg
          && (String.sub msg i (String.length quoted) = quoted || names (i + 1))
        in
        Alcotest.(check bool) (spec ^ ": error names " ^ quoted) true (names 0))
    [ ("kind=enqeue", "enqeue"); ("kind=rto|impaird", "impaird"); ("flow=1:2-3:4,kind=nosuch", "nosuch") ]

(* ------------------------------------------------------------------ *)
(* JSON emitter corner cases                                           *)

let test_json_escaping () =
  check_string "escapes" {|{"k":"a\"b\\c\n\u0001"}|}
    (Json.to_string (Json.Obj [ ("k", Json.String "a\"b\\c\n\x01") ]));
  check_string "non-finite floats are null" {|[null,null,1.5]|}
    (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity; Json.Float 1.5 ]));
  (* Valid UTF-8 passes through untouched; every C0 control gets escaped. *)
  check_string "multibyte UTF-8 passes through"
    "\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\""
    (Json.to_string (Json.String "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80"));
  check_string "all C0 controls escaped" {|"\u0000\u0008\t\u001f"|}
    (Json.to_string (Json.String "\x00\x08\x09\x1f"));
  (* Invalid bytes (lone high bytes, truncated or overlong sequences)
     become U+FFFD instead of corrupting the output document. *)
  check_string "invalid byte replaced" "\"a\xef\xbf\xbdb\""
    (Json.to_string (Json.String "a\xffb"));
  check_string "truncated sequence replaced" "\"\xef\xbf\xbd\""
    (Json.to_string (Json.String "\xc3"));
  check_string "overlong encoding replaced" "\"\xef\xbf\xbd\xef\xbf\xbd\""
    (Json.to_string (Json.String "\xc0\xaf"));
  check_string "surrogate codepoint replaced" "\"\xef\xbf\xbd\xef\xbf\xbd\xef\xbf\xbd\""
    (Json.to_string (Json.String "\xed\xa0\x80"))

let parse_ok s =
  match Json.of_string s with Ok j -> j | Error msg -> Alcotest.fail (s ^ ": " ^ msg)

let test_json_parser () =
  (* print . parse is the identity on printed documents. *)
  let docs =
    [
      {|{"a":1,"b":[true,false,null,"x"],"c":{"nested":-2.5}}|};
      {|[]|};
      {|{}|};
      {|"café"|};
      {|-0.125|};
      {|[1e3,0.001,12345678901234]|};
    ]
  in
  List.iter
    (fun s ->
      let reprinted = Json.to_string (parse_ok s) in
      check_string "round-trip is stable" reprinted (Json.to_string (parse_ok reprinted)))
    docs;
  (* Escape decoding, including a surrogate pair (U+1F600). *)
  (match parse_ok {|"\u0041\u00e9\ud83d\ude00\n"|} with
  | Json.String s -> check_string "unicode escapes decode" "A\xc3\xa9\xf0\x9f\x98\x80\n" s
  | _ -> Alcotest.fail "expected a string");
  (* Escaping then parsing recovers the original valid-UTF-8 string,
     control characters included. *)
  let original = "mixed: caf\xc3\xa9 \xf0\x9f\x98\x80 \x00\x01\x1f \"quoted\\\"" in
  (match parse_ok (Json.to_string (Json.String original)) with
  | Json.String s -> check_string "escape/parse round-trip" original s
  | _ -> Alcotest.fail "expected a string");
  (match parse_ok {|{"k":  [1, 2 ,3]  }|} with
  | Json.Obj [ ("k", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]) ] -> ()
  | _ -> Alcotest.fail "whitespace handling");
  check_string "member finds fields" "v"
    (match Json.member "key" (parse_ok {|{"other":1,"key":"v"}|}) with
    | Some (Json.String s) -> s
    | _ -> "MISSING");
  (* Strictness: these must all be rejected. *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (Result.is_error (Json.of_string s)))
    [
      "";
      "{";
      "[1,]";
      {|{"a":1,}|};
      {|{"a" 1}|};
      "1 2";
      "+1";
      "1.";
      "nul";
      {|"unterminated|};
      "\"ctrl\x01\"";
      {|"\q"|};
      {|"\ud83d"|};
      {|"\udc00x"|};
    ]

let test_json_deep_nesting () =
  (* Escapes survive arbitrary nesting depth: a string full of
     must-escape material wrapped in 64 levels of alternating
     object/array structure parses back to the exact original. *)
  let nasty = "q\"uo\\te\n\t\x00\x1f caf\xc3\xa9 \xf0\x9f\x98\x80 \\u0041 not-an-escape" in
  let deep =
    let rec wrap n j =
      if n = 0 then j
      else if n mod 2 = 0 then wrap (n - 1) (Json.Obj [ ("k\"ey\n" ^ string_of_int n, j) ])
      else wrap (n - 1) (Json.List [ j; Json.String nasty ])
    in
    wrap 64 (Json.String nasty)
  in
  let printed = Json.to_string deep in
  let reparsed = parse_ok printed in
  Alcotest.(check bool) "deep value survives print/parse" true (reparsed = deep);
  check_string "reprint is stable" printed (Json.to_string reparsed);
  (* A 256-deep homogeneous array does not hit any parser depth limit. *)
  let rec spine n = if n = 0 then Json.Int 1 else Json.List [ spine (n - 1) ] in
  let towers = spine 256 in
  Alcotest.(check bool) "256-deep array round-trips" true
    (parse_ok (Json.to_string towers) = towers)

let test_json_int_digits () =
  (* The digit writer must print exactly what [string_of_int] prints,
     including the one int whose negation overflows. *)
  let powers = List.init 19 (fun i -> int_of_float (10. ** float_of_int i)) in
  List.iter
    (fun i -> check_string (string_of_int i) (string_of_int i) (Json.to_string (Json.Int i)))
    ([ 0; 1; -1; 9; -9; max_int; min_int; min_int + 1 ]
    @ List.concat_map (fun p -> [ p; p - 1; -p; 1 - p ]) powers)

let test_json_non_finite () =
  (* The emitter writes non-finite floats as null (JSON has no NaN), so
     a document containing them still parses — as Null. *)
  let doc = Json.Obj [ ("nan", Json.Float nan); ("inf", Json.Float infinity);
                       ("ninf", Json.Float neg_infinity); ("ok", Json.Float 0.5) ] in
  (match parse_ok (Json.to_string doc) with
  | Json.Obj [ ("nan", Json.Null); ("inf", Json.Null); ("ninf", Json.Null);
               ("ok", Json.Float f) ] ->
    Alcotest.(check (float 0.0)) "finite float preserved" 0.5 f
  | _ -> Alcotest.fail "non-finite floats must parse back as null");
  (* The JS-flavored literals some emitters produce are not JSON; the
     parser must reject them rather than smuggle non-finite values in. *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (Result.is_error (Json.of_string s)))
    [ "NaN"; "Infinity"; "-Infinity"; "nan"; "inf"; "[1,NaN]"; {|{"x":Infinity}|}; "1e999x" ];
  (* Overflowing exponents parse to OCaml's infinity and then re-print as
     null — lossy but deterministic, never a crash. *)
  match parse_ok "[1e999]" with
  | Json.List [ Json.Float f ] ->
    Alcotest.(check bool) "1e999 parses to infinity" true (f = Float.infinity);
    check_string "and re-prints as null" "[null]" (Json.to_string (Json.List [ Json.Float f ]))
  | _ -> Alcotest.fail "expected a one-float list"

(* ------------------------------------------------------------------ *)
(* INT sink rows and the hop table                                     *)

(* Two stacks over the same two ports, listed in path order opposite to
   label order: rows follow the path, the report section the labels. *)
let test_int_sink_rows () =
  let module Int_meta = Dcpkt.Int_meta in
  let zeta = Int_meta.register ~name:"zeta" and alpha = Int_meta.register ~name:"alpha" in
  let hop id port ~sojourn ~qbytes ~gbps =
    { Int_meta.hop_id = id; port; ingress_ns = 1_000; egress_ns = 1_000 + sojourn; qbytes;
      svc_bps = gbps * 1_000_000_000 }
  in
  let sink = Obs.Int_sink.create () in
  let flow = Dcpkt.Flow_key.make ~src_ip:1 ~src_port:2 ~dst_ip:3 ~dst_port:4 in
  let absorb hops ~exceeded = Obs.Int_sink.absorb sink ~now:0 ~flow ~hops ~exceeded in
  absorb ~exceeded:false
    [|
      hop zeta 3 ~sojourn:1_000 ~qbytes:9_000 ~gbps:10;
      hop alpha 1 ~sojourn:3_000 ~qbytes:100 ~gbps:20;
    |];
  absorb ~exceeded:false
    [|
      hop zeta 3 ~sojourn:2_000 ~qbytes:4_500 ~gbps:30;
      hop alpha 1 ~sojourn:6_000 ~qbytes:200 ~gbps:40;
    |];
  absorb ~exceeded:true [||];
  check_int "stacks" 3 (Obs.Int_sink.packets sink);
  check_int "exceeded" 1 (Obs.Int_sink.exceeded sink);
  let rows = Obs.Int_sink.rows sink in
  Alcotest.(check (list string)) "first-seen order" [ "zeta:3"; "alpha:1" ]
    (List.map (fun (r : Obs.Int_sink.row) -> r.label) rows);
  (match rows with
  | [ z; a ] ->
    check_string "node" "zeta" z.node;
    check_int "port" 3 z.port;
    check_int "counts" 2 z.samples;
    check_int "zeta sum" 3_000 z.sum_ns;
    check_int "alpha sum" 9_000 a.sum_ns;
    check_int "zeta max" 2_000 z.max_ns;
    check_int "zeta max queue" 9_000 z.max_qbytes;
    check_int "alpha max queue" 200 a.max_qbytes;
    Alcotest.(check (float 1e-9)) "zeta mean service rate" 20.0 z.mean_svc_gbps;
    Alcotest.(check (float 1e-9)) "alpha mean service rate" 30.0 a.mean_svc_gbps;
    Alcotest.(check (float 1e-9)) "share of the summed sojourn" 0.75 a.share
  | _ -> Alcotest.fail "expected two rows");
  (match Json.member "per_hop" (Obs.Int_sink.to_json sink) with
  | Some (Json.Obj hops) ->
    Alcotest.(check (list string)) "report keeps label order" [ "alpha:1"; "zeta:3" ]
      (List.map fst hops)
  | _ -> Alcotest.fail "no per_hop object");
  check_string "hop table"
    "  hop (path order)     pkts     p50 us     p99 us     max us   share   max q B  svc Gbps\n\
    \  zeta:3                  2      1.500      1.990      2.000   25.0%      9000     20.00\n\
    \  alpha:1                 2      4.500      5.970      6.000   75.0%       200     30.00\n\
    \  bottleneck alpha:1 (75.0% of stamped sojourn, p99 5.970 us)\n"
    (Format.asprintf "%a" Obs.Int_sink.pp_rows rows)

(* ------------------------------------------------------------------ *)
(* Output paths                                                        *)

let test_check_output () =
  let dir = Filename.temp_dir "check_output" "" in
  let file = Filename.concat dir "r.json" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "{}");
  let before = Sys.readdir dir in
  let rejects what flag kind path =
    match Obs.Runtime.check_output ~flag kind path with
    | Ok () -> Alcotest.failf "%s: %s accepted" what path
    | Error msg ->
      Alcotest.(check bool) (what ^ ": the error names the flag") true
        (String.starts_with ~prefix:(flag ^ " ") msg)
  in
  rejects "missing directory" "--report" `File (Filename.concat dir "nope/r.json");
  rejects "missing parent directory" "--timeseries" `Dir (Filename.concat dir "nope/ts");
  rejects "directory where a file is expected" "--trace" `File dir;
  rejects "file where a directory is expected" "--timeseries" `Dir file;
  rejects "file as the parent directory" "--pcap" `File (Filename.concat file "p.pcap");
  let accepts what kind path =
    match Obs.Runtime.check_output ~flag:"--out" kind path with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s" what msg
  in
  accepts "existing file" `File file;
  accepts "new file" `File (Filename.concat dir "new.json");
  accepts "existing directory" `Dir dir;
  accepts "new directory" `Dir (Filename.concat dir "ts");
  Alcotest.(check (array string)) "nothing created" before (Sys.readdir dir);
  check_string "existing file untouched" "{}" (In_channel.with_open_bin file In_channel.input_all);
  Sys.remove file;
  Sys.rmdir dir

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "merge + scopes" `Quick test_merge_and_scopes;
          Alcotest.test_case "json dump" `Quick test_metrics_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "null" `Quick test_null;
          Alcotest.test_case "jsonl determinism" `Quick test_jsonl_determinism;
          Alcotest.test_case "reader returns every constructor" `Quick test_reader_roundtrip;
          Alcotest.test_case "reader skips blank lines" `Quick test_reader_blank_lines;
          Alcotest.test_case "reader names a malformed line" `Quick test_reader_names_bad_line;
        ] );
      ( "events",
        [
          Alcotest.test_case "json roundtrip (all constructors)" `Quick test_event_json_roundtrip;
          Alcotest.test_case "golden jsonl lines" `Quick test_event_json_golden;
          Alcotest.test_case "json rejects malformed" `Quick test_event_json_rejects;
          Alcotest.test_case "kind filter" `Quick test_kind_filter;
          Alcotest.test_case "flow filter" `Quick test_flow_filter;
          Alcotest.test_case "flow_of_spec" `Quick test_flow_of_spec;
          Alcotest.test_case "filter_of_spec" `Quick test_filter_of_spec;
          Alcotest.test_case "kind filter vocabulary" `Quick test_kind_filter_vocabulary;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "parser" `Quick test_json_parser;
          Alcotest.test_case "deeply nested escapes round-trip" `Quick test_json_deep_nesting;
          Alcotest.test_case "ints print as string_of_int" `Quick test_json_int_digits;
          Alcotest.test_case "non-finite floats" `Quick test_json_non_finite;
        ] );
      ("int sink", [ Alcotest.test_case "rows and hop table" `Quick test_int_sink_rows ]);
      ("runtime", [ Alcotest.test_case "check_output" `Quick test_check_output ]);
    ]
