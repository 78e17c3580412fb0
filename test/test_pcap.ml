module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key
module Int_meta = Dcpkt.Int_meta
module Pcap = Obs.Pcap

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let key = Flow_key.make ~src_ip:3 ~dst_ip:9 ~src_port:40321 ~dst_port:5001

(* ------------------------------------------------------------------ *)
(* Packet.to_wire / of_wire                                            *)

let roundtrip ?(check_fields = true) label (p : Packet.t) =
  let wire = Packet.to_wire p in
  match Packet.of_wire wire with
  | Error e -> Alcotest.fail (Printf.sprintf "%s: of_wire: %s" label e)
  | Ok q ->
    check_string (label ^ ": re-serialization is byte-identical") wire (Packet.to_wire q);
    if check_fields then begin
      check_int (label ^ ": id") (p.Packet.id land 0xFFFF) q.Packet.id;
      check_bool (label ^ ": key") true (Flow_key.equal p.Packet.key q.Packet.key);
      check_int (label ^ ": seq") p.Packet.seq q.Packet.seq;
      check_int (label ^ ": ack") p.Packet.ack q.Packet.ack;
      check_bool (label ^ ": syn") p.Packet.syn q.Packet.syn;
      check_bool (label ^ ": fin") p.Packet.fin q.Packet.fin;
      check_bool (label ^ ": rst") p.Packet.rst q.Packet.rst;
      check_bool (label ^ ": has_ack") p.Packet.has_ack q.Packet.has_ack;
      check_bool (label ^ ": ece") p.Packet.ece q.Packet.ece;
      check_bool (label ^ ": cwr") p.Packet.cwr q.Packet.cwr;
      check_bool (label ^ ": ecn") true (p.Packet.ecn = q.Packet.ecn);
      check_bool (label ^ ": vm_ect") p.Packet.vm_ect q.Packet.vm_ect;
      check_int (label ^ ": rwnd_field") p.Packet.rwnd_field q.Packet.rwnd_field;
      check_int (label ^ ": payload") p.Packet.payload q.Packet.payload;
      check_bool (label ^ ": options") true (p.Packet.options = q.Packet.options)
    end

let hop ~hop_id ~port ~ingress_ns ~egress_ns ~qbytes ~svc_bps =
  { Int_meta.hop_id; port; ingress_ns; egress_ns; qbytes; svc_bps }

(* Every frame shape the encoder has a branch for, built in a fixed order
   after [reset_ids] so the ids (and so the wire bytes) are deterministic. *)
let wire_matrix () =
  Packet.reset_ids ();
  let frames = ref [] in
  let add ?(check_fields = true) label p = frames := (label, check_fields, p) :: !frames in
  (* Every IP ECN codepoint on a full-size data segment. *)
  List.iter
    (fun (label, ecn) -> add label (Packet.make ~key ~seq:1000 ~ecn ~payload:1448 ()))
    [
      ("not-ect", Packet.Not_ect);
      ("ect0", Packet.Ect0);
      ("ect1", Packet.Ect1);
      ("ce", Packet.Ce);
    ];
  add "syn with mss+wscale"
    (Packet.make ~key ~syn:true
       ~options:[ Packet.Mss 8960; Packet.Window_scale 9 ]
       ~payload:0 ());
  add "syn-ack"
    (Packet.make ~key:(Flow_key.reverse key) ~syn:true ~has_ack:true ~ack:1
       ~options:[ Packet.Mss 1448; Packet.Window_scale 7 ]
       ~payload:0 ());
  add "pack ack"
    (Packet.make ~key:(Flow_key.reverse key) ~ack:123456 ~has_ack:true ~rwnd_field:0x1234
       ~options:[ Packet.Pack { total_bytes = 1_000_000; marked_bytes = 65_535 } ]
       ~payload:0 ());
  add "sack ack"
    (Packet.make ~key:(Flow_key.reverse key) ~ack:1000 ~has_ack:true
       ~options:[ Packet.Sack [ (1000, 2448); (5000, 6448); (9000, 10448) ] ]
       ~payload:0 ());
  add "pack + sack together"
    (Packet.make ~key:(Flow_key.reverse key) ~ack:1000 ~has_ack:true
       ~options:
         [ Packet.Pack { total_bytes = 42; marked_bytes = 7 }; Packet.Sack [ (1000, 2448) ] ]
       ~payload:0 ());
  add "fin-ack" (Packet.make ~key ~seq:77 ~ack:88 ~fin:true ~has_ack:true ~payload:0 ());
  add "rst" (Packet.make ~key ~rst:true ~payload:0 ());
  (* Mutable flag bits the vSwitch rewrites in place. *)
  let p = Packet.make ~key ~seq:1 ~ecn:Packet.Ce ~payload:9000 () in
  p.Packet.ece <- true;
  p.Packet.cwr <- true;
  p.Packet.vm_ect <- true;
  add "ece+cwr+vm_ect" p;
  (* PACK counters wrap at 2^24 on the wire: bytes still round-trip even
     though the decoded counter is reduced mod 2^24. *)
  add ~check_fields:false "pack counter wrap"
    (Packet.make ~key:(Flow_key.reverse key) ~ack:1 ~has_ack:true
       ~options:[ Packet.Pack { total_bytes = 0x1_234_567; marked_bytes = 0x1_000_001 } ]
       ~payload:0 ());
  (* Two stamped hops; the second saturates its queue-depth field. *)
  let p = Packet.make ~key ~seq:4097 ~ack:1 ~has_ack:true ~ecn:Packet.Ect0 ~payload:1448 () in
  Packet.add_int_hop p
    (hop ~hop_id:3 ~port:1 ~ingress_ns:1_000 ~egress_ns:13_500 ~qbytes:30_000
       ~svc_bps:10_000_000_000);
  Packet.add_int_hop p
    (hop ~hop_id:7 ~port:2 ~ingress_ns:20_000 ~egress_ns:21_200 ~qbytes:20_000_000
       ~svc_bps:40_000_000_000);
  add "data with 2 int hops" p;
  (* A PACK ACK has room for two hops: the third sets the exceeded flag. *)
  let p =
    Packet.make ~key:(Flow_key.reverse key) ~ack:4097 ~has_ack:true
      ~options:[ Packet.Pack { total_bytes = 4096; marked_bytes = 1448 } ]
      ~payload:0 ()
  in
  List.iter
    (fun hop_id ->
      Packet.add_int_hop p
        (hop ~hop_id ~port:hop_id ~ingress_ns:0 ~egress_ns:(hop_id * 1_000) ~qbytes:512
           ~svc_bps:10_000_000_000))
    [ 5; 6; 9 ];
  add "pack ack, int exceeded" p;
  List.rev !frames

let test_wire_roundtrip () =
  List.iter (fun (label, check_fields, p) -> roundtrip ~check_fields label p) (wire_matrix ())

let to_hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* The encoder's output, pinned byte for byte: the round-trip above would
   still pass after a change made identically to both directions. *)
let golden_wires =
  [
    ( "not-ect",
      "0200000000090200000000030800450005d0000140004006211c0a0000030a00\
       00099d811389000003e8000000005000ffffe13e0000" );
    ( "ect0",
      "0200000000090200000000030800450205d000024000400621190a0000030a00\
       00099d811389000003e8000000005000ffffe13e0000" );
    ( "ect1",
      "0200000000090200000000030800450105d000034000400621190a0000030a00\
       00099d811389000003e8000000005000ffffe13e0000" );
    ( "ce",
      "0200000000090200000000030800450305d000044000400621160a0000030a00\
       00099d811389000003e8000000005000ffffe13e0000" );
    ( "syn with mss+wscale",
      "02000000000902000000000308004500003000054000400626b80a0000030a00\
       00099d81138900000000000000007002ffff99bd00000204230003030900" );
    ( "syn-ack",
      "02000000000302000000000908004500003000064000400626b70a0000090a00\
       000313899d8100000000000000017012ffffb9040000020405a803030700" );
    ( "pack ack",
      "02000000000302000000000908004500003000074000400626b60a0000090a00\
       000313899d81000000000001e2407010123489f50000fd080f424000ffff" );
    ( "sack ack",
      "02000000000302000000000908004500004400084000400626a10a0000090a00\
       000313899d8100000000000003e8c010ffffeb770000051a000003e800000990\
       000013880000193000002328000028d00000" );
    ( "pack + sack together",
      "02000000000302000000000908004500003c00094000400626a80a0000090a00\
       000313899d8100000000000003e8a010ffff5d300000fd0800002a000007050a\
       000003e8000009900000" );
    ( "fin-ack",
      "020000000009020000000003080045000028000a4000400626bb0a0000030a00\
       00099d8113890000004d000000585011ffffea180000" );
    ( "rst",
      "020000000009020000000003080045000028000b4000400626ba0a0000030a00\
       00099d81138900000000000000005004ffffeaca0000" );
    ( "ece+cwr+vm_ect",
      "020000000009020000000003080045032350000c40004006038e0a0000030a00\
       00099d811389000000010000000051c0ffffc5e50000" );
    ( "pack counter wrap",
      "020000000003020000000009080045000030000d4000400626b00a0000090a00\
       000313899d8100000000000000017010ffff43660000fd08234567000001" );
    ( "data with 2 int hops",
      "0200000000090200000000030800450205e8000e4000400620f50a0000030a00\
       00099d8113890000100100000001b010fffff0900000fe17020301000030d400\
       7503e80702000004b0ffff0fa000" );
    ( "pack ack, int exceeded",
      "020000000003020000000009080045000048000f4000400626960a0000090a00\
       000313899d810000000000001001d010ffff00860000fd080010000005a8fe17\
       82050500001388000203e8060600001770000203e800" );
  ]

let test_wire_golden () =
  let frames = wire_matrix () in
  check_bool "exceeded flag exercised" true
    (List.exists (fun (_, _, p) -> p.Packet.int_exceeded) frames);
  check_int "one golden frame per matrix entry" (List.length frames) (List.length golden_wires);
  List.iter2
    (fun (label, _, p) (label', hex) ->
      check_string "matrix order" label label';
      check_string (label ^ ": wire bytes") hex (to_hex (Packet.to_wire p)))
    frames golden_wires

let test_wire_errors () =
  Packet.reset_ids ();
  let wire = Packet.to_wire (Packet.make ~key ~seq:5 ~payload:100 ()) in
  let expect_error label s =
    check_bool label true (Result.is_error (Packet.of_wire s))
  in
  expect_error "empty" "";
  expect_error "truncated" (String.sub wire 0 40);
  let corrupt off =
    let b = Bytes.of_string wire in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
    Bytes.to_string b
  in
  expect_error "bad ethertype" (corrupt 12);
  expect_error "ip header corruption fails checksum" (corrupt 30);
  expect_error "tcp header corruption fails checksum" (corrupt 38);
  (* Oversized segments can't be expressed in a 16-bit total length. *)
  check_bool "to_wire rejects > 64KB" true
    (try
       ignore (Packet.to_wire (Packet.make ~key ~payload:70_000 ()));
       false
     with Invalid_argument _ -> true)

(* [of_wire] only reads its argument: with any value in the TCP checksum
   field (bytes 50-51) it accepts exactly the frame's own checksum, and
   the string it was given is unchanged. *)
let prop_of_wire_checksum =
  let frames =
    lazy (Array.of_list (List.map (fun (_, _, p) -> Packet.to_wire p) (wire_matrix ())))
  in
  QCheck.Test.make ~name:"of_wire checks the tcp checksum read-only" ~count:2000
    QCheck.(pair (int_bound 1000) (option (int_bound 0xFFFF)))
    (fun (i, value) ->
      let frames = Lazy.force frames in
      let b = Bytes.of_string frames.(i mod Array.length frames) in
      let own = Bytes.get_uint16_be b 50 in
      let v = Option.value value ~default:own in
      Bytes.set_uint16_be b 50 v;
      let arg = Bytes.to_string b in
      let copy = Bytes.to_string b in
      Result.is_ok (Packet.of_wire arg) = (v = own) && String.equal arg copy)

(* ------------------------------------------------------------------ *)
(* Pcap writer/reader units                                            *)

(* [bytes] read back through the capture reader, from a file. *)
let read_capture bytes =
  let path = Filename.temp_file "capture" ".pcap" in
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
  let read = Pcap.fold_file path ~init:[] (fun acc f -> f :: acc) in
  Sys.remove path;
  Result.map List.rev read

let write_capture format packets =
  let buf = Buffer.create 4096 in
  let sink = Pcap.create ~format ~write:(Buffer.add_string buf) in
  List.iter (fun (iface, now, pkt) -> Pcap.capture sink ~iface ~now pkt) packets;
  (Buffer.contents buf, Pcap.frames sink)

let sample_packets () =
  Packet.reset_ids ();
  [
    ("tor0:1", Time_ns.us 5, Packet.make ~key ~seq:1 ~ecn:Packet.Ect0 ~payload:1448 ());
    ( "host3.vm",
      Time_ns.ms 2,
      Packet.make ~key:(Flow_key.reverse key) ~ack:1449 ~has_ack:true
        ~options:[ Packet.Pack { total_bytes = 1448; marked_bytes = 0 } ]
        ~payload:0 () );
    ("tor0:1", Time_ns.sec 3.5, Packet.make ~key ~seq:1449 ~ecn:Packet.Ce ~payload:9000 ());
  ]

let check_frames frames packets ~expect_iface =
  check_int "frame count" (List.length packets) (List.length frames);
  List.iter2
    (fun (iface, now, (pkt : Packet.t)) (f : Pcap.frame) ->
      check_int "timestamp survives" now f.Pcap.ts;
      check_bool "iface label" true
        (f.Pcap.iface = if expect_iface then Some iface else None);
      check_int "orig_len = headers + payload"
        (String.length f.Pcap.data + pkt.Packet.payload)
        f.Pcap.orig_len;
      match Packet.of_wire f.Pcap.data with
      | Error e -> Alcotest.fail e
      | Ok q ->
        check_int "captured payload" pkt.Packet.payload q.Packet.payload;
        check_string "captured frame re-serializes" f.Pcap.data (Packet.to_wire q))
    packets frames

let test_pcap_classic () =
  let packets = sample_packets () in
  let bytes, count = write_capture Pcap.Pcap packets in
  check_int "writer frame counter" (List.length packets) count;
  match read_capture bytes with
  | Error e -> Alcotest.fail e
  | Ok frames -> check_frames frames packets ~expect_iface:false

let test_pcapng () =
  let packets = sample_packets () in
  let bytes, _ = write_capture Pcap.Pcapng packets in
  match read_capture bytes with
  | Error e -> Alcotest.fail e
  | Ok frames ->
    check_frames frames packets ~expect_iface:true;
    (* Two taps -> two interface blocks, reused on the second tor0:1 hit. *)
    check_int "distinct interfaces" 2
      (List.length
         (List.sort_uniq compare (List.filter_map (fun f -> f.Pcap.iface) frames)))

(* The full byte streams of [sample_packets]: file or section header,
   interface blocks in first-capture order, then one record per frame. *)
let golden_classic =
  "4d3cb2a102000400000000000000000000000400010000000000000088130000\
   36000000de0500000200000000090200000000030800450205d0000340004006\
   21180a0000030a0000099d81138900000001000000005000ffffe52500000000\
   000080841e003e0000003e000000020000000003020000000009080045000030\
   00024000400626bb0a0000090a00000313899d8100000000000005a97010ffff\
   1fff0000fd080005a8000000030000000065cd1d360000005e23000002000000\
   000902000000000308004503235000014000400603990a0000030a0000099d81\
   1389000005a9000000005000ffffc1fd0000"

let golden_pcapng =
  "0a0d0d0a1c0000004d3c2b1a01000000ffffffffffffffff1c00000001000000\
   2c000000010000000000040002000600746f72303a3100000900010009000000\
   000000002c000000060000005800000000000000000000008813000036000000\
   de0500000200000000090200000000030800450205d000034000400621180a00\
   00030a0000099d81138900000001000000005000ffffe5250000000058000000\
   010000002c000000010000000000040002000800686f7374332e766d09000100\
   09000000000000002c0000000600000060000000010000000000000080841e00\
   3e0000003e000000020000000003020000000009080045000030000240004006\
   26bb0a0000090a00000313899d8100000000000005a97010ffff1fff0000fd08\
   0005a80000000000600000000600000058000000000000000000000000c39dd0\
   360000005e230000020000000009020000000003080045032350000140004006\
   03990a0000030a0000099d811389000005a9000000005000ffffc1fd00000000\
   58000000"

let test_golden_streams () =
  let classic, _ = write_capture Pcap.Pcap (sample_packets ()) in
  let ng, _ = write_capture Pcap.Pcapng (sample_packets ()) in
  check_string "classic pcap bytes" golden_classic (to_hex classic);
  check_string "pcapng bytes" golden_pcapng (to_hex ng)

let test_rejected_frame_writes_nothing () =
  List.iter
    (fun format ->
      let buf = Buffer.create 64 in
      let sink = Pcap.create ~format ~write:(Buffer.add_string buf) in
      let header = Buffer.contents buf in
      check_bool "oversized frame rejected" true
        (try
           Pcap.capture sink ~iface:"new-tap" ~now:1 (Packet.make ~key ~payload:70_000 ());
           false
         with Invalid_argument _ -> true);
      check_int "nothing counted" 0 (Pcap.frames sink);
      check_string "nothing written after the header" header (Buffer.contents buf))
    [ Pcap.Pcap; Pcap.Pcapng ]

let test_read_rejects_garbage () =
  List.iter
    (fun s -> check_bool "rejected" true (Result.is_error (read_capture s)))
    [ ""; "xx"; String.make 64 '\000'; "\x4d\x3c\xb2\xa1" (* truncated header *) ]

(* A capture cut at any byte offset: at a record or block boundary it
   reads as the frames before the cut, anywhere else it is an [Error],
   never an exception.  Each [write] the sink makes is one file header,
   block or record, so the writes mark the boundaries. *)
let test_read_cut_captures () =
  List.iter
    (fun format ->
      let writes = ref [] in
      let sink = Pcap.create ~format ~write:(fun s -> writes := s :: !writes) in
      List.iter (fun (iface, now, pkt) -> Pcap.capture sink ~iface ~now pkt) (sample_packets ());
      let writes = List.rev !writes in
      let bytes = String.concat "" writes in
      let frames = Result.get_ok (read_capture bytes) in
      let is_frame i w =
        match format with Pcap.Pcap -> i > 0 | Pcap.Pcapng -> String.get_int32_le w 0 = 6l
      in
      (* boundary offset -> frames written before it *)
      let boundaries = Hashtbl.create 16 in
      ignore
        (List.fold_left
           (fun (i, off, n) w ->
             let off = off + String.length w and n = if is_frame i w then n + 1 else n in
             Hashtbl.replace boundaries off n;
             (i + 1, off, n))
           (0, 0, 0) writes);
      check_int "every frame read" (List.length (sample_packets ())) (List.length frames);
      for cut = 0 to String.length bytes do
        let label = Printf.sprintf "cut at %d of %d" cut (String.length bytes) in
        match (Hashtbl.find_opt boundaries cut, read_capture (String.sub bytes 0 cut)) with
        | Some n, Ok read ->
          check_bool (label ^ ": the frames before it") true
            (read = List.filteri (fun i _ -> i < n) frames)
        | None, Error _ -> ()
        | Some _, Error e -> Alcotest.failf "%s: boundary rejected: %s" label e
        | None, Ok _ -> Alcotest.failf "%s: accepted inside a record" label
      done)
    [ Pcap.Pcap; Pcap.Pcapng ]

(* ------------------------------------------------------------------ *)
(* End-to-end: a seeded AC/DC run captures a byte-identical, fully
   re-readable pcap through the ambient taps.                          *)

let capture_of_run format =
  Packet.reset_ids ();
  let buf = Buffer.create 65536 in
  let sink = Pcap.create ~format ~write:(Buffer.add_string buf) in
  Obs.Runtime.set_pcap sink;
  let params = Fabric.Params.with_ecn Fabric.Params.default in
  let engine = Engine.create () in
  let net =
    Fabric.Topology.dumbbell engine ~params
      ~acdc:(Fabric.Topology.acdc_everywhere params)
      ~pairs:2 ()
  in
  let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
  List.iter
    (fun i ->
      Fabric.Conn.send_forever
        (Fabric.Conn.establish
           ~src:(Fabric.Topology.host net i)
           ~dst:(Fabric.Topology.host net (2 + i))
           ~config ()))
    [ 0; 1 ];
  Engine.run ~until:(Time_ns.ms 5) engine;
  Fabric.Topology.shutdown net;
  Obs.Runtime.set_pcap Pcap.null;
  (Buffer.contents buf, Pcap.frames sink)

let test_run_capture_deterministic () =
  let a, count_a = capture_of_run Pcap.Pcap in
  let b, count_b = capture_of_run Pcap.Pcap in
  check_bool "capture non-empty" true (count_a > 0);
  check_int "same frame count" count_a count_b;
  check_string "byte-identical across runs" (Digest.to_hex (Digest.string a))
    (Digest.to_hex (Digest.string b))

let test_run_capture_roundtrips () =
  let bytes, count = capture_of_run Pcap.Pcapng in
  match read_capture bytes with
  | Error e -> Alcotest.fail e
  | Ok frames ->
    check_int "reader sees every frame" count (List.length frames);
    List.iter
      (fun (f : Pcap.frame) ->
        (match f.Pcap.iface with
        | Some _ -> ()
        | None -> Alcotest.fail "pcapng frame without interface");
        match Packet.of_wire f.Pcap.data with
        | Error e -> Alcotest.fail e
        | Ok q ->
          check_string "frame re-serializes byte-identically" f.Pcap.data (Packet.to_wire q);
          check_int "orig_len consistent"
            (String.length f.Pcap.data + q.Packet.payload)
            f.Pcap.orig_len)
      frames;
    (* The run crosses NIC queues, switch ports and both VM edges. *)
    let ifaces = List.sort_uniq compare (List.filter_map (fun f -> f.Pcap.iface) frames) in
    check_bool "several distinct taps" true (List.length ifaces >= 4);
    check_bool "vm edge tap present" true
      (List.exists (fun n -> Filename.check_suffix n ".vm") ifaces)

let () =
  Alcotest.run "pcap"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip matrix" `Quick test_wire_roundtrip;
          Alcotest.test_case "golden wire bytes" `Quick test_wire_golden;
          Alcotest.test_case "error handling" `Quick test_wire_errors;
          QCheck_alcotest.to_alcotest prop_of_wire_checksum;
        ] );
      ( "files",
        [
          Alcotest.test_case "classic pcap" `Quick test_pcap_classic;
          Alcotest.test_case "pcapng interfaces" `Quick test_pcapng;
          Alcotest.test_case "golden byte streams" `Quick test_golden_streams;
          Alcotest.test_case "rejected frame writes nothing" `Quick
            test_rejected_frame_writes_nothing;
          Alcotest.test_case "garbage rejected" `Quick test_read_rejects_garbage;
          Alcotest.test_case "cut captures" `Quick test_read_cut_captures;
        ] );
      ( "run",
        [
          Alcotest.test_case "deterministic capture" `Quick test_run_capture_deterministic;
          Alcotest.test_case "captured frames roundtrip" `Quick test_run_capture_roundtrips;
        ] );
    ]
