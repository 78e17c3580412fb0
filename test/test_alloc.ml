(* Allocation budgets of the steady-state datapath, layer by layer.

   Each case warms up, then drives one layer for [ops] operations and
   asserts the average minor-heap words per operation.  The per-layer
   cases must allocate nothing (< 1 word/op); the end-to-end case bounds
   a whole AC/DC dumbbell, where what remains per packet is the
   [Packet.t] record, its option cells, the RTO handle and per-RTT
   bookkeeping.  The observer cases bound enabled sinks, which may
   allocate their output and little else. *)

module Engine = Eventsim.Engine
module Rng = Eventsim.Rng
module Time_ns = Eventsim.Time_ns
module Timing_wheel = Eventsim.Timing_wheel
module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key
module Int_meta = Dcpkt.Int_meta
module Datapath = Vswitch.Datapath
module Flow_table = Vswitch.Flow_table

let ops = 10_000
let warmup = 1_000

(* Minor words per call of [f i], for i in [warmup, warmup + ops), after
   calling it for i in [0, warmup). *)
let words_per_op f =
  for i = 0 to warmup - 1 do
    f i
  done;
  let before = Gc.minor_words () in
  for i = warmup to warmup + ops - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int ops

let check_free name words =
  if not (words < 1.0) then
    Alcotest.failf "%s: %.2f minor words per op, expected < 1" name words

let check_exactly expected name words =
  if words <> expected then
    Alcotest.failf "%s: %.2f minor words per op, expected exactly %g" name words expected

let check_at_most limit name words =
  if not (words <= limit) then
    Alcotest.failf "%s: %.2f minor words per op, expected <= %g" name words limit

let key = Flow_key.make ~src_ip:1 ~dst_ip:2 ~src_port:5000 ~dst_port:80
let sink (_ : Packet.t) = ()

(* Delays between 2^11 and 2^21 ns: every event is filed at level 2 or
   above and reaches level 0 only through cascades. *)
let delay i = 2048 + (i * 7919 mod 2_000_000)

let test_wheel () =
  let w = Timing_wheel.create () in
  let fired = ref 0 in
  let count (n : int ref) () = incr n in
  for i = 0 to 255 do
    Timing_wheel.push w ~time:(delay i) count fired ()
  done;
  check_free "Timing_wheel push + pop_until + release"
    (words_per_op (fun i ->
         let c = Timing_wheel.pop_until w ~limit:max_int in
         let at = c.c_time + delay i in
         Timing_wheel.release w c;
         Timing_wheel.push w ~time:at count fired ()))

let test_engine () =
  let engine = Engine.create () in
  let fired = ref 0 in
  let h = Engine.handler (fun (n : int ref) () -> incr n) in
  check_free "Engine.schedule_static_after + run"
    (words_per_op (fun i ->
         Engine.schedule_static_after engine ~delay:(delay i) h fired ();
         Engine.run engine));
  Alcotest.(check int) "every event fired" (warmup + ops) !fired

(* A closure or a timer rides a handler of its own in the same cell: the
   closure costs nothing beyond itself, the timer only its handle. *)
let test_engine_closure () =
  let engine = Engine.create () in
  let fired = ref 0 in
  let bump () = incr fired in
  check_free "Engine.schedule_after of a preallocated closure + run"
    (words_per_op (fun i ->
         Engine.schedule_after engine ~delay:(delay i) bump;
         Engine.run engine));
  Alcotest.(check int) "every closure fired" (warmup + ops) !fired

let test_engine_timer () =
  let engine = Engine.create () in
  let fired = ref 0 in
  let bump () = incr fired in
  check_exactly 3.0 "Engine.timer_after + cancel + run"
    (words_per_op (fun i ->
         Engine.cancel (Engine.timer_after engine ~delay:(delay i) bump);
         Engine.run engine));
  Alcotest.(check int) "no cancelled timer fired" 0 !fired

let test_rng () =
  let rng = Rng.create ~seed:7 in
  let sum = ref 0 in
  check_free "Rng.int" (words_per_op (fun _ -> sum := !sum + Rng.int rng 1000));
  (* A float crossing a module boundary is returned boxed; what must not
     allocate is the draw itself. *)
  let box = 1 + Obj.size (Obj.repr (Sys.opaque_identity 0.5)) in
  let total = [| 0.0 |] in
  let words = words_per_op (fun _ -> total.(0) <- total.(0) +. Rng.float rng 1.0) in
  check_free "Rng.float beyond its result box" (words -. float_of_int box)

let test_flow_table () =
  let engine = Engine.create () in
  let table = Flow_table.create engine () in
  ignore (Flow_table.find_or_create table key ~make:(fun () -> 42));
  let other = Flow_key.make ~src_ip:3 ~dst_ip:4 ~src_port:1 ~dst_port:2 in
  let rkey = Flow_key.reverse key in
  check_free "Flow_table.find hit"
    (words_per_op (fun _ -> ignore (Flow_table.find table key : int option)));
  check_free "Flow_table.find miss"
    (words_per_op (fun _ -> ignore (Flow_table.find table other : int option)));
  check_free "Flow_table.find_reverse hit"
    (words_per_op (fun _ -> ignore (Flow_table.find_reverse table rkey : int option)));
  Alcotest.(check (option int)) "reverse finds the flow" (Some 42)
    (Flow_table.find_reverse table rkey);
  Alcotest.(check (option int)) "a forward key is no reverse hit" None
    (Flow_table.find_reverse table key);
  Flow_table.stop_gc table

let pass name =
  {
    Datapath.name;
    egress = (fun _ ~inject:_ -> Datapath.Pass);
    ingress = (fun _ ~inject:_ -> Datapath.Pass);
  }

let test_datapath () =
  let dp = Datapath.create () in
  Datapath.add_processor dp (pass "a");
  Datapath.add_processor dp (pass "b");
  let pkt = Packet.make ~key ~seq:1 ~payload:1000 () in
  check_free "Datapath egress + ingress"
    (words_per_op (fun _ ->
         Datapath.process_egress dp pkt ~emit:sink;
         Datapath.process_ingress dp pkt ~deliver:sink))

let test_switch () =
  let engine = Engine.create () in
  let sw = Netsim.Switch.create engine ~name:"alloc" () in
  let port =
    Netsim.Switch.add_port sw ~rate_bps:10_000_000_000 ~prop_delay:(Time_ns.us 5)
      ~deliver:sink ()
  in
  Netsim.Switch.add_route sw ~dst_ip:2 ~port;
  let pkt = Packet.make ~key ~seq:1 ~payload:1000 () in
  (* The run drains the port, so every input finds it idle. *)
  check_free "Switch.input to an idle port"
    (words_per_op (fun _ ->
         Netsim.Switch.input sw pkt;
         Engine.run engine));
  Alcotest.(check int) "every packet forwarded" (warmup + ops)
    (Netsim.Switch.forwarded_packets sw)

let test_sender_pack_ack () =
  let mss = 1000 in
  let engine = Engine.create () in
  let sender = Acdc.Sender.create engine (Acdc.Config.default ~mss) in
  let rkey = Flow_key.reverse key in
  let n = warmup + ops in
  let syn = Packet.make ~key ~seq:0 ~syn:true ~payload:0 () in
  ignore (Acdc.Sender.egress sender syn ~inject:sink);
  ignore
    (Acdc.Sender.ingress sender
       (Packet.make ~key:rkey ~seq:0 ~syn:true ~has_ack:true ~ack:1 ~payload:0 ())
       ~inject:sink);
  for i = 0 to n - 1 do
    ignore
      (Acdc.Sender.egress sender
         (Packet.make ~key ~seq:(1 + (i * mss)) ~payload:mss ())
         ~inject:sink)
  done;
  (* One ACK per segment, each carrying the receiver's cumulative PACK
     counters; built up front because ingress strips the option. *)
  let acks =
    Array.init n (fun i ->
        let p =
          Packet.make ~key:rkey ~ack:(1 + ((i + 1) * mss)) ~has_ack:true ~payload:0 ()
        in
        Packet.set_option p (Packet.Pack { total_bytes = (i + 1) * mss; marked_bytes = 0 });
        p)
  in
  check_free "Acdc.Sender.ingress of a PACK-carrying ACK"
    (words_per_op (fun i -> ignore (Acdc.Sender.ingress sender acks.(i) ~inject:sink)));
  Alcotest.(check bool) "PACK consumed" true (Packet.pack_info acks.(n - 1) = None);
  Acdc.Sender.shutdown sender

(* A 2-pair AC/DC dumbbell (host CUBIC, switch ECN), measured between
   10 ms and 30 ms of simulated time, so handshakes and slow start are
   behind it. *)
let test_dumbbell_ceiling () =
  let engine = Engine.create () in
  let params = Fabric.Params.with_ecn Fabric.Params.default in
  let net =
    Fabric.Topology.dumbbell engine ~params ~acdc:(Fabric.Topology.acdc_everywhere params)
      ~pairs:2 ()
  in
  let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:true in
  for i = 0 to 1 do
    let conn =
      Fabric.Conn.establish ~src:(Fabric.Topology.host net i)
        ~dst:(Fabric.Topology.host net (2 + i))
        ~config ()
    in
    Fabric.Conn.send_forever conn
  done;
  let inputs () =
    Array.fold_left
      (fun acc sw -> acc + Netsim.Switch.forwarded_packets sw + Netsim.Switch.drops sw)
      0 net.Fabric.Topology.switches
  in
  Engine.run ~until:(Time_ns.ms 10) engine;
  let inputs0 = inputs () in
  let words0 = Gc.minor_words () in
  Engine.run ~until:(Time_ns.ms 30) engine;
  let words = Gc.minor_words () -. words0 in
  let packets = inputs () - inputs0 in
  Fabric.Topology.shutdown net;
  Alcotest.(check bool) "traffic flowed" true (packets > 1_000);
  let per_packet = words /. float_of_int packets in
  if per_packet > 25.0 then
    Alcotest.failf "dumbbell: %.1f minor words per switch input, expected <= 25" per_packet

(* ------------------------------------------------------------------ *)
(* Enabled observers: an event emitted, a frame encoded or captured, an
   INT stack absorbed.                                                 *)

let test_trace_jsonl () =
  let bytes = ref 0 in
  let sink = Obs.Trace.jsonl ~write:(fun line -> bytes := !bytes + String.length line) in
  (* The budget covers the event value (6 words) and the line. *)
  check_at_most 24.0 "Trace.emit of an Enqueue into Trace.jsonl"
    (words_per_op (fun i ->
         Obs.Trace.emit sink ~now:(1_000_000 + i)
           (Obs.Trace.Enqueue
              { node = "tor0"; port = 2; pkt = i; size = 9054; qbytes = 9054 * (i land 15) })));
  Alcotest.(check bool) "lines written" true (!bytes > 0)

let hop hop_id port =
  {
    Int_meta.hop_id;
    port;
    ingress_ns = 1_000 * port;
    egress_ns = 4_000 * port;
    qbytes = 27_000;
    svc_bps = 10_000_000_000;
  }

let pack_ack () =
  let p = Packet.make ~key:(Flow_key.reverse key) ~ack:9001 ~has_ack:true ~payload:0 () in
  Packet.set_option p (Packet.Pack { total_bytes = 9000; marked_bytes = 1000 });
  p

let int_data () =
  let p = Packet.make ~key ~seq:1 ~has_ack:true ~ack:1 ~payload:8946 () in
  Packet.add_int_hop p (hop (Int_meta.register ~name:"tor0") 2);
  Packet.add_int_hop p (hop (Int_meta.register ~name:"tor1") 1);
  p

let frames () = [ ("a PACK ACK", pack_ack ()); ("a 2-hop INT data frame", int_data ()) ]

let test_to_wire () =
  List.iter
    (fun (name, pkt) ->
      check_at_most 14.0 ("Packet.to_wire of " ^ name)
        (words_per_op (fun _ -> ignore (Packet.to_wire pkt : string))))
    (frames ())

let test_pcapng_capture () =
  let bytes = ref 0 in
  let sink =
    Obs.Pcap.create ~format:Obs.Pcap.Pcapng ~write:(fun s -> bytes := !bytes + String.length s)
  in
  List.iter
    (fun (name, pkt) ->
      check_at_most 20.0 ("pcapng Pcap.capture of " ^ name)
        (words_per_op (fun i -> Obs.Pcap.capture sink ~iface:"tor0:1" ~now:i pkt)))
    (frames ());
  Alcotest.(check int) "every frame captured" (2 * (warmup + ops)) (Obs.Pcap.frames sink)

let test_int_sink () =
  let sink = Obs.Int_sink.create () in
  let hops = Packet.int_hops (int_data ()) in
  check_at_most 24.0 "Int_sink.absorb of a 2-hop stack"
    (words_per_op (fun i -> Obs.Int_sink.absorb sink ~now:i ~flow:key ~hops ~exceeded:false));
  Alcotest.(check int) "every stack absorbed" (warmup + ops) (Obs.Int_sink.packets sink)

let test_attrib_hops () =
  let attrib = Obs.Attrib.create () in
  Obs.Attrib.start attrib ~now:Time_ns.zero key;
  let hops = Packet.int_hops (int_data ()) in
  check_at_most 8.0 "Attrib.absorb_hops of a 2-hop stack"
    (words_per_op (fun _ -> Obs.Attrib.absorb_hops attrib key hops))

let () =
  Alcotest.run "alloc"
    [
      ( "per layer",
        [
          Alcotest.test_case "timing wheel push + pop with cascades" `Quick test_wheel;
          Alcotest.test_case "engine static schedule + run" `Quick test_engine;
          Alcotest.test_case "engine closure schedule + run" `Quick test_engine_closure;
          Alcotest.test_case "engine timer schedule + cancel + run" `Quick test_engine_timer;
          Alcotest.test_case "rng draws" `Quick test_rng;
          Alcotest.test_case "flow table lookups" `Quick test_flow_table;
          Alcotest.test_case "datapath two processors" `Quick test_datapath;
          Alcotest.test_case "switch input to an idle port" `Quick test_switch;
          Alcotest.test_case "acdc sender PACK ack" `Quick test_sender_pack_ack;
        ] );
      ( "observers",
        [
          Alcotest.test_case "trace jsonl emit" `Quick test_trace_jsonl;
          Alcotest.test_case "wire encode" `Quick test_to_wire;
          Alcotest.test_case "pcapng capture" `Quick test_pcapng_capture;
          Alcotest.test_case "int sink absorb" `Quick test_int_sink;
          Alcotest.test_case "attrib absorb hops" `Quick test_attrib_hops;
        ] );
      ( "end to end",
        [ Alcotest.test_case "acdc dumbbell words per packet" `Quick test_dumbbell_ceiling ] );
    ]
