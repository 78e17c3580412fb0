module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key
module Txq = Netsim.Txq
module Switch = Netsim.Switch

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let key ?(dst = 2) () = Flow_key.make ~src_ip:1 ~dst_ip:dst ~src_port:1 ~dst_port:2

let data_packet ?(dst = 2) ?(payload = 946) ?(ecn = Packet.Not_ect) () =
  (* wire size = 54 + 946 = 1000 bytes: convenient arithmetic *)
  Packet.make ~key:(key ~dst ()) ~ecn ~payload ()

(* ------------------------------------------------------------------ *)
(* Txq                                                                 *)

let test_txq_serialization_time () =
  let engine = Engine.create () in
  let arrivals = ref [] in
  let q =
    Txq.create engine ~rate_bps:1_000_000_000 ~prop_delay:(Time_ns.us 5) ~jitter:None
      ~deliver:(fun p -> arrivals := (Engine.now engine, p) :: !arrivals)
  in
  (* 1000 bytes at 1 Gb/s = 8 us serialization + 5 us propagation. *)
  Txq.enqueue q (data_packet ());
  Engine.run engine;
  match !arrivals with
  | [ (t, _) ] -> check_int "tx + prop" (Time_ns.us 13) t
  | _ -> Alcotest.fail "expected one delivery"

let test_txq_fifo_and_backlog () =
  let engine = Engine.create () in
  let arrivals = ref [] in
  let q =
    Txq.create engine ~rate_bps:1_000_000_000 ~prop_delay:Time_ns.zero ~jitter:None
      ~deliver:(fun p -> arrivals := p.Packet.id :: !arrivals)
  in
  Packet.reset_ids ();
  let p1 = data_packet () and p2 = data_packet () and p3 = data_packet () in
  Txq.enqueue q p1;
  Txq.enqueue q p2;
  Txq.enqueue q p3;
  check_int "backlog bytes" 3000 (Txq.queued_bytes q);
  check_bool "busy" true (Txq.busy q);
  Engine.run engine;
  Alcotest.(check (list int)) "FIFO order" [ p1.Packet.id; p2.Packet.id; p3.Packet.id ]
    (List.rev !arrivals);
  (* Three back-to-back 8 us serializations. *)
  check_int "drained at 24us" (Time_ns.us 24) (Engine.now engine);
  check_int "empty" 0 (Txq.queued_bytes q)

let test_txq_tx_complete_hook () =
  let engine = Engine.create () in
  let freed = ref 0 in
  let q =
    Txq.create engine ~rate_bps:1_000_000_000 ~prop_delay:(Time_ns.us 50) ~jitter:None
      ~deliver:ignore
  in
  Txq.set_on_tx_complete q (fun _ ~size -> freed := !freed + size);
  Txq.enqueue q (data_packet ());
  (* Buffer must be freed at serialization end (8us), before delivery. *)
  Engine.run ~until:(Time_ns.us 10) engine;
  check_int "freed at tx end" 1000 !freed

let test_txq_jitter_bounds () =
  let engine = Engine.create () in
  let rng = Eventsim.Rng.create ~seed:1 in
  let times = ref [] in
  let q =
    Txq.create engine ~rate_bps:10_000_000_000 ~prop_delay:(Time_ns.us 1)
      ~jitter:(Some (rng, 500))
      ~deliver:(fun _ -> times := Engine.now engine :: !times)
  in
  for _ = 1 to 50 do
    Txq.enqueue q (data_packet ())
  done;
  Engine.run engine;
  (* Each delivery is tx_end + 1us + [0,500ns). *)
  check_int "all delivered" 50 (List.length !times)

(* ------------------------------------------------------------------ *)
(* Switch                                                              *)

let one_port_switch ?ecn ?(buffer = 9 * 1024 * 1024) ?(dt_alpha = 1.0) engine sink =
  let sw = Switch.create engine ~buffer_capacity:buffer ~dt_alpha ?ecn () in
  let port =
    Switch.add_port sw ~rate_bps:1_000_000_000 ~prop_delay:Time_ns.zero ~deliver:sink ()
  in
  Switch.add_route sw ~dst_ip:2 ~port;
  sw

let test_switch_routes_and_counts () =
  let engine = Engine.create () in
  let delivered = ref 0 in
  let sw = one_port_switch engine (fun _ -> incr delivered) in
  Switch.input sw (data_packet ());
  Switch.input sw (data_packet ~dst:99 ());
  (* no route *)
  Engine.run engine;
  check_int "delivered" 1 !delivered;
  check_int "forwarded" 1 (Switch.forwarded_packets sw);
  check_int "drops include no-route" 1 (Switch.drops sw);
  check_int "forwarded bytes" 1000 (Switch.forwarded_bytes sw)

let test_switch_buffer_accounting () =
  let engine = Engine.create () in
  let sw = one_port_switch engine ignore in
  Switch.input sw (data_packet ());
  Switch.input sw (data_packet ());
  check_int "buffer used" 2000 (Switch.buffer_used sw);
  check_int "port queue" 2000 (Switch.port_queue_bytes sw 0);
  Engine.run engine;
  check_int "buffer drains" 0 (Switch.buffer_used sw);
  check_int "max queue recorded" 2000 (Switch.max_port_queue sw 0)

let test_switch_dynamic_threshold () =
  let engine = Engine.create () in
  (* Tiny buffer with alpha 1: a port may hold at most half the pool once
     its own occupancy counts against the remaining space. *)
  let sw = one_port_switch ~buffer:4000 ~dt_alpha:1.0 engine ignore in
  Switch.input sw (data_packet ());
  Switch.input sw (data_packet ());
  (* used = 2000; threshold = 1.0 * (4000 - 2000) = 2000; next 1000-byte
     packet would make the port exceed it. *)
  Switch.input sw (data_packet ());
  check_int "third dropped by DT" 1 (Switch.drops sw);
  check_int "buffer stays" 2000 (Switch.buffer_used sw);
  Engine.run engine

let test_switch_ecn_marking () =
  let engine = Engine.create () in
  let marked = ref 0 and received = ref 0 in
  let sw =
    one_port_switch
      ~ecn:{ Switch.mark_threshold = 1500; byte_mode_ref = None }
      engine
      (fun p ->
        incr received;
        if p.Packet.ecn = Packet.Ce then incr marked)
  in
  Switch.input sw (data_packet ~ecn:Packet.Ect0 ());
  (* queue 1000 *)
  Switch.input sw (data_packet ~ecn:Packet.Ect0 ());
  (* 1000+1000 > 1500: marked *)
  Engine.run engine;
  check_int "both delivered" 2 !received;
  check_int "second marked" 1 !marked;
  check_int "ce counter" 1 (Switch.ce_marks sw)

let test_switch_wred_drops_non_ect () =
  let engine = Engine.create () in
  let received = ref 0 in
  let sw =
    one_port_switch
      ~ecn:{ Switch.mark_threshold = 1500; byte_mode_ref = None }
      engine
      (fun _ -> incr received)
  in
  Switch.input sw (data_packet ());
  Switch.input sw (data_packet ());
  (* over threshold and not ECT: dropped *)
  Engine.run engine;
  check_int "one delivered" 1 !received;
  check_int "wred drop" 1 (Switch.wred_drops sw);
  check_int "total drops" 1 (Switch.drops sw)

let test_switch_byte_mode_spares_small_packets () =
  let engine = Engine.create () in
  let received = ref 0 in
  let sw =
    one_port_switch
      ~ecn:{ Switch.mark_threshold = 500; byte_mode_ref = Some 9000 }
      engine
      (fun _ -> incr received)
  in
  (* Fill past the threshold, then offer many tiny control packets: with
     byte-mode WRED almost all survive (p = 54/9000 each). *)
  Switch.input sw (data_packet ~ecn:Packet.Ect0 ());
  for _ = 1 to 100 do
    Switch.input sw (Packet.make ~key:(key ()) ~syn:true ~payload:0 ())
  done;
  Engine.run engine;
  check_bool "most SYNs survive" true (!received > 90);
  (* And full-size packets still die. *)
  let received_before = !received in
  Switch.input sw (data_packet ~ecn:Packet.Ect0 ());
  for _ = 1 to 20 do
    Switch.input sw (data_packet ~payload:8946 ())
  done;
  Engine.run engine;
  check_bool "big non-ECT mostly dropped" true (!received - received_before - 1 < 5)

let test_switch_ecmp_group () =
  let engine = Engine.create () in
  let sw = Switch.create engine () in
  let hits = Array.make 2 0 in
  let ports =
    List.init 2 (fun i ->
        Switch.add_port sw ~rate_bps:10_000_000_000 ~prop_delay:Time_ns.zero
          ~deliver:(fun _ -> hits.(i) <- hits.(i) + 1)
          ())
  in
  Switch.add_routes sw ~dst_ip:2 ~ports;
  (* 64 flows (distinct source ports): both members must be used, and each
     flow must stick to one member. *)
  for port = 0 to 63 do
    let key = Flow_key.make ~src_ip:1 ~dst_ip:2 ~src_port:port ~dst_port:80 in
    Switch.input sw (Packet.make ~key ~payload:100 ());
    Switch.input sw (Packet.make ~key ~payload:100 ())
  done;
  Engine.run engine;
  check_int "no drops" 0 (Switch.drops sw);
  check_bool "both members used" true (hits.(0) > 0 && hits.(1) > 0);
  check_bool "roughly balanced" true (abs (hits.(0) - hits.(1)) < 64);
  (* Per-flow stickiness: every flow sent 2 packets, so each member count
     must be even. *)
  check_int "member 0 even" 0 (hits.(0) mod 2);
  check_int "member 1 even" 0 (hits.(1) mod 2)

(* ------------------------------------------------------------------ *)
(* Saturation behaviour                                                *)

let test_switch_saturated_port_rate () =
  let engine = Engine.create () in
  let bytes = ref 0 in
  let stop_counting = ref max_int in
  let sw =
    one_port_switch engine (fun p ->
        if Engine.now engine <= !stop_counting then bytes := !bytes + Packet.wire_size p)
  in
  (* Offer 2x the port rate for 10 ms: goodput must equal the port rate. *)
  let stop = Time_ns.ms 10 in
  let rec offer () =
    if Engine.now engine < stop then begin
      Switch.input sw (data_packet ());
      (* 1000B every 4us = 2 Gb/s offered into a 1 Gb/s port *)
      Engine.schedule_after engine ~delay:(Time_ns.us 4) offer
    end
  in
  stop_counting := stop;
  offer ();
  Engine.run engine;
  let gbps = float_of_int (!bytes * 8) /. Time_ns.to_sec stop /. 1e9 in
  check_bool "close to line rate" true (gbps > 0.9 && gbps <= 1.01)

(* Conservation: input = forwarded + dropped, and the buffer drains to
   zero once the event queue runs dry. *)
let prop_switch_conservation =
  QCheck.Test.make ~name:"switch conserves packets and buffer bytes" ~count:50
    QCheck.(pair (int_range 1 200) (int_range 1 97))
    (fun (n_packets, seed) ->
      let engine = Engine.create () in
      let delivered = ref 0 in
      let sw =
        Switch.create engine ~buffer_capacity:20_000 ~dt_alpha:1.0 ()
      in
      let port =
        Switch.add_port sw ~rate_bps:1_000_000_000 ~prop_delay:Time_ns.zero
          ~deliver:(fun _ -> incr delivered)
          ()
      in
      Switch.add_route sw ~dst_ip:2 ~port;
      let rng = Eventsim.Rng.create ~seed in
      for _ = 1 to n_packets do
        let payload = 50 + Eventsim.Rng.int rng 1400 in
        Switch.input sw (Packet.make ~key:(key ()) ~payload ())
      done;
      Engine.run engine;
      Switch.forwarded_packets sw + Switch.drops sw = n_packets
      && !delivered = Switch.forwarded_packets sw
      && Switch.buffer_used sw = 0)

(* Every drop cause in one run — no-route, buffer exhaustion, dynamic
   threshold, WRED — plus an option rewrite while packets sit queued: the
   books must balance to exactly zero after drain under all of them.  The
   rewrite is the regression half: accounting used to recompute wire_size
   at dequeue, so growing a queued packet's options leaked buffer. *)
let test_switch_drop_paths_accounting () =
  let engine = Engine.create () in
  let sw =
    Switch.create engine ~buffer_capacity:4000 ~dt_alpha:1.0
      ~ecn:{ Switch.mark_threshold = 1500; byte_mode_ref = None }
      ()
  in
  let queued : Packet.t list ref = ref [] in
  let port =
    Switch.add_port sw ~rate_bps:1_000_000_000 ~prop_delay:Time_ns.zero ~deliver:ignore ()
  in
  Switch.add_route sw ~dst_ip:2 ~port;
  Switch.input sw (data_packet ~dst:99 ());
  (* no route: never admitted *)
  let p1 = data_packet () and p2 = data_packet ~ecn:Packet.Ect0 () in
  Switch.input sw p1;
  (* queue 1000: the next non-ECT packet is over the 1500 mark → WRED. *)
  Switch.input sw (data_packet ());
  (* ECT survives the mark (CE) and is admitted: queue and used 2000. *)
  Switch.input sw p2;
  queued := [ p1; p2 ];
  (* threshold = 4000 - 2000 = 2000: next packet dies by DT... *)
  Switch.input sw (data_packet ());
  (* ...and a jumbo one by total buffer exhaustion. *)
  Switch.input sw (data_packet ~payload:2946 ());
  check_int "admitted bytes only" 2000 (Switch.buffer_used sw);
  check_int "four drop causes counted" 4 (Switch.drops sw);
  check_bool "wred among them" true (Switch.wred_drops sw >= 1);
  (* Mutate the queued packets (an 8-byte PACK appears, as AC/DC's receiver
     module does to ACKs): accounting must still free the admitted sizes. *)
  List.iter
    (fun p -> Packet.set_option p (Packet.Pack { total_bytes = 1; marked_bytes = 0 }))
    !queued;
  Engine.run engine;
  check_int "buffer returns to zero after drain" 0 (Switch.buffer_used sw)

(* The port table grows by doubling; every id handed out must stay live
   and routable after many growth steps. *)
let test_switch_many_ports () =
  let engine = Engine.create () in
  let sw = Switch.create engine () in
  for i = 0 to 199 do
    let port =
      Switch.add_port sw ~rate_bps:1_000_000_000 ~prop_delay:Time_ns.zero ~deliver:ignore ()
    in
    check_int "dense port ids" i port
  done;
  let hits = ref 0 in
  let port =
    Switch.add_port sw ~rate_bps:1_000_000_000 ~prop_delay:Time_ns.zero
      ~deliver:(fun _ -> incr hits)
      ()
  in
  check_int "port_count" 201 (Switch.port_count sw);
  Switch.add_route sw ~dst_ip:2 ~port;
  Switch.input sw (data_packet ());
  Engine.run engine;
  check_int "delivered via grown port" 1 !hits

(* ------------------------------------------------------------------ *)
(* Impair                                                              *)

module Impair = Netsim.Impair

let run_impaired ~seed ~config ~n =
  let engine = Engine.create () in
  let arrivals = ref [] in
  let imp =
    Impair.create engine ~rng:(Eventsim.Rng.create ~seed) ~config
      ~deliver:(fun p -> arrivals := (Engine.now engine, p.Packet.id) :: !arrivals)
      ()
  in
  for _ = 1 to n do
    Impair.deliver imp (data_packet ())
  done;
  Engine.run engine;
  (imp, List.rev !arrivals)

let test_impair_clean_is_identity () =
  let deliver _ = () in
  let engine = Engine.create () in
  let wrapped =
    Impair.wrap engine ~rng:(Eventsim.Rng.create ~seed:1) ~config:Impair.clean deliver
  in
  (* A clean config must not even interpose: zero hot-path cost. *)
  check_bool "same closure" true (wrapped == deliver)

let test_impair_loss_and_replay () =
  let config = { Impair.clean with loss = 0.3 } in
  let imp, arrivals = run_impaired ~seed:7 ~config ~n:500 in
  let lost = Impair.lost imp in
  check_bool "some loss" true (lost > 100 && lost < 200);
  check_int "delivered the rest" (500 - lost) (List.length arrivals);
  (* Same seed, same fate for every packet. *)
  let imp2, arrivals2 = run_impaired ~seed:7 ~config ~n:500 in
  check_int "replay: same losses" lost (Impair.lost imp2);
  check_int "replay: same arrival count" (List.length arrivals) (List.length arrivals2)

let test_impair_duplication () =
  let config = { Impair.clean with dup = 0.5 } in
  let imp, arrivals = run_impaired ~seed:3 ~config ~n:200 in
  let dups = Impair.duplicated imp in
  check_bool "some duplicates" true (dups > 50);
  check_int "original + copy each delivered" (200 + dups) (List.length arrivals);
  (* Duplicates are distinct frames, not aliases. *)
  let ids = List.map snd arrivals in
  check_int "all ids distinct" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_impair_corrupt_drops () =
  let config = { Impair.clean with corrupt = 0.25 } in
  let imp, arrivals = run_impaired ~seed:11 ~config ~n:400 in
  let bad = Impair.corrupted imp in
  check_bool "some corruption" true (bad > 60);
  check_int "corrupted never delivered" (400 - bad) (List.length arrivals)

let test_impair_strip_pack () =
  let engine = Engine.create () in
  let with_pack = ref 0 and total = ref 0 in
  let imp =
    Impair.create engine
      ~rng:(Eventsim.Rng.create ~seed:5)
      ~config:{ Impair.clean with strip_pack = 0.5 }
      ~deliver:(fun p ->
        incr total;
        if Packet.pack_info p <> None then incr with_pack)
      ()
  in
  for _ = 1 to 100 do
    let p = data_packet () in
    Packet.set_option p (Packet.Pack { total_bytes = 1000; marked_bytes = 0 });
    Impair.deliver imp p
  done;
  Engine.run engine;
  let stripped = Impair.pack_stripped imp in
  check_int "all delivered (corruption, not loss)" 100 !total;
  check_bool "some stripped" true (stripped > 20);
  check_int "survivors keep the option" (100 - stripped) !with_pack

let test_impair_reorder () =
  let config =
    { Impair.clean with reorder = 0.3; reorder_delay = Time_ns.us 100 }
  in
  let imp, arrivals = run_impaired ~seed:9 ~config ~n:100 in
  check_bool "some held back" true (Impair.reordered imp > 10);
  check_int "nothing lost" 100 (List.length arrivals);
  (* Delivery order differs from send order (= id order). *)
  let ids = List.map snd arrivals in
  check_bool "out of order" true (ids <> List.sort compare ids)

let test_impair_config_parse () =
  (match Impair.config_of_string "loss=0.1, dup=0.05,reorder=0.2,reorder_delay_us=50" with
  | Ok c ->
    Alcotest.(check (float 1e-9)) "loss" 0.1 c.Impair.loss;
    Alcotest.(check (float 1e-9)) "dup" 0.05 c.Impair.dup;
    check_int "reorder delay" (Time_ns.us 50) c.Impair.reorder_delay;
    Alcotest.(check (float 1e-9)) "corrupt defaults" 0.0 c.Impair.corrupt
  | Error e -> Alcotest.fail e);
  check_bool "empty spec is clean" true (Impair.config_of_string "" = Ok Impair.clean);
  check_bool "bad key rejected" true (Result.is_error (Impair.config_of_string "los=0.1"));
  check_bool "p > 1 rejected" true (Result.is_error (Impair.config_of_string "loss=1.5"));
  check_bool "reorder without delay rejected" true
    (Result.is_error (Impair.config_of_string "reorder=0.5"))

let netsim_qtests = List.map QCheck_alcotest.to_alcotest [ prop_switch_conservation ]

let () =
  Alcotest.run "netsim"
    [
      ( "txq",
        [
          Alcotest.test_case "serialization time" `Quick test_txq_serialization_time;
          Alcotest.test_case "fifo + backlog" `Quick test_txq_fifo_and_backlog;
          Alcotest.test_case "tx-complete hook" `Quick test_txq_tx_complete_hook;
          Alcotest.test_case "jitter" `Quick test_txq_jitter_bounds;
        ] );
      ( "switch",
        [
          Alcotest.test_case "routing + counters" `Quick test_switch_routes_and_counts;
          Alcotest.test_case "buffer accounting" `Quick test_switch_buffer_accounting;
          Alcotest.test_case "dynamic threshold" `Quick test_switch_dynamic_threshold;
          Alcotest.test_case "ecn marking" `Quick test_switch_ecn_marking;
          Alcotest.test_case "wred drops non-ect" `Quick test_switch_wred_drops_non_ect;
          Alcotest.test_case "byte-mode wred" `Quick test_switch_byte_mode_spares_small_packets;
          Alcotest.test_case "ecmp groups" `Quick test_switch_ecmp_group;
          Alcotest.test_case "saturated port serves line rate" `Quick
            test_switch_saturated_port_rate;
          Alcotest.test_case "drop paths balance the buffer" `Quick
            test_switch_drop_paths_accounting;
          Alcotest.test_case "port table growth" `Quick test_switch_many_ports;
        ] );
      ( "impair",
        [
          Alcotest.test_case "clean config is identity" `Quick test_impair_clean_is_identity;
          Alcotest.test_case "loss + seeded replay" `Quick test_impair_loss_and_replay;
          Alcotest.test_case "duplication" `Quick test_impair_duplication;
          Alcotest.test_case "corruption drops" `Quick test_impair_corrupt_drops;
          Alcotest.test_case "pack stripping" `Quick test_impair_strip_pack;
          Alcotest.test_case "reordering" `Quick test_impair_reorder;
          Alcotest.test_case "config parsing" `Quick test_impair_config_parse;
        ] );
      ("properties", netsim_qtests);
    ]
