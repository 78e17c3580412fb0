module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key
module Flow_table = Vswitch.Flow_table
module Datapath = Vswitch.Datapath

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let key = Flow_key.make ~src_ip:1 ~dst_ip:2 ~src_port:1000 ~dst_port:80

(* ------------------------------------------------------------------ *)
(* Flow table                                                          *)

let test_table_create_find () =
  let engine = Engine.create () in
  let table = Flow_table.create engine in
  Alcotest.(check (option int)) "miss" None (Flow_table.find table key);
  let v = Flow_table.find_or_create table key ~make:(fun () -> 42) in
  check_int "created" 42 v;
  Alcotest.(check (option int)) "hit" (Some 42) (Flow_table.find table key);
  check_int "one entry" 1 (Flow_table.length table);
  Flow_table.stop_gc table

let test_table_find_or_create_idempotent () =
  let engine = Engine.create () in
  let table = Flow_table.create engine in
  let a = Flow_table.find_or_create table key ~make:(fun () -> ref 0) in
  let b = Flow_table.find_or_create table key ~make:(fun () -> ref 99) in
  check_bool "same entry returned" true (a == b);
  check_int "single entry" 1 (Flow_table.length table);
  Flow_table.stop_gc table

(* The GC sweeps every second and reaps entries idle for more than 5 s. *)
let test_table_gc_reaps_idle () =
  let engine = Engine.create () in
  let table = Flow_table.create engine in
  ignore (Flow_table.find_or_create table key ~make:(fun () -> ()));
  (* The sweep at 5 s sees exactly 5 s of idleness: not yet stale. *)
  Engine.run ~until:(Time_ns.sec 5.5) engine;
  check_int "kept through the idle timeout" 1 (Flow_table.length table);
  (* The next sweep, at 6 s, must reap it. *)
  Engine.run ~until:(Time_ns.sec 6.5) engine;
  check_int "reaped" 0 (Flow_table.length table);
  Flow_table.stop_gc table

let test_table_gc_keeps_active () =
  let engine = Engine.create () in
  let table = Flow_table.create engine in
  ignore (Flow_table.find_or_create table key ~make:(fun () -> ()));
  (* Touch the entry every 500 ms via lookup. *)
  let rec touch () =
    ignore (Flow_table.find table key);
    Engine.schedule_after engine ~delay:(Time_ns.ms 500) touch
  in
  touch ();
  (* Past the idle timeout plus one sweep. *)
  Engine.run ~until:(Time_ns.sec 6.5) engine;
  check_int "kept alive" 1 (Flow_table.length table);
  Flow_table.stop_gc table

let test_table_closed_reaped_next_sweep () =
  let engine = Engine.create () in
  let table = Flow_table.create engine in
  ignore (Flow_table.find_or_create table key ~make:(fun () -> ()));
  Flow_table.mark_closed table key;
  check_int "still present until sweep" 1 (Flow_table.length table);
  Engine.run ~until:(Time_ns.sec 1.5) engine;
  check_int "reaped at sweep despite activity" 0 (Flow_table.length table);
  Flow_table.stop_gc table

let test_table_remove_and_iter () =
  let engine = Engine.create () in
  let table = Flow_table.create engine in
  let k2 = Flow_key.reverse key in
  ignore (Flow_table.find_or_create table key ~make:(fun () -> 1));
  ignore (Flow_table.find_or_create table k2 ~make:(fun () -> 2));
  let sum = ref 0 in
  Flow_table.iter table ~f:(fun _ v -> sum := !sum + v);
  check_int "iter visits all" 3 !sum;
  Flow_table.remove table key;
  check_int "removed" 1 (Flow_table.length table);
  Flow_table.stop_gc table

(* ------------------------------------------------------------------ *)
(* Datapath                                                            *)

let passthrough_counter name hits =
  {
    Datapath.name;
    egress =
      (fun _ ~inject:_ ->
        incr hits;
        Datapath.Pass);
    ingress =
      (fun _ ~inject:_ ->
        incr hits;
        Datapath.Pass);
  }

let test_datapath_passthrough () =
  let dp = Datapath.create () in
  let delivered = ref 0 in
  Datapath.process_egress dp (Packet.make ~key ~payload:0 ()) ~emit:(fun _ -> incr delivered);
  Datapath.process_ingress dp (Packet.make ~key ~payload:0 ()) ~deliver:(fun _ -> incr delivered);
  check_int "both delivered with no processors" 2 !delivered;
  check_int "egress counted" 1 (Datapath.egress_packets dp);
  check_int "ingress counted" 1 (Datapath.ingress_packets dp)

let test_datapath_chain_order () =
  let dp = Datapath.create () in
  let log = ref [] in
  let tracer name =
    {
      Datapath.name;
      egress =
        (fun _ ~inject:_ ->
          log := name :: !log;
          Datapath.Pass);
      ingress = (fun _ ~inject:_ -> Datapath.Pass);
    }
  in
  Datapath.add_processor dp (tracer "first");
  Datapath.add_processor dp (tracer "second");
  Datapath.process_egress dp (Packet.make ~key ~payload:0 ()) ~emit:ignore;
  Alcotest.(check (list string)) "registration order" [ "first"; "second" ] (List.rev !log)

let test_datapath_drop_stops_chain () =
  let dp = Datapath.create () in
  let reached = ref false in
  Datapath.add_processor dp
    {
      Datapath.name = "dropper";
      egress = (fun _ ~inject:_ -> Datapath.Drop);
      ingress = (fun _ ~inject:_ -> Datapath.Drop);
    };
  let hits = ref 0 in
  Datapath.add_processor dp (passthrough_counter "after" hits);
  let delivered = ref false in
  Datapath.process_egress dp (Packet.make ~key ~payload:0 ()) ~emit:(fun _ -> delivered := true);
  Datapath.process_ingress dp (Packet.make ~key ~payload:0 ()) ~deliver:(fun _ ->
      delivered := true);
  check_bool "not delivered" false !delivered;
  check_bool "later processor skipped" false !reached;
  check_int "later processor never ran" 0 !hits;
  check_int "egress drop counted" 1 (Datapath.egress_drops dp);
  check_int "ingress drop counted" 1 (Datapath.ingress_drops dp)

let test_datapath_injection () =
  let dp = Datapath.create () in
  Datapath.add_processor dp
    {
      Datapath.name = "injector";
      egress =
        (fun pkt ~inject ->
          (* Emit a clone ahead of the original (the FACK pattern). *)
          inject (Packet.make ~key:pkt.Packet.key ~payload:0 ());
          Datapath.Pass);
      ingress = (fun _ ~inject:_ -> Datapath.Pass);
    };
  let emitted = ref 0 in
  Datapath.process_egress dp (Packet.make ~key ~payload:100 ()) ~emit:(fun _ -> incr emitted);
  check_int "original + injected" 2 !emitted

let test_datapath_modification_visible_downstream () =
  let dp = Datapath.create () in
  Datapath.add_processor dp
    {
      Datapath.name = "marker";
      egress =
        (fun pkt ~inject:_ ->
          pkt.Packet.ecn <- Packet.Ect0;
          Datapath.Pass);
      ingress = (fun _ ~inject:_ -> Datapath.Pass);
    };
  let seen = ref Packet.Not_ect in
  Datapath.add_processor dp
    {
      Datapath.name = "observer";
      egress =
        (fun pkt ~inject:_ ->
          seen := pkt.Packet.ecn;
          Datapath.Pass);
      ingress = (fun _ ~inject:_ -> Datapath.Pass);
    };
  Datapath.process_egress dp (Packet.make ~key ~payload:100 ()) ~emit:ignore;
  check_bool "downstream sees mutation" true (!seen = Packet.Ect0)

let () =
  Alcotest.run "vswitch"
    [
      ( "flow_table",
        [
          Alcotest.test_case "create/find" `Quick test_table_create_find;
          Alcotest.test_case "find_or_create idempotent" `Quick
            test_table_find_or_create_idempotent;
          Alcotest.test_case "gc reaps idle" `Quick test_table_gc_reaps_idle;
          Alcotest.test_case "gc keeps active" `Quick test_table_gc_keeps_active;
          Alcotest.test_case "closed entries reaped" `Quick test_table_closed_reaped_next_sweep;
          Alcotest.test_case "remove + iter" `Quick test_table_remove_and_iter;
        ] );
      ( "datapath",
        [
          Alcotest.test_case "passthrough" `Quick test_datapath_passthrough;
          Alcotest.test_case "chain order" `Quick test_datapath_chain_order;
          Alcotest.test_case "drop stops chain" `Quick test_datapath_drop_stops_chain;
          Alcotest.test_case "injection" `Quick test_datapath_injection;
          Alcotest.test_case "mutation visible downstream" `Quick
            test_datapath_modification_visible_downstream;
        ] );
    ]
