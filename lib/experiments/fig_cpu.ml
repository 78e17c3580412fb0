(* fig11-12: the paper's CPU-overhead measurement as Bechamel
   microbenchmarks of the vSwitch datapath.  The paper compares `sar` CPU%
   of OVS with and without AC/DC at 100..10K concurrent connections; we
   measure ns/packet through the same interception points, which is the
   quantity that CPU% proxies.  The event core's churn rows are timed the
   same way. *)

module Engine = Eventsim.Engine
module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key

let mss = 1448 (* the paper measures overhead at 1.5 KB MTU *)

type dp_setup = {
  datapath : Vswitch.Datapath.t;
  keys : Flow_key.t array;
  mutable cursor : int;
}

(* A datapath with [flows] established AC/DC flows (or none for the
   baseline), primed exactly as the paper's experiment: connections are
   set up first, then packets are pushed through. *)
let make_sender_setup ~flows ~with_acdc =
  let engine = Engine.create () in
  let datapath = Vswitch.Datapath.create () in
  if with_acdc then Acdc.attach (Acdc.create engine (Acdc.Config.default ~mss)) datapath;
  let keys =
    Array.init flows (fun i ->
        Flow_key.make ~src_ip:1 ~dst_ip:(2 + (i mod 251)) ~src_port:(10_000 + (i / 251))
          ~dst_port:5001)
  in
  Array.iter
    (fun key ->
      let syn =
        Packet.make ~key ~seq:0 ~syn:true ~options:[ Packet.Window_scale 9 ] ~payload:0 ()
      in
      Vswitch.Datapath.process_egress datapath syn ~emit:ignore;
      let syn_ack =
        Packet.make ~key:(Flow_key.reverse key) ~seq:0 ~syn:true ~has_ack:true ~ack:1
          ~options:[ Packet.Window_scale 9 ]
          ~payload:0 ()
      in
      Vswitch.Datapath.process_ingress datapath syn_ack ~deliver:ignore)
    keys;
  { datapath; keys; cursor = 0 }

(* The receiver host tracks flows created by *ingress* SYNs. *)
let make_receiver_setup ~flows ~with_acdc =
  let engine = Engine.create () in
  let datapath = Vswitch.Datapath.create () in
  if with_acdc then Acdc.attach (Acdc.create engine (Acdc.Config.default ~mss)) datapath;
  let keys =
    Array.init flows (fun i ->
        Flow_key.make ~src_ip:(2 + (i mod 251)) ~dst_ip:1 ~src_port:(10_000 + (i / 251))
          ~dst_port:5001)
  in
  Array.iter
    (fun key ->
      Vswitch.Datapath.process_ingress datapath
        (Packet.make ~key ~seq:0 ~syn:true ~payload:0 ())
        ~deliver:ignore)
    keys;
  { datapath; keys; cursor = 0 }

let next_key setup =
  let key = setup.keys.(setup.cursor) in
  setup.cursor <- (setup.cursor + 1) mod Array.length setup.keys;
  key

(* Sender-side work per segment: egress data + ingress ACK with PACK. *)
let sender_side setup () =
  let key = next_key setup in
  let seg = Packet.make ~key ~seq:1 ~payload:mss () in
  Vswitch.Datapath.process_egress setup.datapath seg ~emit:ignore;
  let ack =
    Packet.make ~key:(Flow_key.reverse key) ~ack:(1 + mss) ~has_ack:true ~rwnd_field:0xFFFF
      ~options:[ Packet.Pack { total_bytes = mss; marked_bytes = 0 } ]
      ~payload:0 ()
  in
  Vswitch.Datapath.process_ingress setup.datapath ack ~deliver:ignore

(* Receiver-side work per segment: ingress data + egress ACK. *)
let receiver_side setup () =
  let key = next_key setup in
  let seg = Packet.make ~key ~seq:1 ~ecn:Packet.Ect0 ~payload:mss () in
  Vswitch.Datapath.process_ingress setup.datapath seg ~deliver:ignore;
  let ack = Packet.make ~key:(Flow_key.reverse key) ~ack:(1 + mss) ~has_ack:true ~payload:0 () in
  Vswitch.Datapath.process_egress setup.datapath ack ~emit:ignore

let flow_counts = [ 100; 1_000; 10_000 ]

let datapath_tests () =
  let open Bechamel in
  let tests =
    List.concat_map
      (fun flows ->
        [
          Test.make
            ~name:(Printf.sprintf "sender/baseline/%05d-flows" flows)
            (let setup = make_sender_setup ~flows ~with_acdc:false in
             Staged.stage (sender_side setup));
          Test.make
            ~name:(Printf.sprintf "sender/acdc/%05d-flows" flows)
            (let setup = make_sender_setup ~flows ~with_acdc:true in
             Staged.stage (sender_side setup));
          Test.make
            ~name:(Printf.sprintf "receiver/baseline/%05d-flows" flows)
            (let setup = make_receiver_setup ~flows ~with_acdc:false in
             Staged.stage (receiver_side setup));
          Test.make
            ~name:(Printf.sprintf "receiver/acdc/%05d-flows" flows)
            (let setup = make_receiver_setup ~flows ~with_acdc:true in
             Staged.stage (receiver_side setup));
        ])
      flow_counts
  in
  Test.make_grouped ~name:"datapath" tests

(* Steady-state event-queue churn.  Each op schedules one future event and
   fires one — the queue holds a fixed number of pending events
   throughout, and the delays cycle through a fixed pattern spanning every
   wheel level (100 ns .. 10 ms), so each op pays the amortized O(1) slot
   insert + cascade.  A bare engine: no trace event, frame or instrument. *)
let scheduler_tests () =
  let open Bechamel in
  let nop_h : (unit, unit) Engine.handler = Engine.handler (fun () () -> ()) in
  let make_churn ~pending =
    let engine = Engine.create () in
    let delays =
      let st = Random.State.make [| 0xACDC |] in
      Array.init 1024 (fun _ -> Eventsim.Time_ns.ns (100 + Random.State.int st 10_000_000))
    in
    let cursor = ref 0 in
    for i = 0 to pending - 1 do
      Engine.schedule_static_after engine ~delay:delays.(i land 1023) nop_h () ()
    done;
    Staged.stage (fun () ->
        let d = delays.(!cursor) in
        cursor := (!cursor + 1) land 1023;
        Engine.schedule_static_after engine ~delay:d nop_h () ();
        ignore (Engine.step engine))
  in
  let row pending =
    Test.make ~name:(Printf.sprintf "wheel/churn-%05d" pending) (make_churn ~pending)
  in
  (* 4096 pending ~ a busy dumbbell; 65536 ~ a 1000-host fabric. *)
  Test.make_grouped ~name:"scheduler" [ row 4096; row 65536 ]

(* ns/op per row, sorted by name.  The rows are profiling-off numbers, and
   a profiled simulation before them must not count their engine steps:
   collection pauses here and resumes afterwards. *)
let measure ~quota tests =
  let open Bechamel in
  let open Toolkit in
  let was_profiling = Obs.Prof.enabled () in
  Obs.Prof.set_enabled false;
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  let value ols =
    match Analyze.OLS.estimates ols with Some (v :: _) -> v | Some [] | None -> nan
  in
  let rows test =
    let results = Analyze.all ols Instance.monotonic_clock (Benchmark.all cfg instances test) in
    Hashtbl.fold (fun name ols acc -> (name, value ols) :: acc) results []
  in
  let rows =
    List.concat_map rows (tests ()) |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  if was_profiling then Obs.Prof.set_enabled true;
  rows

let print_rows = List.iter (fun (name, v) -> Format.printf "  %-44s %10.0f ns/op@." name v)
let scheduler_rows ~quota = measure ~quota (fun () -> [ scheduler_tests () ])

let run report =
  Harness.print_header "fig11-12" "vSwitch datapath cost (CPU overhead proxy)";
  Format.printf "  ns per (data segment + ACK) through the datapath@.";
  let rows = measure ~quota:0.5 (fun () -> [ datapath_tests (); scheduler_tests () ]) in
  print_rows rows;
  List.iter (fun (name, v) -> Obs.Report.add_scalar report (name ^ ".ns_per_op") v) rows;
  let find side scheme flows =
    List.assoc_opt (Printf.sprintf "datapath/%s/%s/%05d-flows" side scheme flows) rows
  in
  List.iter
    (fun side ->
      List.iter
        (fun flows ->
          match (find side "baseline" flows, find side "acdc" flows) with
          | Some b, Some a ->
            Format.printf
              "  %-8s %5d flows: baseline %6.0f ns, AC/DC %6.0f ns (+%.0f ns, +%.1f%%)@." side
              flows b a (a -. b)
              (100.0 *. (a -. b) /. Float.max 1.0 b)
          | _ -> ())
        flow_counts)
    [ "sender"; "receiver" ];
  (* Put the absolute numbers in the paper's terms: OVS sits above TSO/GRO
     (§4), so AC/DC runs per 64 KB segment, not per wire packet. *)
  match find "sender" "acdc" 10_000 with
  | Some a ->
    let segs_per_sec = 10e9 /. 8.0 /. 65536.0 in
    let share = segs_per_sec *. a /. 1e9 *. 100.0 in
    Format.printf
      "  at 10 Gb/s with TSO (64 KB segments): %.0f segs/s x %.0f ns = %.2f%% of one core,@."
      segs_per_sec a share;
    Format.printf "  %s the paper's bound of one point of CPU overhead.@."
      (if share < 1.0 then "under" else "over")
  | None -> ()
