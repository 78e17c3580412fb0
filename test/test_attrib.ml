module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Attrib = Obs.Attrib
module Trace = Obs.Trace
module Json = Obs.Json
module Flow_key = Dcpkt.Flow_key

let check_int = Alcotest.(check int)
let flow = Flow_key.make ~src_ip:1 ~dst_ip:6 ~src_port:40000 ~dst_port:5001
let other = Flow_key.make ~src_ip:2 ~dst_ip:7 ~src_port:41000 ~dst_port:5001

let fresh () =
  let t = Attrib.create () in
  Attrib.set_enabled t true;
  t

let dur snap state = List.assoc state snap.Attrib.snap_states

(* ------------------------------------------------------------------ *)
(* The hard invariant on a hand-picked schedule: every nanosecond
   between start and complete lands in exactly one state bucket.       *)

let test_exactness_hand_picked () =
  let t = fresh () in
  let note now cause = Attrib.note t ~now:(Time_ns.us now) ~tracer:Trace.null flow cause in
  Attrib.start t ~now:(Time_ns.us 10) flow;
  note 30 Attrib.Blocked_app (* handshake += 20 *);
  note 50 Attrib.Blocked_cwnd (* app += 20 *);
  note 70 Attrib.Blocked_cwnd (* same state: no transition, nothing charged *);
  note 110 Attrib.Blocked_rwnd (* cwnd += 60; window still the tenant's own *);
  Attrib.set_enforced t flow true;
  note 150 Attrib.Waiting_acks (* rwnd_native += 40 *);
  note 160 Attrib.Blocked_rwnd (* in_flight += 10; now resolves to enforced *);
  Attrib.complete t ~now:(Time_ns.us 200) ~tracer:Trace.null flow;
  let snap =
    match Attrib.find_snapshot t flow with
    | Some s -> s
    | None -> Alcotest.fail "no snapshot after complete"
  in
  check_int "fct" (Time_ns.us 190) snap.Attrib.snap_fct;
  check_int "handshake" (Time_ns.us 20) (dur snap Attrib.Handshake);
  check_int "app_limited" (Time_ns.us 20) (dur snap Attrib.App_limited);
  check_int "cwnd_limited" (Time_ns.us 60) (dur snap Attrib.Cwnd_limited);
  check_int "rwnd_limited_native" (Time_ns.us 40) (dur snap Attrib.Rwnd_limited_native);
  check_int "rwnd_limited_enforced" (Time_ns.us 40) (dur snap Attrib.Rwnd_limited_enforced);
  check_int "rto_recovery" 0 (dur snap Attrib.Rto_recovery);
  check_int "in_flight" (Time_ns.us 10) (dur snap Attrib.In_flight);
  check_int "exactness" 0 (Attrib.exactness_error snap);
  (* Untracked flows never perturb anything. *)
  Attrib.note t ~now:(Time_ns.us 300) ~tracer:Trace.null other Attrib.Blocked_app;
  Attrib.complete t ~now:(Time_ns.us 300) ~tracer:Trace.null other;
  Alcotest.(check bool) "other flow untracked" true (Attrib.find_snapshot t other = None);
  check_int "tracked" 1 (Attrib.tracked t)

let test_second_complete_replaces () =
  let t = fresh () in
  Attrib.start t ~now:Time_ns.zero flow;
  Attrib.note t ~now:(Time_ns.us 5) ~tracer:Trace.null flow Attrib.Blocked_cwnd;
  Attrib.complete t ~now:(Time_ns.us 10) ~tracer:Trace.null flow;
  (* Second message on the same connection: the clock keeps running and a
     later complete snapshots the longer interval, still exact. *)
  Attrib.note t ~now:(Time_ns.us 25) ~tracer:Trace.null flow Attrib.Waiting_acks;
  Attrib.complete t ~now:(Time_ns.us 40) ~tracer:Trace.null flow;
  match Attrib.completed t with
  | [ snap ] ->
    check_int "fct grows" (Time_ns.us 40) snap.Attrib.snap_fct;
    check_int "still exact" 0 (Attrib.exactness_error snap)
  | snaps -> Alcotest.failf "expected one snapshot, got %d" (List.length snaps)

let test_hop_decomposition () =
  let t = fresh () in
  Attrib.start t ~now:Time_ns.zero flow;
  let hop ~id ~port ~sojourn =
    { Dcpkt.Int_meta.hop_id = id; port; ingress_ns = 100; egress_ns = 100 + sojourn;
      qbytes = 0; svc_bps = 10_000_000_000 }
  in
  let sw = Dcpkt.Int_meta.register ~name:"attrib-test-sw" in
  Attrib.absorb_hops t flow [| hop ~id:sw ~port:1 ~sojourn:500 |];
  Attrib.absorb_hops t flow [| hop ~id:sw ~port:1 ~sojourn:300; hop ~id:sw ~port:2 ~sojourn:50 |];
  Attrib.absorb_hops t flow [||] (* unstamped packet: not counted *);
  Attrib.absorb_hops t other [| hop ~id:sw ~port:1 ~sojourn:999 |] (* untracked: no-op *);
  Attrib.complete t ~now:(Time_ns.us 10) ~tracer:Trace.null flow;
  match Attrib.find_snapshot t flow with
  | None -> Alcotest.fail "no snapshot"
  | Some snap ->
    check_int "stamped packets" 2 snap.Attrib.snap_hop_packets;
    Alcotest.(check (list (pair string int)))
      "per-hop sojourn sums"
      [ ("attrib-test-sw:1", 800); ("attrib-test-sw:2", 50) ]
      snap.Attrib.snap_hops

let test_disabled_is_inert () =
  let t = Attrib.create () in
  Alcotest.(check bool) "disabled by default" false (Attrib.enabled t);
  Alcotest.(check bool) "untouched" false (Attrib.touched t);
  check_int "nothing tracked" 0 (Attrib.tracked t);
  Alcotest.(check (list Alcotest.reject)) "no completions" [] (Attrib.completed t)

(* ------------------------------------------------------------------ *)
(* QCheck: exactness holds over random send/stall schedules — any
   interleaving of causes, enforced toggles and re-completions.         *)

let causes =
  [|
    Attrib.Blocked_handshake;
    Attrib.Blocked_app;
    Attrib.Blocked_cwnd;
    Attrib.Blocked_rwnd;
    Attrib.Blocked_rto;
    Attrib.Waiting_acks;
  |]

(* An op is (dt_ns, action): action 0..5 notes a cause, 6 toggles the
   enforced flag, 7 takes an intermediate completion snapshot. *)
let schedule_gen =
  QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 1_000_000) (int_bound 7)))

let prop_exactness =
  QCheck.Test.make ~name:"state durations sum exactly to the FCT" ~count:300 schedule_gen
    (fun ops ->
      let t = fresh () in
      let enforced = ref false in
      let now = ref 17 in
      Attrib.start t ~now:!now flow;
      List.iter
        (fun (dt, action) ->
          now := !now + dt;
          if action < Array.length causes then
            Attrib.note t ~now:!now ~tracer:Trace.null flow causes.(action)
          else if action = 6 then begin
            enforced := not !enforced;
            Attrib.set_enforced t flow !enforced
          end
          else Attrib.complete t ~now:!now ~tracer:Trace.null flow)
        ops;
      now := !now + 1;
      Attrib.complete t ~now:!now ~tracer:Trace.null flow;
      match Attrib.find_snapshot t flow with
      | None -> QCheck.Test.fail_report "no snapshot after complete"
      | Some snap ->
        if Attrib.exactness_error snap <> 0 then
          QCheck.Test.fail_reportf "fct %d <> state sum (error %d)" snap.Attrib.snap_fct
            (Attrib.exactness_error snap);
        List.for_all (fun (_, d) -> d >= 0) snap.Attrib.snap_states
        && snap.Attrib.snap_fct = !now - 17)

let attrib_qtests = List.map QCheck_alcotest.to_alcotest [ prop_exactness ]

(* ------------------------------------------------------------------ *)
(* Trace events: transitions serialize and parse back losslessly.      *)

let test_trace_roundtrip () =
  let ev =
    Trace.Attrib_transition
      { flow; from_state = "cwnd_limited"; to_state = "rwnd_limited_enforced"; spent = 12345 }
  in
  let line = ref "" in
  Trace.emit (Trace.jsonl ~write:(fun l -> line := l)) ~now:(Time_ns.us 7) ev;
  let line = !line in
  match Result.bind (Json.of_string line) Trace.event_of_json with
  | Error msg -> Alcotest.fail (line ^ ": " ^ msg)
  | Ok (now', ev') ->
    check_int "timestamp" (Time_ns.us 7) now';
    Alcotest.(check bool) "event" true (ev = ev')

let test_transitions_emitted () =
  let t = fresh () in
  let ring = Trace.ring ~capacity:16 () in
  Attrib.start t ~now:Time_ns.zero flow;
  Attrib.note t ~now:(Time_ns.us 3) ~tracer:ring flow Attrib.Blocked_cwnd;
  Attrib.note t ~now:(Time_ns.us 3) ~tracer:ring flow Attrib.Blocked_cwnd (* no-op *);
  Attrib.complete t ~now:(Time_ns.us 9) ~tracer:ring flow;
  let transitions =
    List.filter_map
      (fun (_, ev) ->
        match ev with
        | Trace.Attrib_transition { from_state; to_state; spent; _ } ->
          Some (from_state, to_state, spent)
        | _ -> None)
      (Trace.events ring)
  in
  Alcotest.(check (list (triple string string int)))
    "one event per transition plus the completion"
    [
      ("handshake", "cwnd_limited", Time_ns.us 3);
      ("cwnd_limited", "complete", Time_ns.us 6);
    ]
    transitions

(* ------------------------------------------------------------------ *)
(* End-to-end: a real simulation (AC/DC dumbbell, finite messages)
   produces exact snapshots for every flow, streams watched channels,
   and reports a well-formed fct_attrib section.                        *)

let test_endpoint_integration () =
  Dcpkt.Packet.reset_ids ();
  Obs.Runtime.reset_attrib ();
  let attrib = Obs.Runtime.attrib () in
  Obs.Attrib.set_enabled attrib true;
  let int_was = Dcpkt.Int_meta.enabled () in
  Dcpkt.Int_meta.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Attrib.set_enabled attrib false;
      Dcpkt.Int_meta.set_enabled int_was)
  @@ fun () ->
  let params = Fabric.Params.with_ecn Fabric.Params.default in
  let engine = Engine.create () in
  let ts = Obs.Timeseries.create engine in
  let net =
    Fabric.Topology.dumbbell engine ~params
      ~acdc:(Fabric.Topology.acdc_everywhere params)
      ~pairs:2 ()
  in
  let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
  let conns =
    List.init 2 (fun i ->
        Fabric.Conn.establish
          ~src:(Fabric.Topology.host net i)
          ~dst:(Fabric.Topology.host net (2 + i))
          ~config ())
  in
  (* Watch the first flow before its handshake even runs: the watch must
     attach when the clock starts. *)
  Obs.Attrib.watch attrib ~ts (Fabric.Conn.key (List.hd conns));
  let done_at = ref [] in
  List.iter
    (fun c ->
      Fabric.Conn.send_message c ~bytes:200_000
        ~on_complete:(fun t -> done_at := t :: !done_at))
    conns;
  Engine.run ~until:(Time_ns.sec 1.0) engine;
  Fabric.Topology.shutdown net;
  check_int "both messages completed" 2 (List.length !done_at);
  let snaps = Obs.Attrib.completed attrib in
  check_int "snapshot per flow" 2 (List.length snaps);
  List.iter
    (fun snap ->
      check_int "exact to the nanosecond" 0 (Attrib.exactness_error snap);
      Alcotest.(check bool) "positive fct" true (snap.Attrib.snap_fct > 0);
      Alcotest.(check bool)
        "handshake accounted" true
        (dur snap Attrib.Handshake > 0);
      Alcotest.(check bool)
        "INT decomposed some in-flight time" true
        (snap.Attrib.snap_hop_packets > 0 && snap.Attrib.snap_hops <> []))
    snaps;
  let watched =
    List.filter
      (fun ch -> String.starts_with ~prefix:"attrib.flow0." (Obs.Timeseries.name ch))
      (Obs.Timeseries.channels ts)
  in
  Alcotest.(check bool) "watched channels recorded" true
    (watched <> [] && List.for_all (fun ch -> Obs.Timeseries.recorded ch > 0) watched);
  (* The report section is well-formed and matches the tracked state. *)
  (match Attrib.to_json attrib with
  | Json.Obj fields ->
    (match List.assoc "flows" fields with
    | Json.Int n -> check_int "report flows" 2 n
    | _ -> Alcotest.fail "flows not an int");
    (match List.assoc "completed" fields with
    | Json.Int n -> check_int "report completed" 2 n
    | _ -> Alcotest.fail "completed not an int");
    (match List.assoc "rows" fields with
    | Json.List rows -> check_int "report rows" 2 (List.length rows)
    | _ -> Alcotest.fail "rows not a list")
  | _ -> Alcotest.fail "fct_attrib not an object");
  Obs.Runtime.reset_attrib ()

let () =
  Alcotest.run "attrib"
    [
      ( "exactness",
        [
          Alcotest.test_case "hand-picked schedule" `Quick test_exactness_hand_picked;
          Alcotest.test_case "re-completion replaces snapshot" `Quick
            test_second_complete_replaces;
          Alcotest.test_case "per-hop decomposition" `Quick test_hop_decomposition;
          Alcotest.test_case "disabled instance is inert" `Quick test_disabled_is_inert;
        ]
        @ attrib_qtests );
      ( "trace",
        [
          Alcotest.test_case "transition json roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "transitions emitted once each" `Quick test_transitions_emitted;
        ] );
      ( "integration",
        [ Alcotest.test_case "acdc dumbbell end-to-end" `Quick test_endpoint_integration ] );
    ]
