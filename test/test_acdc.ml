module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key
module Config = Acdc.Config
module Sender = Acdc.Sender
module Receiver = Acdc.Receiver
module Datapath = Vswitch.Datapath

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mss = 1000

let key = Flow_key.make ~src_ip:1 ~dst_ip:2 ~src_port:5000 ~dst_port:80
let rkey = Flow_key.reverse key

let config ?policy ?(log_only = false) ?(fack_only = false) ?(policing_slack = None) () =
  let base = Config.default ~mss in
  {
    base with
    Config.log_only;
    fack_only;
    policing_slack;
    policy = Option.value policy ~default:base.Config.policy;
  }

let syn () =
  Packet.make ~key ~seq:0 ~syn:true ~options:[ Packet.Window_scale 2 ] ~payload:0 ()

let syn_ack () =
  Packet.make ~key:rkey ~seq:0 ~syn:true ~has_ack:true ~ack:1
    ~options:[ Packet.Window_scale 2 ]
    ~payload:0 ()

let data ~seq ?(payload = mss) ?(ecn = Packet.Not_ect) () =
  Packet.make ~key ~seq ~ecn ~payload ()

let ack ?(ack = 1) ?(rwnd_field = 0xFFFF) ?pack () =
  let pkt = Packet.make ~key:rkey ~ack ~has_ack:true ~rwnd_field ~payload:0 () in
  (match pack with
  | Some (total, marked) ->
    Packet.set_option pkt (Packet.Pack { total_bytes = total; marked_bytes = marked })
  | None -> ());
  pkt

let fack ~total ~marked =
  Packet.make ~key:rkey
    ~options:[ Packet.Pack { total_bytes = total; marked_bytes = marked } ]
    ~payload:0 ()

let run_egress sender pkt = Sender.egress sender pkt ~inject:ignore
let run_ingress sender pkt = Sender.ingress sender pkt ~inject:ignore

(* Open a connection and push [segments] data segments through the sender
   module, so its tracking state is primed. *)
let primed_sender ?policy ?log_only ?fack_only ?policing_slack ?(segments = 10) () =
  let engine = Engine.create () in
  let sender = Sender.create engine (config ?policy ?log_only ?fack_only ?policing_slack ()) in
  ignore (run_egress sender (syn ()));
  ignore (run_ingress sender (syn_ack ()));
  for i = 0 to segments - 1 do
    ignore (run_egress sender (data ~seq:(1 + (i * mss)) ()))
  done;
  (engine, sender)

(* ------------------------------------------------------------------ *)
(* Sender module: connection tracking (§3.1)                           *)

let test_syn_creates_flow () =
  let engine = Engine.create () in
  let sender = Sender.create engine (config ()) in
  check_int "empty" 0 (Sender.tracked_flows sender);
  ignore (run_egress sender (syn ()));
  check_int "created" 1 (Sender.tracked_flows sender);
  check_bool "initial window is 10 segments" true
    (Sender.flow_window sender key = Some (10 * mss))

let test_pure_acks_create_no_state () =
  let engine = Engine.create () in
  let sender = Sender.create engine (config ()) in
  let pure_ack = Packet.make ~key ~ack:100 ~has_ack:true ~payload:0 () in
  ignore (run_egress sender pure_ack);
  check_int "no entry for a receiver-side ACK stream" 0 (Sender.tracked_flows sender)

let test_data_creates_flow_midstream () =
  let engine = Engine.create () in
  let sender = Sender.create engine (config ()) in
  ignore (run_egress sender (data ~seq:500 ()));
  check_int "mid-stream attach" 1 (Sender.tracked_flows sender)

let test_ect_forced_and_reserved_bit () =
  let _, sender = primed_sender ~segments:0 () in
  let plain = data ~seq:1 () in
  ignore (run_egress sender plain);
  check_bool "forced ECT" true (plain.Packet.ecn = Packet.Ect0);
  check_bool "vm was not ect" false plain.Packet.vm_ect;
  let ect = data ~seq:1001 ~ecn:Packet.Ect0 () in
  ignore (run_egress sender ect);
  check_bool "vm_ect recorded" true ect.Packet.vm_ect

(* ------------------------------------------------------------------ *)
(* Sender module: DCTCP control law (Fig. 5)                           *)

let test_clean_acks_grow_window () =
  let _, sender = primed_sender () in
  let w0 = Option.get (Sender.flow_window sender key) in
  ignore (run_ingress sender (ack ~ack:(1 + (2 * mss)) ~pack:(2 * mss, 0) ()));
  let w1 = Option.get (Sender.flow_window sender key) in
  check_bool "slow start growth" true (w1 > w0)

let test_marked_feedback_cuts_once_per_window () =
  let _, sender = primed_sender () in
  let w0 = Option.get (Sender.flow_window sender key) in
  (* alpha starts at 1 (Linux seeding): first congested window halves. *)
  ignore (run_ingress sender (ack ~ack:(1 + mss) ~pack:(mss, mss) ()));
  let w1 = Option.get (Sender.flow_window sender key) in
  check_int "halved at alpha=1" (w0 / 2) w1;
  (* Another marked ACK within the same window must not cut again. *)
  ignore (run_ingress sender (ack ~ack:(1 + (2 * mss)) ~pack:(2 * mss, 2 * mss) ()));
  let w2 = Option.get (Sender.flow_window sender key) in
  check_bool "no second cut in window" true (w2 >= w1)

let test_alpha_updates_per_window () =
  let _, sender = primed_sender () in
  check_bool "alpha starts at 1" true (Sender.flow_alpha sender key = Some 1.0);
  (* ACK an entire window of clean data: alpha decays by (1 - g). *)
  ignore (run_ingress sender (ack ~ack:(1 + (10 * mss)) ~pack:(10 * mss, 0) ()));
  (match Sender.flow_alpha sender key with
  | Some alpha -> Alcotest.(check (float 1e-9)) "decayed" (15.0 /. 16.0) alpha
  | None -> Alcotest.fail "flow lost");
  ()

let test_triple_dupack_is_loss () =
  let _, sender = primed_sender () in
  let w0 = Option.get (Sender.flow_window sender key) in
  (* Three duplicate ACKs at the same number: Fig. 5's loss branch sets
     alpha to max and cuts. *)
  for _ = 1 to 3 do
    ignore (run_ingress sender (ack ~ack:1 ()))
  done;
  check_bool "alpha forced to max" true (Sender.flow_alpha sender key = Some 1.0);
  let w1 = Option.get (Sender.flow_window sender key) in
  check_int "cut in half" (Stdlib.max (w0 / 2) mss) w1

let test_inactivity_timeout_inference () =
  let engine, sender = primed_sender () in
  (* No ACKs at all: the inactivity timer must infer a timeout and reset
     the window to one segment. *)
  Engine.run ~until:(Time_ns.ms 50) engine;
  check_bool "timeout inferred" true (Sender.inferred_timeouts sender >= 1);
  check_int "window collapsed to 1 MSS" mss (Option.get (Sender.flow_window sender key));
  Sender.shutdown sender

let test_priority_beta_zero_floors_window () =
  let policy _ = { Config.default_policy with beta = 0.0 } in
  let _, sender = primed_sender ~policy () in
  ignore (run_ingress sender (ack ~ack:(1 + mss) ~pack:(mss, mss) ()));
  (* beta = 0: factor (1 - alpha) = 0 at alpha = 1, bounded by the 1 MSS
     floor to avoid starvation (§3.4). *)
  check_int "floored" mss (Option.get (Sender.flow_window sender key))

let test_priority_beta_one_is_dctcp () =
  let policy _ = { Config.default_policy with beta = 1.0 } in
  let _, sender = primed_sender ~policy () in
  let w0 = Option.get (Sender.flow_window sender key) in
  ignore (run_ingress sender (ack ~ack:(1 + mss) ~pack:(mss, mss) ()));
  check_int "alpha/2 cut" (w0 / 2) (Option.get (Sender.flow_window sender key))

let test_max_rwnd_clamp () =
  let policy _ = { Config.default_policy with max_rwnd = Some (3 * mss) } in
  let _, sender = primed_sender ~policy () in
  check_int "clamped below computed window" (3 * mss)
    (Option.get (Sender.flow_window sender key))

let test_exempt_flows_left_untouched () =
  (* §3.4 exemption must be total: no ECT forcing, no ECE hiding — the
     tenant keeps its own congestion feedback loop. *)
  let policy _ = { Config.default_policy with enforce = false } in
  let _, sender = primed_sender ~policy ~segments:0 () in
  let seg = data ~seq:1 () in
  ignore (run_egress sender seg);
  check_bool "ECT not forced" false (Packet.is_ect seg);
  let feedback = ack ~ack:(1 + mss) () in
  feedback.Packet.ece <- true;
  ignore (run_ingress sender feedback);
  check_bool "ECE kept" true feedback.Packet.ece

let test_exempt_flows_skip_receiver_module () =
  let policy _ = { Config.default_policy with enforce = false } in
  let engine = Engine.create () in
  let receiver = Receiver.create engine { (config ()) with Config.policy } in
  ignore (Receiver.ingress receiver (syn ()) ~inject:ignore);
  let seg = data ~seq:1 ~ecn:Packet.Ce () in
  ignore (Receiver.ingress receiver seg ~inject:ignore);
  check_bool "CE kept for the tenant" true (seg.Packet.ecn = Packet.Ce);
  let pkt = Packet.make ~key:rkey ~ack:(1 + mss) ~has_ack:true ~payload:0 () in
  ignore (Receiver.egress receiver pkt ~inject:ignore);
  check_bool "no PACK on exempt flows" true (Packet.pack_info pkt = None)

let test_reno_like_ignores_ecn () =
  let policy _ = { Config.default_policy with algorithm = Config.Reno_like } in
  let _, sender = primed_sender ~policy () in
  let w0 = Option.get (Sender.flow_window sender key) in
  (* Marked bytes are ECN feedback: a Reno-like WAN assignment ignores it
     and keeps growing. *)
  ignore (run_ingress sender (ack ~ack:(1 + mss) ~pack:(mss, mss) ()));
  check_bool "no ECN cut" true (Option.get (Sender.flow_window sender key) >= w0)

let test_reno_like_halves_on_loss () =
  let policy _ = { Config.default_policy with algorithm = Config.Reno_like } in
  let _, sender = primed_sender ~policy () in
  let w0 = Option.get (Sender.flow_window sender key) in
  for _ = 1 to 3 do
    ignore (run_ingress sender (ack ~ack:1 ()))
  done;
  check_int "halved on triple dupack" (w0 / 2) (Option.get (Sender.flow_window sender key))

let test_retransmit_assist_injects_dupacks () =
  let engine = Engine.create () in
  let cfg = { (config ()) with Config.retransmit_assist = true } in
  let sender = Sender.create engine cfg in
  let injected = ref [] in
  Sender.set_vm_injector sender (fun pkt -> injected := pkt :: !injected);
  ignore (run_egress sender (syn ()));
  ignore (run_ingress sender (syn_ack ()));
  for i = 0 to 4 do
    ignore (run_egress sender (data ~seq:(1 + (i * mss)) ()))
  done;
  (* Silence: the inactivity timer infers a timeout and injects three
     duplicate ACKs to wake the tenant's fast retransmit. *)
  Engine.run ~until:(Time_ns.ms 30) engine;
  check_bool "assists counted" true (Sender.retransmit_assists sender >= 1);
  let first_burst =
    match List.rev !injected with a :: b :: c :: _ -> [ a; b; c ] | _ -> []
  in
  check_int "three dupacks" 3 (List.length first_burst);
  List.iter
    (fun (p : Packet.t) ->
      check_bool "ack at snd_una" true (p.Packet.ack = 1);
      check_bool "ack flag" true p.Packet.has_ack;
      check_bool "toward the VM" true (Flow_key.equal p.Packet.key rkey))
    first_burst;
  (* All three must carry the same window so the VM's dupack counting is
     not defeated by a window update. *)
  (match first_burst with
  | [ a; b; c ] ->
    check_int "same window a/b" a.Packet.rwnd_field b.Packet.rwnd_field;
    check_int "same window b/c" b.Packet.rwnd_field c.Packet.rwnd_field
  | _ -> ());
  Sender.shutdown sender

let test_no_assist_without_injector () =
  let engine = Engine.create () in
  let cfg = { (config ()) with Config.retransmit_assist = true } in
  let sender = Sender.create engine cfg in
  ignore (run_egress sender (syn ()));
  ignore (run_egress sender (data ~seq:1 ()));
  Engine.run ~until:(Time_ns.ms 30) engine;
  (* No injector wired: the timeout is still inferred, nothing crashes. *)
  check_bool "timeout inferred" true (Sender.inferred_timeouts sender >= 1);
  check_int "no assists" 0 (Sender.retransmit_assists sender);
  Sender.shutdown sender

let test_custom_cubic_in_vswitch () =
  let policy _ =
    { Config.default_policy with algorithm = Config.Custom Tcp.Cubic.factory }
  in
  let _, sender = primed_sender ~policy () in
  let w0 = Option.get (Sender.flow_window sender key) in
  (* Loss: CUBIC's beta = 0.7 cut, not DCTCP's alpha-based halving. *)
  for _ = 1 to 3 do
    ignore (run_ingress sender (ack ~ack:1 ()))
  done;
  let w1 = Option.get (Sender.flow_window sender key) in
  check_int "cubic cut factor" (7 * w0 / 10) w1

let test_custom_classic_ecn_once_per_window () =
  let policy _ =
    { Config.default_policy with algorithm = Config.Custom Tcp.Reno.factory }
  in
  let _, sender = primed_sender ~policy () in
  let w0 = Option.get (Sender.flow_window sender key) in
  (* Classic stacks take ECN as a once-per-window halving. *)
  ignore (run_ingress sender (ack ~ack:(1 + mss) ~pack:(mss, mss) ()));
  let w1 = Option.get (Sender.flow_window sender key) in
  check_bool "halved about once" true (w1 <= (w0 / 2) + mss);
  ignore (run_ingress sender (ack ~ack:(1 + (2 * mss)) ~pack:(2 * mss, 2 * mss) ()));
  check_bool "no second cut this window" true
    (Option.get (Sender.flow_window sender key) >= w1)

let test_custom_dctcp_halves_marked_window () =
  (* Tcp.Dctcp_cc under the Custom path: a fully-marked window at alpha = 1
     ends in a halving, like the native Fig. 5 law (the host-stack variant
     applies its cut at the window boundary rather than on first mark). *)
  let policy _ =
    { Config.default_policy with algorithm = Config.Custom Tcp.Dctcp_cc.factory }
  in
  let _, sender = primed_sender ~policy () in
  let w0 = Option.get (Sender.flow_window sender key) in
  for i = 1 to 10 do
    ignore (run_ingress sender (ack ~ack:(1 + (i * mss)) ~pack:(i * mss, i * mss) ()))
  done;
  check_int "halved after one marked window" (w0 / 2)
    (Option.get (Sender.flow_window sender key))

let test_vswitch_rtt_estimation () =
  let engine = Engine.create () in
  let sender = Sender.create engine (config ()) in
  ignore (run_egress sender (syn ()));
  ignore (run_ingress sender (syn_ack ()));
  (* Data at t=0, ACK arriving 250 us later: the vSwitch's srtt estimate
     feeds delay-based custom algorithms. *)
  ignore (run_egress sender (data ~seq:1 ()));
  Engine.schedule engine ~at:(Time_ns.us 250) (fun () ->
      ignore (run_ingress sender (ack ~ack:(1 + mss) ~pack:(mss, 0) ())));
  (* Bounded run: the flow table's periodic GC timer re-arms forever. *)
  Engine.run ~until:(Time_ns.ms 1) engine;
  (* No direct accessor for srtt; exercise it through a delay-based custom
     algorithm not crashing and the flow still tracked. *)
  check_bool "flow alive" true (Sender.flow_window sender key <> None);
  Sender.shutdown sender

(* ------------------------------------------------------------------ *)
(* Sender module: enforcement (§3.3)                                   *)

let test_rwnd_rewrite_with_wscale () =
  let _, sender = primed_sender () in
  let pkt = ack ~ack:1 ~rwnd_field:0xFFFF () in
  ignore (run_ingress sender pkt);
  (* window 10 * 1000 at wscale 2 -> field 2500. *)
  check_int "rewritten, scaled" (10 * mss lsr 2) pkt.Packet.rwnd_field;
  check_bool "rewrites counted" true (Sender.rwnd_rewrites sender >= 1)

let test_rwnd_rewrite_only_shrinks () =
  let _, sender = primed_sender () in
  (* The VM's receiver advertises less than AC/DC's window: preserved. *)
  let pkt = ack ~ack:1 ~rwnd_field:100 () in
  ignore (run_ingress sender pkt);
  check_int "original smaller window preserved" 100 pkt.Packet.rwnd_field

let test_log_only_does_not_rewrite () =
  let _, sender = primed_sender ~log_only:true () in
  let pkt = ack ~ack:1 ~rwnd_field:0xFFFF () in
  ignore (run_ingress sender pkt);
  check_int "untouched" 0xFFFF pkt.Packet.rwnd_field;
  check_int "no rewrites" 0 (Sender.rwnd_rewrites sender)

let test_unenforced_policy_skips_rewrite () =
  let policy _ = { Config.default_policy with enforce = false } in
  let _, sender = primed_sender ~policy () in
  let pkt = ack ~ack:1 ~rwnd_field:0xFFFF () in
  ignore (run_ingress sender pkt);
  check_int "untouched" 0xFFFF pkt.Packet.rwnd_field

let test_ece_hidden_from_vm () =
  let _, sender = primed_sender () in
  let pkt = ack ~ack:(1 + mss) ~pack:(mss, mss) () in
  pkt.Packet.ece <- true;
  ignore (run_ingress sender pkt);
  check_bool "ECE stripped" false pkt.Packet.ece

let test_pack_stripped_before_vm () =
  let _, sender = primed_sender () in
  let pkt = ack ~ack:(1 + mss) ~pack:(mss, 0) () in
  ignore (run_ingress sender pkt);
  check_bool "PACK option removed" true (Packet.pack_info pkt = None)

let test_fack_consumed_and_dropped () =
  let _, sender = primed_sender () in
  let w0 = Option.get (Sender.flow_window sender key) in
  let verdict = run_ingress sender (fack ~total:mss ~marked:mss) in
  check_bool "FACK dropped" true (verdict = Datapath.Drop);
  check_bool "feedback still applied" true
    (Option.get (Sender.flow_window sender key) < w0)

let test_window_hook_fires () =
  let _, sender = primed_sender () in
  let calls = ref [] in
  Sender.set_window_hook sender (fun k _ w -> calls := (k, w) :: !calls);
  ignore (run_ingress sender (ack ~ack:(1 + mss) ~pack:(mss, 0) ()));
  match !calls with
  | [ (k, w) ] ->
    check_bool "keyed by data direction" true (Flow_key.equal k key);
    check_bool "window positive" true (w > 0)
  | _ -> Alcotest.fail "expected one hook call"

let test_window_update_injection () =
  let _, sender = primed_sender () in
  let injected = ref None in
  check_bool "known flow" true (Sender.window_update sender key ~to_vm:(fun p -> injected := Some p));
  (match !injected with
  | Some p ->
    check_bool "ack flag" true p.Packet.has_ack;
    check_bool "addressed to the VM direction" true (Flow_key.equal p.Packet.key rkey);
    check_int "carries enforced window" (10 * mss lsr 2) p.Packet.rwnd_field
  | None -> Alcotest.fail "no packet injected");
  check_bool "unknown flow refused" false
    (Sender.window_update sender (Flow_key.make ~src_ip:9 ~dst_ip:9 ~src_port:1 ~dst_port:1)
       ~to_vm:ignore)

(* ------------------------------------------------------------------ *)
(* Sender module: policing                                             *)

let test_policing_drops_excess () =
  let _, sender = primed_sender ~policing_slack:(Some 0) ~segments:0 () in
  (* Window is 10 MSS; data within it passes... *)
  let inside = data ~seq:1 ~payload:mss () in
  check_bool "conforming data passes" true (run_egress sender inside = Datapath.Pass);
  (* ...data far beyond snd_una + window is dropped. *)
  let outside = data ~seq:(1 + (20 * mss)) ~payload:mss () in
  check_bool "excess dropped" true (run_egress sender outside = Datapath.Drop);
  check_int "counted" 1 (Sender.policer_drops sender)

let test_policing_disabled_by_default () =
  let _, sender = primed_sender ~segments:0 () in
  let outside = data ~seq:(1 + (20 * mss)) ~payload:mss () in
  check_bool "no policing without config" true (run_egress sender outside = Datapath.Pass)

(* ------------------------------------------------------------------ *)
(* Receiver module (§3.2)                                              *)

let primed_receiver ?(cfg = config ()) () =
  let engine = Engine.create () in
  let receiver = Receiver.create engine cfg in
  ignore (Receiver.ingress receiver (syn ()) ~inject:ignore);
  (engine, receiver)

let test_receiver_counts_bytes () =
  let _, receiver = primed_receiver () in
  ignore (Receiver.ingress receiver (data ~seq:1 ~ecn:Packet.Ect0 ()) ~inject:ignore);
  ignore (Receiver.ingress receiver (data ~seq:1001 ~ecn:Packet.Ce ()) ~inject:ignore);
  (match Receiver.marked_bytes receiver key with
  | Some (total, marked) ->
    check_int "total" (2 * mss) total;
    check_int "marked" mss marked
  | None -> Alcotest.fail "flow not tracked");
  ()

let test_receiver_strips_ecn () =
  let _, receiver = primed_receiver () in
  let pkt = data ~seq:1 ~ecn:Packet.Ce () in
  pkt.Packet.vm_ect <- false;
  ignore (Receiver.ingress receiver pkt ~inject:ignore);
  check_bool "CE hidden from a non-ECN VM" true (pkt.Packet.ecn = Packet.Not_ect);
  let pkt2 = data ~seq:1001 ~ecn:Packet.Ce () in
  pkt2.Packet.vm_ect <- true;
  ignore (Receiver.ingress receiver pkt2 ~inject:ignore);
  check_bool "original ECT restored for an ECN VM" true (pkt2.Packet.ecn = Packet.Ect0);
  check_bool "reserved bit cleared" false pkt2.Packet.vm_ect

let test_receiver_attaches_pack () =
  let _, receiver = primed_receiver () in
  ignore (Receiver.ingress receiver (data ~seq:1 ~ecn:Packet.Ce ()) ~inject:ignore);
  let pkt = Packet.make ~key:rkey ~ack:(1 + mss) ~has_ack:true ~payload:0 () in
  ignore (Receiver.egress receiver pkt ~inject:ignore);
  (match Packet.pack_info pkt with
  | Some (total, marked) ->
    check_int "cumulative total" mss total;
    check_int "cumulative marked" mss marked
  | None -> Alcotest.fail "no PACK attached");
  check_int "packs counted" 1 (Receiver.packs_sent receiver)

let test_receiver_fack_when_oversized () =
  (* A piggy-backed ACK that would exceed the MTU forces a dedicated
     FACK (the TSO hazard of §3.2). *)
  let _, receiver = primed_receiver () in
  ignore (Receiver.ingress receiver (data ~seq:1 ()) ~inject:ignore);
  let big = Packet.make ~key:rkey ~ack:(1 + mss) ~has_ack:true ~payload:(mss + 40) () in
  let injected = ref [] in
  ignore (Receiver.egress receiver big ~inject:(fun p -> injected := p :: !injected));
  check_bool "no PACK on the oversized segment" true (Packet.pack_info big = None);
  (match !injected with
  | [ f ] ->
    check_bool "FACK carries the feedback" true (Packet.pack_info f <> None);
    check_bool "FACK has no ACK flag" false f.Packet.has_ack
  | _ -> Alcotest.fail "expected exactly one FACK");
  check_int "facks counted" 1 (Receiver.facks_sent receiver)

(* The PACK-vs-FACK threshold (§3.2): the MTU is [mss + 40] and the link
   layer adds 54 bytes, so an ACK-bearing segment takes the 8-byte PACK
   while its wire size plus 8 is at most [mss + 94].  The largest segment
   that fits piggy-backs; one byte more sends a dedicated FACK. *)
let test_receiver_pack_threshold () =
  let segment payload = Packet.make ~key:rkey ~ack:(1 + mss) ~has_ack:true ~payload () in
  let largest = mss + 94 - 8 - Packet.wire_size (segment 0) in
  let send pkt =
    let _, receiver = primed_receiver () in
    ignore (Receiver.ingress receiver (data ~seq:1 ()) ~inject:ignore);
    let injected = ref 0 in
    ignore (Receiver.egress receiver pkt ~inject:(fun _ -> incr injected));
    (receiver, !injected)
  in
  let fits = segment largest in
  check_int "wire size + 8 = mss + 94" (mss + 94) (Packet.wire_size fits + 8);
  let receiver, injected = send fits in
  check_bool "the largest fitting segment carries the PACK" true (Packet.pack_info fits <> None);
  check_int "no FACK" 0 injected;
  check_int "PACK counted" 1 (Receiver.packs_sent receiver);
  let over = segment (largest + 1) in
  let receiver, injected = send over in
  check_bool "one byte more carries no PACK" true (Packet.pack_info over = None);
  check_int "a FACK instead" 1 injected;
  check_int "FACK counted" 1 (Receiver.facks_sent receiver)

let test_receiver_fack_only_mode () =
  let _, receiver = primed_receiver ~cfg:(config ~fack_only:true ()) () in
  ignore (Receiver.ingress receiver (data ~seq:1 ()) ~inject:ignore);
  let pkt = Packet.make ~key:rkey ~ack:(1 + mss) ~has_ack:true ~payload:0 () in
  let injected = ref [] in
  ignore (Receiver.egress receiver pkt ~inject:(fun p -> injected := p :: !injected));
  check_bool "never piggy-backs" true (Packet.pack_info pkt = None);
  check_int "dedicated FACK sent" 1 (List.length !injected)

(* ------------------------------------------------------------------ *)
(* Assembled processor                                                 *)

let test_processor_end_to_end_feedback () =
  (* One engine, two datapaths (sender host and receiver host); verify the
     full PACK round trip through the assembled processors. *)
  let engine = Engine.create () in
  let cfg = config () in
  let sender_host = Acdc.create engine cfg and receiver_host = Acdc.create engine cfg in
  let sdp = Datapath.create () and rdp = Datapath.create () in
  Acdc.attach sender_host sdp;
  Acdc.attach receiver_host rdp;
  let to_receiver pkt = Datapath.process_ingress rdp pkt ~deliver:ignore in
  let to_sender pkt = Datapath.process_ingress sdp pkt ~deliver:ignore in
  (* SYN out through the sender host, into the receiver host. *)
  Datapath.process_egress sdp (syn ()) ~emit:to_receiver;
  Datapath.process_egress rdp (syn_ack ()) ~emit:to_sender;
  (* Data, CE-marked in "the network". *)
  let seg = data ~seq:1 () in
  Datapath.process_egress sdp seg ~emit:(fun pkt ->
      pkt.Packet.ecn <- Packet.Ce;
      to_receiver pkt);
  (* The receiver VM acknowledges; its vSwitch adds PACK; the sender's
     vSwitch consumes it and cuts. *)
  let the_ack = Packet.make ~key:rkey ~ack:(1 + mss) ~has_ack:true ~rwnd_field:0xFFFF ~payload:0 () in
  let delivered = ref None in
  Datapath.process_egress rdp the_ack ~emit:(fun pkt ->
      Datapath.process_ingress sdp pkt ~deliver:(fun p -> delivered := Some p));
  (match !delivered with
  | Some p ->
    check_bool "PACK stripped before the VM" true (Packet.pack_info p = None);
    check_bool "window was rewritten" true (p.Packet.rwnd_field < 0xFFFF)
  | None -> Alcotest.fail "ACK lost");
  let w = Option.get (Sender.flow_window (Acdc.sender sender_host) key) in
  check_int "marked feedback halved the window" (5 * mss) w;
  Acdc.shutdown sender_host;
  Acdc.shutdown receiver_host

(* Window invariants under arbitrary feedback: the enforced window stays
   within [min_window, 2^30] and alpha within [0, 1]. *)
let prop_window_and_alpha_invariants =
  QCheck.Test.make ~name:"enforced window and alpha stay in bounds" ~count:100
    QCheck.(pair (int_range 1 1000) (list_of_size Gen.(int_range 1 40) (int_bound 4)))
    (fun (seed, events) ->
      let rng = Eventsim.Rng.create ~seed in
      let _, sender = primed_sender ~segments:20 () in
      let acked = ref 1 and total = ref 0 and marked = ref 0 in
      List.iter
        (fun ev ->
          match ev with
          | 0 ->
            (* clean progress *)
            acked := !acked + mss;
            total := !total + mss;
            ignore (run_ingress sender (ack ~ack:!acked ~pack:(!total, !marked) ()))
          | 1 ->
            (* marked progress *)
            acked := !acked + mss;
            total := !total + mss;
            marked := !marked + mss;
            ignore (run_ingress sender (ack ~ack:!acked ~pack:(!total, !marked) ()))
          | 2 -> ignore (run_ingress sender (ack ~ack:!acked ())) (* dupack *)
          | 3 -> ignore (run_ingress sender (fack ~total:!total ~marked:!marked))
          | _ ->
            (* fresh data extends snd_nxt *)
            let seq = 1 + (Eventsim.Rng.int rng 50 * mss) in
            ignore (run_egress sender (data ~seq ())))
        events;
      match (Sender.flow_window sender key, Sender.flow_alpha sender key) with
      | Some w, Some alpha ->
        w >= mss && w < 1 lsl 30 && alpha >= 0.0 && alpha <= 1.0
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* INT feedback channel                                                *)

let test_int_feedback_subscriptions () =
  Acdc.Int_feedback.reset ();
  let other = Flow_key.make ~src_ip:9 ~dst_ip:10 ~src_port:1 ~dst_port:2 in
  let hop =
    {
      Dcpkt.Int_meta.hop_id = 0;
      port = 0;
      ingress_ns = 100;
      egress_ns = 300;
      qbytes = 512;
      svc_bps = 10_000_000_000;
    }
  in
  let filtered = ref 0 and all = ref 0 in
  let sub_f = Acdc.Int_feedback.subscribe ~flow:key (fun ~now:_ ~flow:_ _ -> incr filtered) in
  let sub_a = Acdc.Int_feedback.subscribe (fun ~now:_ ~flow:_ _ -> incr all) in
  check_int "two subscribers" 2 (Acdc.Int_feedback.subscriber_count ());
  let dispatch flow = Acdc.Int_feedback.dispatch ~now:0 ~flow [| hop |] in
  dispatch key;
  dispatch rkey;
  dispatch other;
  (* Flow matching ignores orientation: ACK-borne telemetry arrives
     under the reversed 4-tuple but belongs to the same subscription. *)
  check_int "filtered sees both directions only" 2 !filtered;
  check_int "unfiltered sees everything" 3 !all;
  Acdc.Int_feedback.unsubscribe sub_f;
  dispatch key;
  check_int "unsubscribed stops delivery" 2 !filtered;
  check_int "survivor still delivered" 4 !all;
  Acdc.Int_feedback.unsubscribe sub_a;
  check_int "all unsubscribed" 0 (Acdc.Int_feedback.subscriber_count ());
  Acdc.Int_feedback.reset ()

let acdc_qtests = List.map QCheck_alcotest.to_alcotest [ prop_window_and_alpha_invariants ]

let () =
  Alcotest.run "acdc"
    [
      ( "tracking",
        [
          Alcotest.test_case "syn creates flow" `Quick test_syn_creates_flow;
          Alcotest.test_case "pure acks create no state" `Quick test_pure_acks_create_no_state;
          Alcotest.test_case "mid-stream attach" `Quick test_data_creates_flow_midstream;
          Alcotest.test_case "ect forcing + reserved bit" `Quick test_ect_forced_and_reserved_bit;
        ] );
      ( "control law",
        [
          Alcotest.test_case "clean acks grow" `Quick test_clean_acks_grow_window;
          Alcotest.test_case "cut once per window" `Quick
            test_marked_feedback_cuts_once_per_window;
          Alcotest.test_case "alpha EWMA per window" `Quick test_alpha_updates_per_window;
          Alcotest.test_case "triple dupack = loss" `Quick test_triple_dupack_is_loss;
          Alcotest.test_case "timeout inference" `Quick test_inactivity_timeout_inference;
          Alcotest.test_case "beta=0 floors" `Quick test_priority_beta_zero_floors_window;
          Alcotest.test_case "beta=1 is DCTCP" `Quick test_priority_beta_one_is_dctcp;
          Alcotest.test_case "max_rwnd clamp" `Quick test_max_rwnd_clamp;
          Alcotest.test_case "exempt flows untouched" `Quick test_exempt_flows_left_untouched;
          Alcotest.test_case "exempt flows skip receiver" `Quick
            test_exempt_flows_skip_receiver_module;
          Alcotest.test_case "reno-like ignores ECN" `Quick test_reno_like_ignores_ecn;
          Alcotest.test_case "reno-like halves on loss" `Quick test_reno_like_halves_on_loss;
          Alcotest.test_case "retransmit assist" `Quick test_retransmit_assist_injects_dupacks;
          Alcotest.test_case "assist without injector" `Quick test_no_assist_without_injector;
          Alcotest.test_case "custom: vswitch cubic" `Quick test_custom_cubic_in_vswitch;
          Alcotest.test_case "custom: classic ecn gating" `Quick
            test_custom_classic_ecn_once_per_window;
          Alcotest.test_case "custom: dctcp halves marked window" `Quick
            test_custom_dctcp_halves_marked_window;
          Alcotest.test_case "vswitch rtt estimation" `Quick test_vswitch_rtt_estimation;
        ] );
      ( "enforcement",
        [
          Alcotest.test_case "rewrite with wscale" `Quick test_rwnd_rewrite_with_wscale;
          Alcotest.test_case "only shrinks" `Quick test_rwnd_rewrite_only_shrinks;
          Alcotest.test_case "log-only passive" `Quick test_log_only_does_not_rewrite;
          Alcotest.test_case "per-flow exemption" `Quick test_unenforced_policy_skips_rewrite;
          Alcotest.test_case "ECE hidden" `Quick test_ece_hidden_from_vm;
          Alcotest.test_case "PACK stripped" `Quick test_pack_stripped_before_vm;
          Alcotest.test_case "FACK consumed + dropped" `Quick test_fack_consumed_and_dropped;
          Alcotest.test_case "window hook" `Quick test_window_hook_fires;
          Alcotest.test_case "window update injection" `Quick test_window_update_injection;
        ] );
      ( "policing",
        [
          Alcotest.test_case "drops excess" `Quick test_policing_drops_excess;
          Alcotest.test_case "off by default" `Quick test_policing_disabled_by_default;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "counts bytes" `Quick test_receiver_counts_bytes;
          Alcotest.test_case "strips ECN" `Quick test_receiver_strips_ecn;
          Alcotest.test_case "attaches PACK" `Quick test_receiver_attaches_pack;
          Alcotest.test_case "FACK on MTU overflow" `Quick test_receiver_fack_when_oversized;
          Alcotest.test_case "PACK/FACK threshold" `Quick test_receiver_pack_threshold;
          Alcotest.test_case "fack-only mode" `Quick test_receiver_fack_only_mode;
        ] );
      ( "processor",
        [ Alcotest.test_case "end-to-end feedback" `Quick test_processor_end_to_end_feedback ] );
      ( "int feedback",
        [ Alcotest.test_case "subscriptions" `Quick test_int_feedback_subscriptions ] );
      ("properties", acdc_qtests);
    ]
