module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key
module Endpoint = Tcp.Endpoint
module Cc = Tcp.Cc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* A direct loopback pipe between two endpoints, with fault injection.  *)

type pipe = {
  engine : Engine.t;
  client : Endpoint.t;
  server : Endpoint.t;
  mutable drop : Packet.t -> bool;
  mutable mangle : Packet.t -> unit;
}

let make_pair ?(config = Endpoint.default_config) ?server_config ?(delay = Time_ns.us 20) () =
  let engine = Engine.create () in
  let key = Flow_key.make ~src_ip:1 ~dst_ip:2 ~src_port:5000 ~dst_port:80 in
  let server_config = Option.value server_config ~default:config in
  let pipe_ref = ref None in
  let send_to input pkt =
    match !pipe_ref with
    | None -> ()
    | Some p ->
      if not (p.drop pkt) then begin
        p.mangle pkt;
        Engine.schedule_after engine ~delay (fun () -> input pkt)
      end
  in
  let rec client_out pkt = send_to (fun p -> Endpoint.input (server ()) p) pkt
  and server_out pkt = send_to (fun p -> Endpoint.input (client ()) p) pkt
  and endpoints =
    lazy
      (let c = Endpoint.create_client engine config ~key ~out:client_out in
       let s =
         Endpoint.create_server engine server_config ~key:(Flow_key.reverse key) ~out:server_out
       in
       (c, s))
  and client () = fst (Lazy.force endpoints)
  and server () = snd (Lazy.force endpoints) in
  let pipe =
    {
      engine;
      client = client ();
      server = server ();
      drop = (fun _ -> false);
      mangle = ignore;
    }
  in
  pipe_ref := Some pipe;
  pipe

let establish pipe =
  Endpoint.connect pipe.client;
  Engine.run ~until:(Time_ns.ms 1) pipe.engine

(* ------------------------------------------------------------------ *)
(* Connection lifecycle                                                *)

let test_handshake () =
  let pipe = make_pair () in
  establish pipe;
  check_bool "client established" true (Endpoint.state pipe.client = Endpoint.Established);
  check_bool "server established" true (Endpoint.state pipe.server = Endpoint.Established)

let test_message_transfer () =
  let pipe = make_pair () in
  establish pipe;
  let fct = ref None in
  Endpoint.send_message pipe.client ~bytes:100_000 ~on_complete:(fun t -> fct := Some t);
  Engine.run ~until:(Time_ns.ms 100) pipe.engine;
  check_int "all bytes acked" 100_000 (Endpoint.bytes_acked pipe.client);
  check_bool "fct recorded" true (!fct <> None);
  check_bool "fct positive" true (Option.get !fct > 0)

let test_multiple_messages_fifo () =
  let pipe = make_pair () in
  establish pipe;
  let completions = ref [] in
  List.iter
    (fun i ->
      Endpoint.send_message pipe.client ~bytes:10_000 ~on_complete:(fun _ ->
          completions := i :: !completions))
    [ 1; 2; 3 ];
  Engine.run ~until:(Time_ns.ms 100) pipe.engine;
  Alcotest.(check (list int)) "messages complete in order" [ 1; 2; 3 ] (List.rev !completions)

let test_fin_close () =
  let pipe = make_pair () in
  establish pipe;
  Endpoint.send_message pipe.client ~bytes:5_000 ~on_complete:ignore;
  Endpoint.close pipe.client;
  Engine.run ~until:(Time_ns.ms 100) pipe.engine;
  check_bool "client closed" true (Endpoint.state pipe.client = Endpoint.Closed)

let test_slow_start_growth () =
  let pipe = make_pair () in
  establish pipe;
  let init = Endpoint.cwnd pipe.client in
  Endpoint.send_message pipe.client ~bytes:2_000_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 50) pipe.engine;
  check_bool "cwnd grew" true (Endpoint.cwnd pipe.client > init)

let test_rtt_sampling () =
  let delay = Time_ns.us 100 in
  let pipe = make_pair ~delay () in
  establish pipe;
  let samples = ref [] in
  Endpoint.set_rtt_hook pipe.client (fun rtt -> samples := rtt :: !samples);
  Endpoint.send_message pipe.client ~bytes:50_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 100) pipe.engine;
  check_bool "samples taken" true (!samples <> []);
  List.iter
    (fun rtt -> check_bool "rtt at least 2x one-way delay" true (rtt >= 2 * delay))
    !samples

(* ------------------------------------------------------------------ *)
(* Loss recovery                                                       *)

let test_fast_retransmit () =
  let pipe = make_pair () in
  establish pipe;
  (* Drop exactly one mid-window data packet. *)
  let dropped = ref false in
  let count = ref 0 in
  pipe.drop <-
    (fun pkt ->
      if pkt.Packet.payload > 0 then incr count;
      if !count = 3 && not !dropped then begin
        dropped := true;
        true
      end
      else false);
  Endpoint.send_message pipe.client ~bytes:500_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 200) pipe.engine;
  check_bool "one packet was dropped" true !dropped;
  check_int "all bytes acked anyway" 500_000 (Endpoint.bytes_acked pipe.client);
  check_bool "recovered by retransmission" true (Endpoint.retransmissions pipe.client >= 1);
  check_int "without an RTO" 0 (Endpoint.timeouts pipe.client)

let test_rto_on_silence () =
  let pipe = make_pair () in
  establish pipe;
  (* Black-hole a whole window of data once. *)
  let blackout = ref true in
  pipe.drop <- (fun pkt -> !blackout && pkt.Packet.payload > 0);
  Endpoint.send_message pipe.client ~bytes:50_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 5) pipe.engine;
  blackout := false;
  Engine.run ~until:(Time_ns.ms 200) pipe.engine;
  check_bool "timeout fired" true (Endpoint.timeouts pipe.client >= 1);
  check_int "transfer still completed" 50_000 (Endpoint.bytes_acked pipe.client)

let test_sack_recovery_mass_drop () =
  let pipe = make_pair () in
  establish pipe;
  (* Drop ten consecutive data packets mid-flow: SACK recovery should fill
     all holes without waiting out ten RTTs. *)
  let count = ref 0 in
  pipe.drop <-
    (fun pkt ->
      if pkt.Packet.payload > 0 then begin
        incr count;
        !count >= 20 && !count < 30
      end
      else false);
  Endpoint.send_message pipe.client ~bytes:2_000_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 300) pipe.engine;
  check_int "all bytes acked" 2_000_000 (Endpoint.bytes_acked pipe.client);
  check_bool "multiple holes retransmitted" true (Endpoint.retransmissions pipe.client >= 5)

let test_reordering_tolerance () =
  let pipe = make_pair () in
  establish pipe;
  (* Delay (rather than drop) every 7th data packet by an extra 30 us:
     reordering must not break delivery. *)
  let count = ref 0 in
  let engine = pipe.engine in
  let held = ref [] in
  pipe.drop <-
    (fun pkt ->
      if pkt.Packet.payload > 0 then begin
        incr count;
        if !count mod 7 = 0 then begin
          held := pkt :: !held;
          Engine.schedule_after engine ~delay:(Time_ns.us 50) (fun () ->
              Endpoint.input pipe.server pkt);
          true (* swallowed here, delivered late above *)
        end
        else false
      end
      else false);
  Endpoint.send_message pipe.client ~bytes:1_000_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 300) pipe.engine;
  check_int "all bytes acked" 1_000_000 (Endpoint.bytes_acked pipe.client)

(* ------------------------------------------------------------------ *)
(* Flow control                                                        *)

let test_window_scaling_advertisement () =
  let config = { Endpoint.default_config with rcv_buf = 4 * 1024 * 1024; wscale = 9 } in
  let pipe = make_pair ~config () in
  establish pipe;
  (* SYN windows are unscaled (RFC 7323)... *)
  check_int "unscaled during handshake" 65535 (Endpoint.peer_rwnd pipe.client);
  (* ...but the first real ACK carries the scaled advertisement:
     (buf >> 9) << 9 = buf for multiples of 512. *)
  Endpoint.send_message pipe.client ~bytes:10_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 10) pipe.engine;
  check_int "peer window" (4 * 1024 * 1024) (Endpoint.peer_rwnd pipe.client)

let test_rwnd_limits_inflight () =
  let small = 3 * Endpoint.default_config.Endpoint.mss in
  let server_config = { Endpoint.default_config with rcv_buf = small; wscale = 0 } in
  let pipe = make_pair ~server_config () in
  establish pipe;
  Endpoint.send_message pipe.client ~bytes:1_000_000 ~on_complete:ignore;
  let violations = ref 0 in
  let rec monitor () =
    let inflight = Endpoint.snd_nxt pipe.client - Endpoint.snd_una pipe.client in
    if inflight > small then incr violations;
    Engine.schedule_after pipe.engine ~delay:(Time_ns.us 50) monitor
  in
  monitor ();
  Engine.run ~until:(Time_ns.ms 20) pipe.engine;
  check_int "never exceeds advertised window" 0 !violations;
  check_bool "made progress" true (Endpoint.bytes_acked pipe.client > 0)

let test_ignore_rwnd_violates () =
  let small = 3 * Endpoint.default_config.Endpoint.mss in
  let config = { Endpoint.default_config with ignore_rwnd = true } in
  let server_config = { Endpoint.default_config with rcv_buf = small; wscale = 0 } in
  let pipe = make_pair ~config ~server_config () in
  establish pipe;
  Endpoint.send_message pipe.client ~bytes:1_000_000 ~on_complete:ignore;
  let violated = ref false in
  let rec monitor () =
    let inflight = Endpoint.snd_nxt pipe.client - Endpoint.snd_una pipe.client in
    if inflight > small then violated := true;
    Engine.schedule_after pipe.engine ~delay:(Time_ns.us 20) monitor
  in
  monitor ();
  Engine.run ~until:(Time_ns.ms 5) pipe.engine;
  check_bool "non-conforming stack exceeds the window" true !violated

let test_sub_mss_window_progress () =
  (* A receive window smaller than one MSS must still allow progress via a
     short segment (AC/DC's 1-byte-granular windows rely on this). *)
  let config = { Endpoint.default_config with mss = 9000 } in
  let server_config = { config with rcv_buf = 4096; wscale = 0 } in
  let pipe = make_pair ~config ~server_config () in
  establish pipe;
  Endpoint.send_message pipe.client ~bytes:50_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 200) pipe.engine;
  check_bool "progresses under tiny window" true (Endpoint.bytes_acked pipe.client >= 50_000)

let test_max_cwnd_clamp () =
  let clamp = 2 * Endpoint.default_config.Endpoint.mss in
  let config = { Endpoint.default_config with max_cwnd = Some clamp } in
  let pipe = make_pair ~config () in
  establish pipe;
  Endpoint.send_message pipe.client ~bytes:1_000_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 50) pipe.engine;
  check_bool "cwnd never exceeds clamp" true (Endpoint.cwnd pipe.client <= clamp)

let test_delayed_ack_halves_ack_count () =
  let count_acks config =
    let pipe = make_pair ~server_config:config () in
    establish pipe;
    let acks = ref 0 in
    pipe.mangle <-
      (fun pkt ->
        if pkt.Packet.has_ack && pkt.Packet.payload = 0 && pkt.Packet.ack > 1 then incr acks);
    Endpoint.send_message pipe.client ~bytes:1_000_000 ~on_complete:ignore;
    Engine.run ~until:(Time_ns.ms 100) pipe.engine;
    Alcotest.(check int) "transfer complete" 1_000_000 (Endpoint.bytes_acked pipe.client);
    !acks
  in
  let immediate = count_acks Endpoint.default_config in
  let delayed = count_acks { Endpoint.default_config with delayed_ack = true } in
  check_bool "materially fewer acks" true (delayed * 3 < immediate * 2);
  check_bool "still enough acks to clock" true (delayed > 10)

let test_delayed_ack_immediate_on_ce () =
  let config =
    { Endpoint.default_config with delayed_ack = true; ecn_capable = true; accurate_ecn_echo = true }
  in
  let pipe = make_pair ~config () in
  establish pipe;
  (* Mark everything CE: every segment must be acknowledged immediately,
     so the ACK count matches the no-delack case. *)
  let data_segs = ref 0 and acks = ref 0 in
  pipe.mangle <-
    (fun pkt ->
      if pkt.Packet.payload > 0 then begin
        incr data_segs;
        if Packet.is_ect pkt then pkt.Packet.ecn <- Packet.Ce
      end
      else if pkt.Packet.has_ack && pkt.Packet.ack > 1 then incr acks);
  Endpoint.send_message pipe.client ~bytes:300_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 100) pipe.engine;
  check_bool "one ack per CE segment" true (!acks >= !data_segs)

let test_delayed_ack_timer_flushes () =
  let config = { Endpoint.default_config with delayed_ack = true } in
  let pipe = make_pair ~server_config:config () in
  establish pipe;
  (* A single segment: no second arrival to trigger the every-other rule,
     so only the 500us delack timer can acknowledge it. *)
  Endpoint.send_message pipe.client ~bytes:1_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 5) pipe.engine;
  Alcotest.(check int) "acked via the timer" 1_000 (Endpoint.bytes_acked pipe.client)

(* ------------------------------------------------------------------ *)
(* ECN behaviour                                                       *)

let test_classic_ecn_reaction () =
  let config =
    {
      Endpoint.default_config with
      ecn_capable = true;
      accurate_ecn_echo = false;
      cc = Tcp.Reno.factory;
    }
  in
  let pipe = make_pair ~config () in
  establish pipe;
  (* Mark every data packet CE in the pipe. *)
  pipe.mangle <-
    (fun pkt -> if pkt.Packet.payload > 0 && Packet.is_ect pkt then pkt.Packet.ecn <- Packet.Ce);
  Endpoint.send_message pipe.client ~bytes:3_000_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 30) pipe.engine;
  (* Persistent CE must keep the window near the floor. *)
  check_bool "cwnd collapsed under CE" true
    (Endpoint.cwnd pipe.client <= 4 * Endpoint.default_config.Endpoint.mss)

let test_dctcp_alpha_full_marking () =
  let config =
    {
      Endpoint.default_config with
      ecn_capable = true;
      accurate_ecn_echo = true;
      cc = Tcp.Dctcp_cc.factory;
    }
  in
  let pipe = make_pair ~config () in
  establish pipe;
  pipe.mangle <-
    (fun pkt -> if pkt.Packet.payload > 0 && Packet.is_ect pkt then pkt.Packet.ecn <- Packet.Ce);
  Endpoint.send_message pipe.client ~bytes:3_000_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 50) pipe.engine;
  (* With 100% marking alpha stays at 1, so DCTCP halves every window down
     to the 2-MSS floor. *)
  check_bool "window at floor" true
    (Endpoint.cwnd pipe.client <= 2 * Endpoint.default_config.Endpoint.mss)

let test_ecn_incapable_sends_not_ect () =
  let pipe = make_pair () in
  establish pipe;
  let saw_ect = ref false in
  pipe.mangle <- (fun pkt -> if Packet.is_ect pkt then saw_ect := true);
  Endpoint.send_message pipe.client ~bytes:100_000 ~on_complete:ignore;
  Engine.run ~until:(Time_ns.ms 20) pipe.engine;
  check_bool "no ECT from a non-ECN stack" false !saw_ect

(* ------------------------------------------------------------------ *)
(* Congestion-control algorithms through a synthetic view              *)

let fake_view ?(mss = 1000) ?(cwnd0 = 10_000) () =
  let cwnd = ref cwnd0 and ssthresh = ref (1 lsl 30) and time = ref 0 in
  let view =
    {
      Cc.now = (fun () -> !time);
      mss;
      get_cwnd = (fun () -> !cwnd);
      set_cwnd = (fun w -> cwnd := w);
      get_ssthresh = (fun () -> !ssthresh);
      set_ssthresh = (fun v -> ssthresh := v);
      in_flight = (fun () -> !cwnd);
      srtt = (fun () -> Some (Time_ns.us 100));
    }
  in
  (view, cwnd, ssthresh, time)

let test_reno_slow_start_doubles () =
  let view, cwnd, _, _ = fake_view () in
  let algo = Tcp.Reno.factory () in
  (* One window's worth of ACKs in slow start roughly doubles cwnd. *)
  for _ = 1 to 10 do
    algo.Cc.on_ack view ~acked:1000 ~rtt:None ~ce_marked:false
  done;
  check_int "doubled" 20_000 !cwnd

let test_reno_congestion_avoidance_linear () =
  let view, cwnd, ssthresh, _ = fake_view () in
  ssthresh := 5_000;
  (* below cwnd: CA *)
  let algo = Tcp.Reno.factory () in
  for _ = 1 to 10 do
    algo.Cc.on_ack view ~acked:1000 ~rtt:None ~ce_marked:false
  done;
  check_bool "about one MSS per window" true (!cwnd >= 10_900 && !cwnd <= 11_100)

let test_reno_halves_on_loss () =
  let view, cwnd, ssthresh, _ = fake_view ~cwnd0:20_000 () in
  let algo = Tcp.Reno.factory () in
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_int "halved" 10_000 !cwnd;
  check_int "ssthresh follows" 10_000 !ssthresh

let test_clamp_floor () =
  let view, cwnd, _, _ = fake_view ~cwnd0:2_500 () in
  let algo = Tcp.Reno.factory () in
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_int "2 MSS floor" 2_000 !cwnd

let test_cubic_decrease_factor () =
  let view, cwnd, _, _ = fake_view ~cwnd0:100_000 () in
  let algo = Tcp.Cubic.factory () in
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_int "cuts to beta=0.7" 70_000 !cwnd

let test_cubic_grows_toward_wmax () =
  let view, cwnd, ssthresh, time = fake_view ~cwnd0:100_000 () in
  ssthresh := 1_000;
  let algo = Tcp.Cubic.factory () in
  algo.Cc.on_congestion view Cc.Dup_acks;
  let after_cut = !cwnd in
  (* Feed ACKs over several simulated seconds: CUBIC's K at this window
     size is ~4 s, so regrowth takes that long by design. *)
  for i = 1 to 300 do
    time := i * Time_ns.ms 20;
    algo.Cc.on_ack view ~acked:1000 ~rtt:None ~ce_marked:false
  done;
  check_bool "recovers toward w_max" true (!cwnd > after_cut + 10_000)

let test_dctcp_cc_alpha_halves_on_full_marking () =
  let view, cwnd, _, _ = fake_view ~cwnd0:10_000 () in
  let algo = Tcp.Dctcp_cc.factory () in
  (* A full window of fully-marked ACKs: alpha starts at 1, so the cut is
     a halving. *)
  for _ = 1 to 10 do
    algo.Cc.on_ack view ~acked:1000 ~rtt:None ~ce_marked:true
  done;
  check_int "halved at alpha=1" 5_000 !cwnd

(* alpha starts at 1 and each clean window scales it by 1 - g = 15/16.  A
   fully marked window then folds its own fraction (1) in before it cuts,
   so after k clean windows the cut is 1 - a/2 with
   a = 15/16 * (15/16)^k + 1/16.  An ACK of a whole cwnd closes a window
   without growing cwnd, so every window here is exactly one ACK. *)
let test_dctcp_cc_alpha_decays_when_clean () =
  List.iter
    (fun k ->
      let view, cwnd, _, _ = fake_view ~cwnd0:100_000 () in
      let algo = Tcp.Dctcp_cc.factory () in
      for _ = 1 to k do
        algo.Cc.on_ack view ~acked:!cwnd ~rtt:None ~ce_marked:false
      done;
      check_int (Printf.sprintf "no cut in %d clean windows" k) 100_000 !cwnd;
      algo.Cc.on_ack view ~acked:!cwnd ~rtt:None ~ce_marked:true;
      let decayed = (15.0 /. 16.0) ** float_of_int k in
      let alpha = (15.0 /. 16.0 *. decayed) +. (1.0 /. 16.0) in
      let expected = 100_000.0 *. (1.0 -. (alpha /. 2.0)) in
      check_bool
        (Printf.sprintf "after %d clean windows the cut is 1 - alpha/2 (%.0f, got %d)" k
           expected !cwnd)
        true
        (Float.abs (float_of_int !cwnd -. expected) <= 1.0))
    [ 1; 4; 12 ];
  (* Twelve clean windows leave alpha near 0.43: the marked window cuts by
     about a quarter, well short of a halving. *)
  let view, cwnd, _, _ = fake_view ~cwnd0:100_000 () in
  let algo = Tcp.Dctcp_cc.factory () in
  for _ = 1 to 12 do
    algo.Cc.on_ack view ~acked:!cwnd ~rtt:None ~ce_marked:false
  done;
  algo.Cc.on_ack view ~acked:!cwnd ~rtt:None ~ce_marked:true;
  check_bool "well short of a halving" true (!cwnd > 70_000)

let test_highspeed_gentler_cut_at_large_window () =
  let view, cwnd, _, _ = fake_view ~mss:1000 ~cwnd0:10_000_000 () in
  (* 10,000 MSS *)
  let algo = Tcp.Highspeed.factory () in
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_bool "cut is gentler than half" true (!cwnd > 5_000_000);
  check_bool "but still a cut" true (!cwnd < 10_000_000)

let test_highspeed_reno_below_38 () =
  let view, cwnd, _, _ = fake_view ~mss:1000 ~cwnd0:20_000 () in
  let algo = Tcp.Highspeed.factory () in
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_int "standard halving below w_low" 10_000 !cwnd

let test_illinois_cut_bounds () =
  let view, cwnd, _, _ = fake_view ~cwnd0:100_000 () in
  let algo = Tcp.Illinois.factory () in
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_bool "cut within [1/2, 7/8]" true (!cwnd >= 50_000 && !cwnd <= 87_500)

let test_vegas_halves_on_loss () =
  let view, cwnd, _, _ = fake_view ~cwnd0:50_000 () in
  let algo = Tcp.Vegas.factory () in
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_int "halves" 25_000 !cwnd

(* Hand-computed law checks: each scenario is traced on paper against the
   published control law, and the test pins the exact resulting window.
   All use mss = 1000 so windows read directly in MSS. *)

let test_cubic_epoch_plateau_and_k () =
  let view, cwnd, ssthresh, time = fake_view ~cwnd0:100_000 () in
  ssthresh := 1_000;
  let algo = Tcp.Cubic.factory () in
  (* Cut at w_max = 100 MSS: window drops to beta * w_max = 70 MSS and the
     cubic epoch restarts with K = cbrt(w_max * (1-beta) / C) =
     cbrt(100 * 0.3 / 0.4) = 4.217 s. *)
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_int "cut to beta * w_max" 70_000 !cwnd;
  (* At the epoch start the cubic target equals the post-cut window (the
     curve's inflection plateau): no growth beyond the Reno-friendly
     crumbs, which truncate away below one byte. *)
  algo.Cc.on_ack view ~acked:1000 ~rtt:None ~ce_marked:false;
  check_int "plateau at epoch start" 70_000 !cwnd;
  (* At t = K the cubic target is w_max again: one ACK moves the window by
     (target - cwnd) / cwnd = (100 - 70) / 70 MSS -> 70428 bytes. *)
  time := 4_217_163_327;
  algo.Cc.on_ack view ~acked:1000 ~rtt:None ~ce_marked:false;
  check_int "target is w_max at t=K" 70_428 !cwnd

let test_highspeed_increase_law () =
  (* Reno region (w <= 38): a(w) = 1 MSS per RTT, so one ACK of one MSS at
     w = 20 adds mss^2 / cwnd = 50 bytes. *)
  let view, cwnd, ssthresh, _ = fake_view ~cwnd0:20_000 () in
  ssthresh := 1_000;
  let algo = Tcp.Highspeed.factory () in
  algo.Cc.on_ack view ~acked:1000 ~rtt:None ~ce_marked:false;
  check_int "reno region: one MSS per window" 20_050 !cwnd;
  (* High region: at w = 1000, b(w) = 0.330, p(w) = 0.078 / w^1.2 gives
     a(w) = w^2 p 2b/(2-b) = 7.74 MSS per RTT -> 7 bytes-per-MSS-acked
     after truncation. *)
  let view, cwnd, ssthresh, _ = fake_view ~cwnd0:1_000_000 () in
  ssthresh := 1_000;
  let algo = Tcp.Highspeed.factory () in
  algo.Cc.on_ack view ~acked:1000 ~rtt:None ~ce_marked:false;
  check_int "high region: a(1000) = 7.74 MSS/RTT" 1_000_007 !cwnd

let test_highspeed_decrease_endpoints () =
  (* The RFC 3649 interpolation must hit both published endpoints: b = 0.5
     at w_low = 38 and b = 0.1 at w_high = 83000. *)
  let view, cwnd, _, _ = fake_view ~cwnd0:38_000 () in
  let algo = Tcp.Highspeed.factory () in
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_int "b(38) = 0.5" 19_000 !cwnd;
  let view, cwnd, _, _ = fake_view ~cwnd0:83_000_000 () in
  let algo = Tcp.Highspeed.factory () in
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_bool "b(83000) = 0.1" true (abs (!cwnd - 74_700_000) <= 1)

let test_illinois_delay_adaptive_gains () =
  let view, cwnd, ssthresh, time = fake_view ~cwnd0:20_000 () in
  ssthresh := 1_000;
  let algo = Tcp.Illinois.factory () in
  (* Epoch 1 (no delay history yet): alpha = 1, so one ACK adds
     mss^2 / cwnd = 50 bytes. *)
  algo.Cc.on_ack view ~acked:1000 ~rtt:(Some (Time_ns.us 100)) ~ce_marked:false;
  check_int "alpha=1 before delay history" 20_050 !cwnd;
  (* Epoch 2 at max queueing delay (da = dm): alpha falls to alpha_min =
     0.1 -> incr = 0.1 * mss * acked / 20050 = 4 bytes. *)
  time := Time_ns.us 200;
  algo.Cc.on_ack view ~acked:1000 ~rtt:(Some (Time_ns.us 500)) ~ce_marked:false;
  check_int "alpha_min at full delay" 20_054 !cwnd;
  (* Epoch 3 back at near-base delay (da <= dm/100): alpha springs to
     alpha_max = 10 -> incr = 10 * mss * acked / 20054 = 498 bytes; and
     beta collapses to beta_min = 0.125, so a cut leaves 87.5%. *)
  time := Time_ns.us 350;
  algo.Cc.on_ack view ~acked:1000 ~rtt:(Some (Time_ns.us 104)) ~ce_marked:false;
  check_int "alpha_max when the path drains" 20_552 !cwnd;
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_int "beta_min cut keeps 7/8" 17_983 !cwnd;
  check_int "ssthresh follows the cut" 17_983 !ssthresh

let test_illinois_initial_beta_halves () =
  (* Before any delay history beta = beta_max = 0.5: a plain halving. *)
  let view, cwnd, _, _ = fake_view ~cwnd0:20_000 () in
  let algo = Tcp.Illinois.factory () in
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_int "beta_max cut" 10_000 !cwnd

let test_vegas_additive_steps () =
  let view, cwnd, _, time = fake_view ~cwnd0:20_000 () in
  let algo = Tcp.Vegas.factory () in
  (* Leave slow start via a loss: cwnd <- in_flight / 2 = 10 MSS. *)
  algo.Cc.on_congestion view Cc.Dup_acks;
  check_int "loss halves in-flight" 10_000 !cwnd;
  (* Establish base RTT = 100 us, then an epoch at min RTT = 110 us:
     diff = 10 * (110 - 100) / 110 = 0.91 < alpha = 2 -> up one MSS. *)
  algo.Cc.on_ack view ~acked:1000 ~rtt:(Some (Time_ns.us 100)) ~ce_marked:false;
  List.iter
    (fun t ->
      time := Time_ns.us t;
      algo.Cc.on_ack view ~acked:1000 ~rtt:(Some (Time_ns.us 110)) ~ce_marked:false)
    [ 10; 20; 150 ];
  check_int "under alpha queued: +1 MSS" 11_000 !cwnd;
  (* An epoch at min RTT = 300 us: diff = 11 * 200 / 300 = 7.3 > beta = 4
     -> down one MSS.  (The 260 us ACK only rolls the epoch over.) *)
  List.iter
    (fun t ->
      time := Time_ns.us t;
      algo.Cc.on_ack view ~acked:1000 ~rtt:(Some (Time_ns.us 300)) ~ce_marked:false)
    [ 260; 270; 280; 400 ];
  check_int "over beta queued: -1 MSS" 10_000 !cwnd

let prop_all_ccs_keep_cwnd_positive =
  QCheck.Test.make ~name:"every CC keeps cwnd >= 2 MSS under random events" ~count:100
    QCheck.(pair (int_bound 5) (list (int_bound 3)))
    (fun (cc_idx, events) ->
      let _, factory = List.nth Tcp.Cc_registry.all (cc_idx mod List.length Tcp.Cc_registry.all) in
      let view, cwnd, _, time = fake_view () in
      let algo = factory () in
      List.iteri
        (fun i ev ->
          time := (i + 1) * Time_ns.us 50;
          (match ev with
          | 0 -> algo.Cc.on_ack view ~acked:1000 ~rtt:(Some (Time_ns.us 120)) ~ce_marked:false
          | 1 -> algo.Cc.on_ack view ~acked:1000 ~rtt:(Some (Time_ns.us 300)) ~ce_marked:true
          | 2 -> algo.Cc.on_congestion view Cc.Dup_acks
          | _ -> algo.Cc.on_rto view))
        events;
      !cwnd >= 2 * 1000)

(* ------------------------------------------------------------------ *)
(* RTO estimator                                                       *)

let test_rto_floor () =
  let rto = Tcp.Rto.create () in
  Tcp.Rto.observe rto (Time_ns.us 100);
  check_int "floored at 10ms" (Time_ns.ms 10) (Tcp.Rto.timeout rto)

let test_rto_tracks_large_rtt () =
  let rto = Tcp.Rto.create () in
  Tcp.Rto.observe rto (Time_ns.ms 100);
  (* srtt = 100ms, rttvar = 50ms -> rto = 300ms *)
  check_int "srtt+4var" (Time_ns.ms 300) (Tcp.Rto.timeout rto)

let test_rto_backoff_and_reset () =
  let rto = Tcp.Rto.create () in
  Tcp.Rto.observe rto (Time_ns.us 100);
  Tcp.Rto.backoff rto;
  check_int "doubled" (Time_ns.ms 20) (Tcp.Rto.timeout rto);
  Tcp.Rto.backoff rto;
  check_int "doubled again" (Time_ns.ms 40) (Tcp.Rto.timeout rto);
  Tcp.Rto.reset_backoff rto;
  check_int "reset" (Time_ns.ms 10) (Tcp.Rto.timeout rto)

let test_rto_initial_value () =
  let rto = Tcp.Rto.create () in
  check_int "1s before any sample" (Time_ns.sec 1.0) (Tcp.Rto.timeout rto);
  check_bool "no srtt yet" true (Tcp.Rto.srtt rto = None)

(* The backoff law, as a property: after one sample r the base RTO is
   clamp(3r) (srtt = r, rttvar = r/2), n backoffs multiply it by
   2^min(n,6) up to the 4 s cap, and a reset restores the base exactly. *)
let prop_rto_backoff_law =
  QCheck.Test.make ~name:"rto backoff doubles to the cap and resets on ack" ~count:200
    QCheck.(pair (int_range 0 10) (int_range 50 2_000_000))
    (fun (n, rtt_us) ->
      let rto = Tcp.Rto.create () in
      Tcp.Rto.observe rto (Time_ns.us rtt_us);
      let base = Tcp.Rto.timeout rto in
      for _ = 1 to n do
        Tcp.Rto.backoff rto
      done;
      let expected = Time_ns.min (Time_ns.sec 4.0) (base * (1 lsl Stdlib.min n 6)) in
      let backed = Tcp.Rto.timeout rto = expected in
      Tcp.Rto.reset_backoff rto;
      backed && Tcp.Rto.timeout rto = base)

let prop_rto_floor_and_cap =
  QCheck.Test.make ~name:"rto stays within [min_rto, max_rto] for any history" ~count:200
    QCheck.(list (pair (int_range 1 5_000_000) bool))
    (fun events ->
      let rto = Tcp.Rto.create () in
      List.for_all
        (fun (rtt_us, do_backoff) ->
          if do_backoff then Tcp.Rto.backoff rto
          else Tcp.Rto.observe rto (Time_ns.us rtt_us);
          let t = Tcp.Rto.timeout rto in
          Time_ns.ms 10 <= t && t <= Time_ns.sec 4.0)
        events)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_registry () =
  Alcotest.(check (list string))
    "all names"
    [ "reno"; "cubic"; "dctcp"; "vegas"; "illinois"; "highspeed" ]
    Tcp.Cc_registry.names;
  List.iter
    (fun name ->
      let factory = Tcp.Cc_registry.find name in
      let algo = factory () in
      Alcotest.(check string) "factory name matches" name algo.Cc.name)
    Tcp.Cc_registry.names;
  check_bool "unknown raises" true
    (try
       let (_ : Cc.factory) = Tcp.Cc_registry.find "bbr" in
       false
     with Not_found -> true)

(* The reliability invariant: whatever the loss pattern, every submitted
   byte is eventually delivered and acknowledged. *)
let prop_delivery_under_random_loss =
  QCheck.Test.make ~name:"transfers complete under random loss" ~count:25
    QCheck.(triple (int_range 1 1000) (int_range 0 15) (int_range 1 30))
    (fun (seed, loss_pct, size_kb) ->
      let pipe = make_pair () in
      establish pipe;
      let rng = Eventsim.Rng.create ~seed in
      pipe.drop <-
        (fun pkt ->
          (* Never drop handshake/control so the test isolates data-path
             recovery. *)
          pkt.Packet.payload > 0 && Eventsim.Rng.int rng 100 < loss_pct);
      let bytes = size_kb * 1024 in
      let completed = ref false in
      Endpoint.send_message pipe.client ~bytes ~on_complete:(fun _ -> completed := true);
      Engine.run ~until:(Time_ns.sec 3.0) pipe.engine;
      !completed && Endpoint.bytes_acked pipe.client = bytes)

let prop_rwnd_never_exceeded =
  QCheck.Test.make ~name:"in-flight never exceeds the advertised window" ~count:20
    QCheck.(pair (int_range 1 500) (int_range 1 8))
    (fun (seed, window_segments) ->
      ignore seed;
      let limit = window_segments * Endpoint.default_config.Endpoint.mss in
      let server_config = { Endpoint.default_config with rcv_buf = limit; wscale = 0 } in
      let pipe = make_pair ~server_config () in
      establish pipe;
      Endpoint.send_message pipe.client ~bytes:2_000_000 ~on_complete:ignore;
      let ok = ref true in
      let rec monitor () =
        if Endpoint.snd_nxt pipe.client - Endpoint.snd_una pipe.client > limit then ok := false;
        Engine.schedule_after pipe.engine ~delay:(Time_ns.us 37) monitor
      in
      monitor ();
      Engine.run ~until:(Time_ns.ms 10) pipe.engine;
      !ok)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_all_ccs_keep_cwnd_positive;
      prop_rto_backoff_law;
      prop_rto_floor_and_cap;
      prop_delivery_under_random_loss;
      prop_rwnd_never_exceeded;
    ]

let () =
  Alcotest.run "tcp"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "handshake" `Quick test_handshake;
          Alcotest.test_case "message transfer" `Quick test_message_transfer;
          Alcotest.test_case "messages complete in order" `Quick test_multiple_messages_fifo;
          Alcotest.test_case "fin close" `Quick test_fin_close;
          Alcotest.test_case "slow start growth" `Quick test_slow_start_growth;
          Alcotest.test_case "rtt sampling" `Quick test_rtt_sampling;
        ] );
      ( "loss recovery",
        [
          Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit;
          Alcotest.test_case "rto on silence" `Quick test_rto_on_silence;
          Alcotest.test_case "sack mass-drop recovery" `Quick test_sack_recovery_mass_drop;
          Alcotest.test_case "reordering tolerance" `Quick test_reordering_tolerance;
        ] );
      ( "flow control",
        [
          Alcotest.test_case "window scaling" `Quick test_window_scaling_advertisement;
          Alcotest.test_case "rwnd limits inflight" `Quick test_rwnd_limits_inflight;
          Alcotest.test_case "ignore_rwnd violates" `Quick test_ignore_rwnd_violates;
          Alcotest.test_case "sub-MSS window progress" `Quick test_sub_mss_window_progress;
          Alcotest.test_case "max_cwnd clamp" `Quick test_max_cwnd_clamp;
        ] );
      ( "delayed acks",
        [
          Alcotest.test_case "halves ack count" `Quick test_delayed_ack_halves_ack_count;
          Alcotest.test_case "immediate on CE" `Quick test_delayed_ack_immediate_on_ce;
          Alcotest.test_case "timer flushes" `Quick test_delayed_ack_timer_flushes;
        ] );
      ( "ecn",
        [
          Alcotest.test_case "classic reaction" `Quick test_classic_ecn_reaction;
          Alcotest.test_case "dctcp under full marking" `Quick test_dctcp_alpha_full_marking;
          Alcotest.test_case "non-ecn stack sends Not_ect" `Quick
            test_ecn_incapable_sends_not_ect;
        ] );
      ( "congestion control",
        [
          Alcotest.test_case "reno slow start" `Quick test_reno_slow_start_doubles;
          Alcotest.test_case "reno congestion avoidance" `Quick
            test_reno_congestion_avoidance_linear;
          Alcotest.test_case "reno halves" `Quick test_reno_halves_on_loss;
          Alcotest.test_case "2 MSS floor" `Quick test_clamp_floor;
          Alcotest.test_case "cubic beta" `Quick test_cubic_decrease_factor;
          Alcotest.test_case "cubic regrowth" `Quick test_cubic_grows_toward_wmax;
          Alcotest.test_case "dctcp halves at alpha=1" `Quick
            test_dctcp_cc_alpha_halves_on_full_marking;
          Alcotest.test_case "dctcp clean windows" `Quick test_dctcp_cc_alpha_decays_when_clean;
          Alcotest.test_case "highspeed gentle cut" `Quick
            test_highspeed_gentler_cut_at_large_window;
          Alcotest.test_case "highspeed reno region" `Quick test_highspeed_reno_below_38;
          Alcotest.test_case "illinois cut bounds" `Quick test_illinois_cut_bounds;
          Alcotest.test_case "vegas halves" `Quick test_vegas_halves_on_loss;
        ] );
      ( "cc laws (hand-computed)",
        [
          Alcotest.test_case "cubic epoch plateau and K" `Quick test_cubic_epoch_plateau_and_k;
          Alcotest.test_case "highspeed increase" `Quick test_highspeed_increase_law;
          Alcotest.test_case "highspeed decrease endpoints" `Quick
            test_highspeed_decrease_endpoints;
          Alcotest.test_case "illinois delay-adaptive gains" `Quick
            test_illinois_delay_adaptive_gains;
          Alcotest.test_case "illinois initial beta" `Quick test_illinois_initial_beta_halves;
          Alcotest.test_case "vegas additive steps" `Quick test_vegas_additive_steps;
        ] );
      ( "rto",
        [
          Alcotest.test_case "floor" `Quick test_rto_floor;
          Alcotest.test_case "tracks large rtt" `Quick test_rto_tracks_large_rtt;
          Alcotest.test_case "backoff/reset" `Quick test_rto_backoff_and_reset;
          Alcotest.test_case "initial" `Quick test_rto_initial_value;
        ] );
      ("registry", [ Alcotest.test_case "lookup" `Quick test_registry ]);
      ("properties", qtests);
    ]
