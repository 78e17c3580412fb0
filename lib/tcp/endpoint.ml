module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key

let log_src = Logs.Src.create "tcp.endpoint" ~doc:"TCP connection endpoint"

module Log = (val Logs.src_log log_src : Logs.LOG)

type state = Closed | Listen | Syn_sent | Syn_received | Established | Fin_wait | Closing

type config = {
  mss : int;
  cc : Cc.factory;
  ecn_capable : bool;
  accurate_ecn_echo : bool;
  rcv_buf : int;
  delayed_ack : bool;
  wscale : int;
  min_rto : Time_ns.t;
  init_cwnd_segments : int;
  max_cwnd : int option;
  ignore_rwnd : bool;
}

let default_config =
  {
    mss = 8960;
    cc = Cubic.factory;
    ecn_capable = false;
    accurate_ecn_echo = false;
    rcv_buf = 6 * 1024 * 1024;
    delayed_ack = false;
    (* Minimal shift that fits the buffer in the 16-bit field, as Linux
       picks it: 6 MB >> 7 = 48 K < 64 K. *)
    wscale = 7;
    min_rto = Time_ns.ms 10;
    init_cwnd_segments = 10;
    max_cwnd = None;
    ignore_rwnd = false;
  }

let config_for_mtu config ~mtu = { config with mss = mtu - 40 }

(* The adversarial tenant of §3.3: disregards the receive window AC/DC
   enforces and grows its congestion window without restraint. *)
let misbehaving config = { config with cc = Aggressive.factory; ignore_rwnd = true }

type message = { end_seq : int; submitted : Time_ns.t; on_complete : Time_ns.t -> unit }

type t = {
  engine : Engine.t;
  config : config;
  key : Flow_key.t;
  out : Packet.t -> unit;
  is_client : bool;
  algo : Cc.t;
  view : Cc.view; (* this endpoint as [algo] sees it, built once *)
  rto : Rto.t;
  tracer : Obs.Trace.t;
  attrib : Obs.Attrib.t;
  (* --- sender state --- *)
  mutable state : state;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable peer_rwnd : int; (* bytes, post-scaling *)
  mutable peer_wscale : int;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int; (* recovery point: snd_nxt when loss was detected *)
  mutable sacked : (int * int) list; (* receiver-reported intervals above snd_una *)
  mutable high_rxt : int; (* retransmission cursor within the holes *)
  mutable rxt_out : int; (* retransmitted bytes estimated still in flight *)
  mutable rto_timer : Engine.timer option;
  mutable rto_recovering : bool; (* between an RTO firing and the next new ACK *)
  (* Timer actions built once per endpoint (lazily, at first arm) instead
     of once per arming — RTO rearms on every ACK. *)
  mutable rto_action : unit -> unit;
  mutable delack_action : unit -> unit;
  mutable rtt_seq : int; (* seq_end being timed, -1 if none *)
  mutable rtt_sent_at : Time_ns.t;
  mutable app_bytes : int; (* cumulative bytes handed to us by the app *)
  mutable infinite_source : bool;
  mutable fin_pending : bool;
  mutable fin_sent : bool;
  mutable messages : message Queue.t;
  mutable need_cwr : bool; (* echo CWR on the next data segment *)
  mutable cwr_seq : int; (* ECN: react at most once per window *)
  (* --- receiver state --- *)
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list; (* disjoint sorted received intervals > rcv_nxt *)
  mutable ece_latched : bool; (* classic RFC 3168 echo state *)
  mutable fin_received : bool;
  mutable delack_timer : Engine.timer option;
  mutable unacked_segments : int;
  (* --- counters & hooks --- *)
  mutable bytes_acked : int;
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable established_cb : unit -> unit;
  mutable rtt_hook : Time_ns.t -> unit;
  mutable cwnd_hook : Time_ns.t -> int -> unit;
  mutable bytes_hook : Time_ns.t -> int -> unit;
}

let data_start = 1 (* client ISS = 0; SYN consumes one sequence number *)

(* "Not built yet" sentinel for the per-endpoint timer actions: a single
   static closure, so physical equality is a reliable test.  ([ignore]
   won't do — the primitive eta-expands to a fresh closure per use
   site.) *)
let unset_action () = ()

let apply_cwnd t w =
  let w = match t.config.max_cwnd with Some m -> Stdlib.min m w | None -> w in
  if w <> t.cwnd then begin
    t.cwnd <- w;
    t.cwnd_hook (Engine.now t.engine) w
  end

let create engine config ~key ~out ~is_client =
  let rec t =
    {
      engine;
      config;
      key;
      out;
      is_client;
      algo = config.cc ();
      view =
        {
          Cc.now = (fun () -> Engine.now engine);
          mss = config.mss;
          get_cwnd = (fun () -> t.cwnd);
          set_cwnd = (fun w -> apply_cwnd t w);
          get_ssthresh = (fun () -> t.ssthresh);
          set_ssthresh = (fun v -> t.ssthresh <- v);
          in_flight = (fun () -> t.snd_nxt - t.snd_una);
          srtt = (fun () -> Rto.srtt t.rto);
        };
      rto = Rto.create ~min_rto:config.min_rto ();
      tracer = Obs.Runtime.tracer ();
      attrib = Obs.Runtime.attrib ();
      state = (if is_client then Closed else Listen);
      snd_una = 0;
      snd_nxt = 0;
      cwnd = config.init_cwnd_segments * config.mss;
      ssthresh = 1 lsl 30;
      peer_rwnd = 65535;
      peer_wscale = 0;
      dupacks = 0;
      in_recovery = false;
      recover = 0;
      sacked = [];
      high_rxt = 0;
      rxt_out = 0;
      rto_timer = None;
      rto_recovering = false;
      rto_action = unset_action;
      delack_action = unset_action;
      rtt_seq = -1;
      rtt_sent_at = Time_ns.zero;
      app_bytes = 0;
      infinite_source = false;
      fin_pending = false;
      fin_sent = false;
      messages = Queue.create ();
      need_cwr = false;
      cwr_seq = 0;
      rcv_nxt = 0;
      ooo = [];
      ece_latched = false;
      fin_received = false;
      delack_timer = None;
      unacked_segments = 0;
      bytes_acked = 0;
      retransmissions = 0;
      timeouts = 0;
      established_cb = ignore;
      rtt_hook = ignore;
      cwnd_hook = (fun _ _ -> ());
      bytes_hook = (fun _ _ -> ());
    }
  in
  t

let create_client engine config ~key ~out = create engine config ~key ~out ~is_client:true

let create_server engine config ~key ~out = create engine config ~key ~out ~is_client:false

let on_established t f = t.established_cb <- f

(* ------------------------------------------------------------------ *)
(* Congestion control plumbing                                         *)

(* ------------------------------------------------------------------ *)
(* Packet construction                                                 *)

let advertised_window_field t =
  Stdlib.min 0xFFFF (t.config.rcv_buf lsr t.config.wscale)

let emit t pkt =
  pkt.Packet.sent_at <- Engine.now t.engine;
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
      (Obs.Trace.created ~node:(Printf.sprintf "host%d" t.key.Dcpkt.Flow_key.src_ip) pkt);
  t.out pkt

(* An ACK-bearing segment of this connection.  Each optional argument of
   [Packet.make] is boxed at a call from another library, on every
   segment, so the per-segment header fields are written into the fresh
   record instead. *)
let segment t ~seq ~payload =
  let pkt = Packet.make ~key:t.key ~has_ack:true ~payload () in
  pkt.Packet.seq <- seq;
  pkt.Packet.ack <- t.rcv_nxt;
  pkt.Packet.rwnd_field <- advertised_window_field t;
  pkt

let make_ack t =
  let pkt = segment t ~seq:t.snd_nxt ~payload:0 in
  pkt.Packet.ece <- t.ece_latched;
  (match t.ooo with
  | [] -> ()
  | blocks ->
    let rec take n = function
      | [] -> []
      | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
    in
    Packet.set_option pkt (Packet.Sack (take 3 blocks)));
  pkt

let send_pure_ack t = emit t (make_ack t)

(* ------------------------------------------------------------------ *)
(* SACK scoreboard (RFC 6675, simplified)                              *)

(* Insert [start, stop) into a sorted disjoint interval list. *)
let rec insert_interval intervals start stop =
  match intervals with
  | [] -> [ (start, stop) ]
  | (s, e) :: rest ->
    if stop < s then (start, stop) :: intervals
    else if start > e then (s, e) :: insert_interval rest start stop
    else insert_interval rest (Stdlib.min s start) (Stdlib.max e stop)

let sacked_bytes t =
  List.fold_left (fun acc (s, e) -> acc + (e - s)) 0 t.sacked

(* Drop the intervals at or below [una] and clip the rest to start at
   [una]; returns the list itself when nothing changes.  Top-level, like
   the other per-ACK list walks here, so no closure is allocated. *)
let rec prune_below una l =
  match l with
  | [] -> l
  | (s, e) :: rest ->
    if e <= una then prune_below una rest
    else begin
      let kept = prune_below una rest in
      if s >= una && kept == rest then l else (Stdlib.max s una, e) :: kept
    end

let prune_sacked t = t.sacked <- prune_below t.snd_una t.sacked

(* Outstanding bytes as the sender estimates them: sent minus selectively
   acknowledged, plus retransmissions believed still in the network. *)
let pipe t = t.snd_nxt - t.snd_una - sacked_bytes t + t.rxt_out

(* ------------------------------------------------------------------ *)
(* RTO timer                                                           *)

let cancel_rto t =
  match t.rto_timer with
  | Some timer ->
    Engine.cancel timer;
    t.rto_timer <- None
  | None -> ()

let rec arm_rto t =
  cancel_rto t;
  if t.snd_una < t.snd_nxt then begin
    let delay = Rto.timeout t.rto in
    if t.rto_action == unset_action then t.rto_action <- (fun () -> handle_rto t);
    t.rto_timer <- Some (Engine.timer_after t.engine ~delay t.rto_action)
  end

and syn_packet t =
  Packet.make ~key:t.key ~seq:0 ~syn:true
    ~rwnd_field:(Stdlib.min 0xFFFF t.config.rcv_buf)
    ~options:[ Packet.Mss t.config.mss; Packet.Window_scale t.config.wscale ]
    ~payload:0 ()

and handle_rto t =
  t.rto_timer <- None;
  if t.state = Syn_sent then begin
    (* A lost SYN has no ACK clock to recover it: only the timer can.  The
       general branch below would reset [snd_nxt] to [snd_una] and then
       find nothing to send (no app data before establishment), silently
       deadlocking the handshake. *)
    t.timeouts <- t.timeouts + 1;
    t.retransmissions <- t.retransmissions + 1;
    t.rtt_seq <- -1 (* Karn: never time a retransmitted SYN *);
    Rto.backoff t.rto;
    emit t (syn_packet t);
    arm_rto t
  end
  else if t.snd_una < t.snd_nxt && t.state <> Closed then begin
    t.timeouts <- t.timeouts + 1;
    t.rto_recovering <- true;
    if Obs.Trace.enabled t.tracer then
      Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
        (Obs.Trace.Rto_fire { flow = t.key; inferred = false; count = t.timeouts });
    Log.debug (fun m ->
        m "%a: RTO #%d (una=%d nxt=%d cwnd=%d)" Flow_key.pp t.key t.timeouts t.snd_una
          t.snd_nxt t.cwnd);
    t.ssthresh <- Cc.clamp_cwnd t.view ((t.snd_nxt - t.snd_una) / 2);
    apply_cwnd t t.config.mss;
    t.algo.Cc.on_rto t.view;
    (* Go-back-N: the receiver holds out-of-order ranges, so the cumulative
       ACK will jump over whatever actually arrived. *)
    t.snd_nxt <- t.snd_una;
    t.in_recovery <- false;
    t.sacked <- [];
    t.high_rxt <- t.snd_una;
    t.rxt_out <- 0;
    t.dupacks <- 0;
    t.rtt_seq <- -1;
    Rto.backoff t.rto;
    try_send t;
    arm_rto t
  end

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)

and available_bytes t =
  if t.infinite_source then max_int / 2
  else begin
    let sent = t.snd_nxt - data_start in
    Stdlib.max 0 (t.app_bytes - sent)
  end

and effective_window t =
  let rwnd = if t.config.ignore_rwnd then max_int / 2 else t.peer_rwnd in
  Stdlib.min t.cwnd rwnd

and send_segment t ~seq ~payload ~retransmit =
  let pkt = segment t ~seq ~payload in
  if t.config.ecn_capable then pkt.Packet.ecn <- Packet.Ect0;
  if t.need_cwr then begin
    pkt.Packet.cwr <- true;
    t.need_cwr <- false
  end;
  if retransmit then begin
    t.retransmissions <- t.retransmissions + 1;
    (* Karn's rule: a retransmission invalidates any RTT probe at or after
       this sequence. *)
    if t.rtt_seq >= 0 && seq < t.rtt_seq then t.rtt_seq <- -1
  end
  else if t.rtt_seq < 0 then begin
    t.rtt_seq <- seq + payload;
    t.rtt_sent_at <- Engine.now t.engine
  end;
  emit t pkt

and maybe_send_fin t =
  if
    t.fin_pending && (not t.fin_sent) && (not t.infinite_source)
    && available_bytes t = 0
    && t.state = Established
  then begin
    let pkt = segment t ~seq:t.snd_nxt ~payload:0 in
    pkt.Packet.fin <- true;
    t.fin_sent <- true;
    t.snd_nxt <- t.snd_nxt + 1;
    t.state <- Fin_wait;
    emit t pkt;
    arm_rto t
  end

and try_send t =
  if t.state = Established then begin
    let progress = ref false in
    let continue = ref true in
    while !continue do
      let wnd = effective_window t in
      let in_flight = pipe t in
      let avail = available_bytes t in
      if avail <= 0 || wnd <= 0 then continue := false
      else begin
        let payload = Stdlib.min t.config.mss avail in
        (* Allow a short segment when the window is open but sub-MSS and
           nothing is in flight, so tiny enforced windows (AC/DC's RWND
           floor) still make progress. *)
        let payload = if in_flight = 0 then Stdlib.min payload wnd else payload in
        if in_flight + payload <= wnd then begin
          send_segment t ~seq:t.snd_nxt ~payload ~retransmit:false;
          t.snd_nxt <- t.snd_nxt + payload;
          progress := true
        end
        else continue := false
      end
    done;
    if !progress && t.rto_timer = None then arm_rto t;
    maybe_send_fin t
  end;
  note_attrib t

(* Every can-send re-evaluation ends here: classify what stops the sender
   from transmitting more right now and charge the stall clock.  Whether
   an rwnd stall is the tenant's own window or the vSwitch-enforced one is
   resolved inside [Obs.Attrib] from the flag [Acdc.Sender] maintains —
   this endpoint cannot tell who wrote the field it sees. *)
and note_attrib t =
  let a = t.attrib in
  if Obs.Attrib.enabled a then begin
    let cause =
      match t.state with
      | Syn_sent | Syn_received -> Obs.Attrib.Blocked_handshake
      | Closed | Listen | Established | Fin_wait | Closing ->
        if t.rto_recovering then Obs.Attrib.Blocked_rto
        else if available_bytes t <= 0 then
          if pipe t > 0 then Obs.Attrib.Waiting_acks else Obs.Attrib.Blocked_app
        else begin
          (* Data is available but the send loop stopped: a window binds.
             Ties go to the congestion window, matching [effective_window]. *)
          let rwnd = if t.config.ignore_rwnd then max_int / 2 else t.peer_rwnd in
          if t.cwnd <= rwnd then Obs.Attrib.Blocked_cwnd else Obs.Attrib.Blocked_rwnd
        end
    in
    Obs.Attrib.note a ~now:(Engine.now t.engine) ~tracer:t.tracer t.key cause
  end

(* ------------------------------------------------------------------ *)
(* Application interface                                               *)

let send_message t ~bytes ~on_complete =
  assert (bytes > 0);
  t.app_bytes <- t.app_bytes + bytes;
  Queue.add
    {
      end_seq = data_start + t.app_bytes;
      submitted = Engine.now t.engine;
      on_complete;
    }
    t.messages;
  try_send t

let send_bytes t bytes = send_message t ~bytes ~on_complete:ignore

let send_forever t =
  t.infinite_source <- true;
  try_send t

let stop t = t.infinite_source <- false

let close t =
  t.fin_pending <- true;
  t.infinite_source <- false;
  maybe_send_fin t

(* ------------------------------------------------------------------ *)
(* Receiving: data path                                                *)

let rec drain_ooo t =
  match t.ooo with
  | (s, e) :: rest when s <= t.rcv_nxt ->
    if e > t.rcv_nxt then t.rcv_nxt <- e;
    t.ooo <- rest;
    drain_ooo t
  | _ -> ()

let update_ece_state t (pkt : Packet.t) =
  if t.config.accurate_ecn_echo then t.ece_latched <- pkt.ecn = Packet.Ce
  else begin
    if pkt.ecn = Packet.Ce then t.ece_latched <- true;
    if pkt.cwr then t.ece_latched <- false
  end

let cancel_delack t =
  match t.delack_timer with
  | Some timer ->
    Engine.cancel timer;
    t.delack_timer <- None
  | None -> ()

let ack_now t =
  cancel_delack t;
  t.unacked_segments <- 0;
  send_pure_ack t

let handle_data t (pkt : Packet.t) =
  update_ece_state t pkt;
  let in_order = pkt.seq = t.rcv_nxt in
  let seq_end = Packet.seq_end pkt in
  if pkt.seq <= t.rcv_nxt then begin
    if seq_end > t.rcv_nxt then t.rcv_nxt <- seq_end;
    drain_ooo t
  end
  else t.ooo <- insert_interval t.ooo pkt.seq seq_end;
  if pkt.fin && pkt.seq <= t.rcv_nxt then t.fin_received <- true;
  (* RFC 1122 delayed ACKs, with the immediate-ACK exceptions congestion
     control depends on: CE marks (DCTCP feedback latency), reordering and
     retransmissions (dupack generation), FIN. *)
  let must_ack_now =
    (not t.config.delayed_ack)
    || (not in_order)
    || pkt.ecn = Packet.Ce || pkt.fin
    || t.unacked_segments >= 1
  in
  if must_ack_now then ack_now t
  else begin
    t.unacked_segments <- 1;
    if t.delack_timer = None then begin
      if t.delack_action == unset_action then
        t.delack_action <-
          (fun () ->
            t.delack_timer <- None;
            if t.unacked_segments > 0 then begin
              t.unacked_segments <- 0;
              send_pure_ack t
            end);
      t.delack_timer <- Some (Engine.timer_after t.engine ~delay:(Time_ns.us 500) t.delack_action)
    end
  end

(* ------------------------------------------------------------------ *)
(* Receiving: ACK processing (sender side)                             *)

let update_peer_window t (pkt : Packet.t) =
  t.peer_rwnd <- pkt.rwnd_field lsl t.peer_wscale

let complete_messages t =
  let popped = ref false in
  while (not (Queue.is_empty t.messages)) && (Queue.peek t.messages).end_seq <= t.snd_una do
    let m = Queue.pop t.messages in
    popped := true;
    m.on_complete (Time_ns.diff (Engine.now t.engine) m.submitted)
  done;
  (* The flow's attribution snapshot: taken when the last queued message
     completes (not on later pure ACKs), so the per-state durations sum to
     the connect-to-last-byte-acked FCT exactly. *)
  if
    !popped && Queue.is_empty t.messages
    && (not t.infinite_source)
    && Obs.Attrib.enabled t.attrib
    && t.snd_una >= data_start + t.app_bytes
  then Obs.Attrib.complete t.attrib ~now:(Engine.now t.engine) ~tracer:t.tracer t.key

let classic_ecn_reaction t (pkt : Packet.t) =
  if
    pkt.ece && t.config.ecn_capable && (not t.algo.Cc.per_ack_ecn) && (not t.in_recovery)
    && t.snd_una > t.cwr_seq
  then begin
    t.algo.Cc.on_congestion t.view Cc.Ecn;
    t.cwr_seq <- t.snd_nxt;
    t.need_cwr <- true
  end

(* Retransmit un-SACKed holes below the recovery point, as many as the
   window allows. *)
let retransmit_holes t =
  let rec next_unsacked seq =
    match List.find_opt (fun (s, e) -> s <= seq && seq < e) t.sacked with
    | Some (_, e) -> next_unsacked e
    | None -> seq
  in
  let continue = ref true in
  while !continue do
    let wnd = effective_window t in
    let seq = next_unsacked (Stdlib.max t.high_rxt t.snd_una) in
    if pipe t >= wnd || seq >= t.recover then continue := false
    else begin
      (* Stop this segment at the next SACKed block (or the recovery
         point): everything beyond is already at the receiver. *)
      let cap =
        List.fold_left
          (fun acc (s, _) -> if s > seq then Stdlib.min acc s else acc)
          t.recover t.sacked
      in
      let payload = Stdlib.min t.config.mss (cap - seq) in
      if payload <= 0 then continue := false
      else begin
        send_segment t ~seq ~payload ~retransmit:true;
        t.rxt_out <- t.rxt_out + payload;
        t.high_rxt <- seq + payload
      end
    end
  done

let enter_fast_recovery t =
  Log.debug (fun m ->
      m "%a: fast recovery (una=%d nxt=%d sacked=%d)" Flow_key.pp t.key t.snd_una t.snd_nxt
        (sacked_bytes t));
  t.in_recovery <- true;
  t.recover <- t.snd_nxt;
  t.high_rxt <- t.snd_una;
  t.rxt_out <- 0;
  t.algo.Cc.on_congestion t.view Cc.Dup_acks;
  retransmit_holes t

let rec absorb_blocks t = function
  | [] -> ()
  | (s, e) :: rest ->
    if e > t.snd_una && e <= t.snd_nxt then
      t.sacked <- insert_interval t.sacked (Stdlib.max s t.snd_una) e;
    absorb_blocks t rest

let absorb_sack t (pkt : Packet.t) = absorb_blocks t (Packet.sack_blocks pkt)

let handle_ack t (pkt : Packet.t) =
  update_peer_window t pkt;
  absorb_sack t pkt;
  if pkt.ack > t.snd_una then begin
    let acked = pkt.ack - t.snd_una in
    t.snd_una <- pkt.ack;
    t.rto_recovering <- false;
    t.bytes_acked <- t.bytes_acked + acked;
    t.bytes_hook (Engine.now t.engine) acked;
    t.rxt_out <- Stdlib.max 0 (t.rxt_out - acked);
    prune_sacked t;
    t.dupacks <- 0;
    (* RTT sample (Karn-safe: the probe is invalidated on retransmit). *)
    let rtt =
      if t.rtt_seq >= 0 && pkt.ack >= t.rtt_seq then begin
        let sample = Time_ns.diff (Engine.now t.engine) t.rtt_sent_at in
        t.rtt_seq <- -1;
        Rto.observe t.rto sample;
        Rto.reset_backoff t.rto;
        t.rtt_hook sample;
        Some sample
      end
      else None
    in
    if t.in_recovery then begin
      if pkt.ack >= t.recover then begin
        (* Full ACK: leave recovery and deflate. *)
        t.in_recovery <- false;
        t.rxt_out <- 0;
        apply_cwnd t (Stdlib.max t.ssthresh (2 * t.config.mss))
      end
      else begin
        (* Partial ACK: keep filling the remaining holes. *)
        t.high_rxt <- Stdlib.max t.high_rxt t.snd_una;
        retransmit_holes t
      end
    end
    else begin
      classic_ecn_reaction t pkt;
      t.algo.Cc.on_ack t.view ~acked ~rtt ~ce_marked:pkt.ece
    end;
    complete_messages t;
    if t.fin_sent && t.snd_una >= t.snd_nxt then begin
      t.state <- Closed;
      cancel_rto t
    end
    else arm_rto t;
    try_send t
  end
  else if pkt.ack = t.snd_una && t.snd_nxt > t.snd_una && pkt.payload = 0 then begin
    t.dupacks <- t.dupacks + 1;
    if Obs.Trace.enabled t.tracer then
      Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
        (Obs.Trace.Dupack { flow = t.key; ack = pkt.ack; count = t.dupacks });
    if t.in_recovery then begin
      (* The SACK information freshly absorbed may open the window. *)
      retransmit_holes t;
      try_send t
    end
    else if t.dupacks >= 3 then begin
      enter_fast_recovery t;
      try_send t
    end
  end
  else try_send t

(* ------------------------------------------------------------------ *)
(* Handshake and dispatch                                              *)

let connect t =
  assert t.is_client;
  if Obs.Attrib.enabled t.attrib then
    Obs.Attrib.start t.attrib ~now:(Engine.now t.engine) t.key;
  t.state <- Syn_sent;
  let pkt = syn_packet t in
  t.snd_una <- 0;
  t.snd_nxt <- 1;
  (* Time the handshake: the SYN/SYN-ACK exchange seeds the RTO estimator,
     as in real stacks. *)
  t.rtt_seq <- 1;
  t.rtt_sent_at <- Engine.now t.engine;
  emit t pkt;
  arm_rto t

let establish t =
  t.state <- Established;
  t.established_cb ()

let syn_ack_packet t =
  Packet.make ~key:t.key ~seq:0 ~syn:true ~has_ack:true ~ack:t.rcv_nxt
    ~rwnd_field:(Stdlib.min 0xFFFF t.config.rcv_buf)
    ~options:[ Packet.Mss t.config.mss; Packet.Window_scale t.config.wscale ]
    ~payload:0 ()

let handle_syn t (pkt : Packet.t) =
  (* Server side: record the client's sequence space and scale factor. *)
  t.rcv_nxt <- pkt.seq + 1;
  (match Packet.wscale pkt with Some s -> t.peer_wscale <- s | None -> t.peer_wscale <- 0);
  t.peer_rwnd <- pkt.rwnd_field;
  t.state <- Syn_received;
  t.snd_una <- 0;
  t.snd_nxt <- 1;
  emit t (syn_ack_packet t)

let handle_syn_ack t (pkt : Packet.t) =
  (match Packet.wscale pkt with Some s -> t.peer_wscale <- s | None -> t.peer_wscale <- 0);
  t.rcv_nxt <- pkt.seq + 1;
  t.snd_una <- pkt.ack;
  if t.rtt_seq >= 0 && pkt.ack >= t.rtt_seq then begin
    Rto.observe t.rto (Time_ns.diff (Engine.now t.engine) t.rtt_sent_at);
    t.rtt_seq <- -1
  end;
  (* The window field in a SYN/SYN-ACK is never scaled (RFC 7323). *)
  t.peer_rwnd <- pkt.rwnd_field;
  send_pure_ack t;
  cancel_rto t;
  establish t;
  try_send t

let handle_fin t (pkt : Packet.t) =
  ignore pkt;
  (* Passive close: acknowledge and send our own FIN if we have no data. *)
  if t.state = Established && not t.fin_sent then close t;
  if t.state = Fin_wait && t.fin_received then t.state <- Closing

let input_unprofiled t (pkt : Packet.t) =
  match t.state with
  | Listen -> if pkt.syn && not pkt.has_ack then handle_syn t pkt
  | Syn_sent -> if pkt.syn && pkt.has_ack then handle_syn_ack t pkt
  | Syn_received ->
    if pkt.syn && not pkt.has_ack then
      (* A retransmitted SYN means our SYN-ACK was lost. *)
      emit t (syn_ack_packet t)
    else begin
      if pkt.has_ack && pkt.ack >= t.snd_nxt then begin
        update_peer_window t pkt;
        establish t
      end;
      if pkt.payload > 0 then handle_data t pkt
    end
  | Established | Fin_wait | Closing ->
    if pkt.syn then
      (* A duplicate SYN-ACK (our handshake ACK was lost).  Its window
         field is unscaled (RFC 7323), so it must not reach
         [update_peer_window]; just re-acknowledge. *)
      send_pure_ack t
    else begin
      if pkt.payload > 0 || pkt.fin then handle_data t pkt;
      if pkt.has_ack then handle_ack t pkt;
      if pkt.fin then handle_fin t pkt
    end
  | Closed -> ()

let input t (pkt : Packet.t) =
  if !Profcore.on then begin
    let tok = Profcore.enter Profcore.Site.tcp_endpoint in
    input_unprofiled t pkt;
    Profcore.leave tok
  end
  else input_unprofiled t pkt

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let state t = t.state
let key t = t.key
let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let snd_una t = t.snd_una
let snd_nxt t = t.snd_nxt
let peer_rwnd t = t.peer_rwnd
let bytes_acked t = t.bytes_acked
let retransmissions t = t.retransmissions
let timeouts t = t.timeouts
let cc_name t = t.algo.Cc.name
let srtt t = Rto.srtt t.rto
let rto t = Rto.timeout t.rto

let register_probes t ~ts ~prefix ~interval =
  ignore
    (Obs.Timeseries.probe ts ~name:(prefix ^ ".srtt_us") ~unit_label:"us" ~interval (fun () ->
         Option.map (fun s -> Time_ns.to_sec s *. 1e6) (Rto.srtt t.rto)));
  ignore
    (Obs.Timeseries.probe ts ~name:(prefix ^ ".rto_us") ~unit_label:"us" ~interval (fun () ->
         Some (Time_ns.to_sec (Rto.timeout t.rto) *. 1e6)));
  ignore
    (Obs.Timeseries.probe ts ~name:(prefix ^ ".cwnd") ~unit_label:"bytes" ~interval (fun () ->
         Some (float_of_int t.cwnd)))
let set_rtt_hook t f = t.rtt_hook <- f
let set_cwnd_hook t f = t.cwnd_hook <- f

let add_cwnd_hook t f =
  let prev = t.cwnd_hook in
  t.cwnd_hook <-
    (fun now w ->
      prev now w;
      f now w)

let set_bytes_hook t f = t.bytes_hook <- f
