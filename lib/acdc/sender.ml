module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet
module Flow_key = Dcpkt.Flow_key

let src = Logs.Src.create "acdc.sender" ~doc:"AC/DC sender-side vSwitch module"

module Log = (val Logs.src_log src : Logs.LOG)

type flow = {
  key : Flow_key.t;
  policy : Config.policy;
  (* Connection tracking (§3.1). *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable dupacks : int;
  (* DCTCP state (Fig. 5). *)
  mutable wnd : int; (* computed congestion window, bytes *)
  mutable ssthresh : int;
  mutable alpha : float;
  mutable last_total : int; (* cumulative PACK counters last seen *)
  mutable last_marked : int;
  mutable win_total : int; (* per-RTT-window accounting *)
  mutable win_marked : int;
  mutable window_end : int; (* alpha updates when snd_una passes this seq *)
  mutable cut_this_window : bool;
  (* Enforcement plumbing (§3.3). *)
  mutable peer_wscale : int; (* receiver's window-scale shift *)
  mutable vm_ect : bool; (* the VM's stack set ECT itself *)
  (* Custom vSwitch congestion control (Config.Custom). *)
  mutable cc : Tcp.Cc.t option;
  (* vSwitch RTT estimation: one Karn-safe probe at a time. *)
  mutable probe_seq : int; (* -1 when no probe outstanding *)
  mutable probe_time : Time_ns.t;
  mutable srtt : Time_ns.t option;
  (* Timeout inference. *)
  mutable timer : Engine.timer option;
  mutable deadline : Time_ns.t;
}

type t = {
  engine : Engine.t;
  config : Config.t;
  table : flow Vswitch.Flow_table.t;
  tracer : Obs.Trace.t;
  m_rwnd_rewrites : Obs.Metrics.counter;
  m_policer_drops : Obs.Metrics.counter;
  m_inferred_timeouts : Obs.Metrics.counter;
  m_retransmit_assists : Obs.Metrics.counter;
  m_dupacks : Obs.Metrics.counter;
  m_alpha_updates : Obs.Metrics.counter;
  mutable vm_inject : (Packet.t -> unit) option;
  mutable window_hook : Flow_key.t -> Time_ns.t -> int -> unit;
}

let create engine config =
  let scope = Obs.Metrics.scope (Obs.Runtime.metrics ()) "acdc.sender" in
  {
    engine;
    config;
    table = Vswitch.Flow_table.create engine ();
    tracer = Obs.Runtime.tracer ();
    m_rwnd_rewrites = Obs.Metrics.scope_counter scope "rwnd_rewrites";
    m_policer_drops = Obs.Metrics.scope_counter scope "policer_drops";
    m_inferred_timeouts = Obs.Metrics.scope_counter scope "inferred_timeouts";
    m_retransmit_assists = Obs.Metrics.scope_counter scope "retransmit_assists";
    m_dupacks = Obs.Metrics.scope_counter scope "dupacks";
    m_alpha_updates = Obs.Metrics.scope_counter scope "alpha_updates";
    vm_inject = None;
    window_hook = (fun _ _ _ -> ());
  }

let fresh_flow t key seq =
  let policy = t.config.Config.policy key in
  {
    key;
    policy;
    snd_una = seq;
    snd_nxt = seq;
    dupacks = 0;
    wnd = t.config.Config.init_window_segments * t.config.Config.mss;
    ssthresh = 1 lsl 30;
    alpha = 1.0;
    last_total = 0;
    last_marked = 0;
    win_total = 0;
    win_marked = 0;
    window_end = seq;
    cut_this_window = false;
    peer_wscale = 0;
    vm_ect = false;
    cc =
      (match policy.Config.algorithm with
      | Config.Custom factory -> Some (factory ())
      | Config.Dctcp | Config.Reno_like -> None);
    probe_seq = -1;
    probe_time = Time_ns.zero;
    srtt = None;
    timer = None;
    deadline = Time_ns.zero;
  }

let enforced_window t flow =
  let w = Stdlib.max t.config.Config.min_window_bytes flow.wnd in
  match flow.policy.Config.max_rwnd with Some m -> Stdlib.min m w | None -> w

let cc_view t flow =
  {
    Tcp.Cc.now = (fun () -> Engine.now t.engine);
    mss = t.config.Config.mss;
    get_cwnd = (fun () -> flow.wnd);
    set_cwnd = (fun w -> flow.wnd <- Stdlib.max t.config.Config.min_window_bytes w);
    get_ssthresh = (fun () -> flow.ssthresh);
    set_ssthresh = (fun v -> flow.ssthresh <- v);
    in_flight = (fun () -> flow.snd_nxt - flow.snd_una);
    srtt = (fun () -> flow.srtt);
  }

(* Scale a byte window into the 16-bit field, rounding up: flooring would
   silently shave up to [2^wscale - 1] bytes off every enforced window and
   break the Fig. 6 CWND/RWND equivalence at small clamps. *)
(* The field is 16 bits on the wire: a large enforced window with a small
   negotiated shift must saturate, not overflow — an unclamped value here
   would advertise a garbage (mod-2^16) window in injected ACKs. *)
let window_field flow window =
  Stdlib.min 0xFFFF
    (Stdlib.max 1 ((window + (1 lsl flow.peer_wscale) - 1) lsr flow.peer_wscale))

(* ------------------------------------------------------------------ *)
(* Timeout inference: a lazily re-armed inactivity timer per flow.     *)

let rec arm_timer t flow =
  flow.deadline <- Time_ns.add (Engine.now t.engine) t.config.Config.inactivity_timeout;
  if flow.timer = None then
    flow.timer <-
      Some
        (Engine.timer_after t.engine ~delay:t.config.Config.inactivity_timeout (fun () ->
             fire_timer t flow))

and fire_timer t flow =
  flow.timer <- None;
  let now = Engine.now t.engine in
  if now < flow.deadline then begin
    (* Activity since we were armed: sleep until the fresh deadline. *)
    flow.timer <-
      Some
        (Engine.timer_after t.engine
           ~delay:(Time_ns.diff flow.deadline now)
           (fun () -> fire_timer t flow))
  end
  else if flow.snd_una < flow.snd_nxt then begin
    (* Silence with data outstanding: the VM's flow timed out (§3.1). *)
    Obs.Metrics.incr t.m_inferred_timeouts;
    if Obs.Trace.enabled t.tracer then
      Obs.Trace.emit t.tracer ~now
        (Obs.Trace.Rto_fire
           {
             flow = flow.key;
             inferred = true;
             count = Obs.Metrics.value t.m_inferred_timeouts;
           });
    Log.debug (fun m ->
        m "flow %a: inferred timeout (snd_una=%d snd_nxt=%d)" Flow_key.pp flow.key
          flow.snd_una flow.snd_nxt);
    flow.alpha <- t.config.Config.max_alpha;
    flow.ssthresh <- Stdlib.max (2 * t.config.Config.mss) (flow.wnd / 2);
    flow.wnd <- t.config.Config.mss;
    flow.window_end <- flow.snd_nxt;
    flow.cut_this_window <- false;
    flow.dupacks <- 0;
    flow.probe_seq <- -1;
    (match flow.cc with
    | Some cc -> cc.Tcp.Cc.on_rto (cc_view t flow)
    | None -> ());
    assist_retransmit t flow;
    arm_timer t flow
  end

(* §3.3: "the sender module can generate duplicate ACKs to trigger
   retransmissions" — three synthetic dupacks wake a tenant stack whose
   own RTO is far longer than the fabric's RTT. *)
and assist_retransmit t flow =
  match t.vm_inject with
  | Some inject when t.config.Config.retransmit_assist ->
    Obs.Metrics.incr t.m_retransmit_assists;
    let window = Stdlib.max t.config.Config.min_window_bytes flow.wnd in
    for _ = 1 to 3 do
      let pkt =
        Packet.make ~key:(Flow_key.reverse flow.key) ~ack:flow.snd_una ~has_ack:true
          ~rwnd_field:(window_field flow window) ~payload:0 ()
      in
      if Obs.Trace.enabled t.tracer then
        Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
          (Obs.Trace.created ~kind:"assist_ack"
             ~node:(Printf.sprintf "host%d" flow.key.Flow_key.src_ip)
             pkt);
      inject pkt
    done
  | Some _ | None -> ()

let cancel_timer flow =
  match flow.timer with
  | Some timer ->
    Engine.cancel timer;
    flow.timer <- None
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Egress: data packets from the VM                                    *)

let force_ect flow (pkt : Packet.t) =
  flow.vm_ect <- Packet.is_ect pkt;
  pkt.Packet.vm_ect <- flow.vm_ect;
  pkt.Packet.ecn <- Packet.Ect0

(* Flows are created by an egress SYN (the paper's trigger) or, for
   robustness against mid-stream attachment, by egress data.  Pure control
   packets — the ACK stream of connections where this host is the data
   *receiver* — never create sender-side state. *)
let egress_flow t (pkt : Packet.t) =
  match Vswitch.Flow_table.find t.table pkt.Packet.key with
  | Some _ as found -> found
  | None ->
    if (pkt.Packet.syn && not pkt.Packet.has_ack) || pkt.Packet.payload > 0 then begin
      Log.debug (fun m -> m "flow %a: tracking started" Flow_key.pp pkt.Packet.key);
      Some
        (Vswitch.Flow_table.find_or_create t.table pkt.Packet.key ~make:(fun () ->
             fresh_flow t pkt.Packet.key pkt.Packet.seq))
    end
    else None

let egress t (pkt : Packet.t) ~inject:_ =
  match egress_flow t pkt with
  | None -> Vswitch.Datapath.Pass
  | Some flow ->
  if pkt.Packet.fin then Vswitch.Flow_table.mark_closed t.table pkt.Packet.key;
  if pkt.Packet.payload > 0 then begin
    (* Exempt flows (§3.4) keep their own ECN behaviour end to end. *)
    if flow.policy.Config.enforce then force_ect flow pkt;
    let seq_end = Packet.seq_end pkt in
    let fresh_data = seq_end > flow.snd_nxt in
    let verdict =
      match t.config.Config.policing_slack with
      | Some slack
        when flow.policy.Config.enforce
             && seq_end - flow.snd_una > enforced_window t flow + slack ->
        (* Non-conforming stack: drop the excess (§3.3). *)
        Obs.Metrics.incr t.m_policer_drops;
        if Obs.Trace.enabled t.tracer then
          Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
            (Obs.Trace.Policer_drop
               {
                 flow = flow.key;
                 pkt = pkt.Packet.id;
                 seq = pkt.Packet.seq;
                 window = enforced_window t flow;
               });
        Log.debug (fun m ->
            m "flow %a: policed packet seq=%d beyond window %d" Flow_key.pp flow.key
              pkt.Packet.seq (enforced_window t flow));
        Vswitch.Datapath.Drop
      | Some _ | None -> Vswitch.Datapath.Pass
    in
    if verdict = Vswitch.Datapath.Pass then begin
      if fresh_data then begin
        (* Time one un-retransmitted segment per window (Karn's rule from
           the vSwitch's vantage point). *)
        if flow.probe_seq < 0 then begin
          flow.probe_seq <- seq_end;
          flow.probe_time <- Engine.now t.engine
        end;
        flow.snd_nxt <- seq_end;
        arm_timer t flow
      end
      else if flow.probe_seq >= 0 && pkt.Packet.seq < flow.probe_seq then
        (* A retransmission below the probe invalidates it. *)
        flow.probe_seq <- -1
    end;
    verdict
  end
  else begin
    if pkt.Packet.syn then flow.snd_nxt <- Packet.seq_end pkt;
    Vswitch.Datapath.Pass
  end

(* ------------------------------------------------------------------ *)
(* Ingress: ACK stream from the receiver                               *)

let congestion_avoid t flow ~acked =
  if flow.wnd < flow.ssthresh then
    (* Slow start. *)
    flow.wnd <- flow.wnd + Stdlib.min acked t.config.Config.mss
  else begin
    let mss = t.config.Config.mss in
    flow.wnd <- flow.wnd + Stdlib.max 1 (mss * Stdlib.min acked mss / Stdlib.max 1 flow.wnd)
  end

let cut_window t flow =
  if not flow.cut_this_window then begin
    flow.cut_this_window <- true;
    Log.debug (fun m ->
        m "flow %a: cut wnd=%d alpha=%.3f beta=%.2f" Flow_key.pp flow.key flow.wnd flow.alpha
          flow.policy.Config.beta);
    let beta = flow.policy.Config.beta in
    (* Eq. 1: rwnd <- rwnd * (1 - (alpha - alpha * beta / 2)). *)
    let factor = 1.0 -. (flow.alpha -. (flow.alpha *. beta /. 2.0)) in
    let next = int_of_float (float_of_int flow.wnd *. factor) in
    flow.wnd <- Stdlib.max t.config.Config.min_window_bytes next;
    flow.ssthresh <- Stdlib.max (2 * t.config.Config.mss) flow.wnd
  end

let update_alpha t flow =
  if flow.win_total > 0 then begin
    let fraction = float_of_int flow.win_marked /. float_of_int flow.win_total in
    let g = t.config.Config.g in
    flow.alpha <- ((1.0 -. g) *. flow.alpha) +. (g *. fraction);
    Obs.Metrics.incr t.m_alpha_updates;
    if Obs.Trace.enabled t.tracer then
      Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
        (Obs.Trace.Alpha_update { flow = flow.key; alpha = flow.alpha; fraction })
  end;
  flow.win_total <- 0;
  flow.win_marked <- 0;
  flow.window_end <- flow.snd_nxt;
  flow.cut_this_window <- false

(* Consume the cumulative PACK counters; returns whether any newly
   reported bytes were CE-marked. *)
let absorb_feedback flow ~total ~marked =
  let d_total = Stdlib.max 0 (total - flow.last_total) in
  let d_marked = Stdlib.max 0 (marked - flow.last_marked) in
  flow.last_total <- Stdlib.max flow.last_total total;
  flow.last_marked <- Stdlib.max flow.last_marked marked;
  flow.win_total <- flow.win_total + d_total;
  flow.win_marked <- flow.win_marked + d_marked;
  d_marked > 0

(* [absorb_feedback] on the first PACK option of an ACK, if any; read in
   place because [Packet.pack_info] boxes its pair on every ACK. *)
let rec absorb_pack flow = function
  | [] -> false
  | Packet.Pack { total_bytes; marked_bytes } :: _ ->
    absorb_feedback flow ~total:total_bytes ~marked:marked_bytes
  | (Packet.Mss _ | Packet.Window_scale _ | Packet.Sack _) :: rest -> absorb_pack flow rest

let process_feedback t flow ~acked ~congested ~loss ~rtt =
  ignore rtt;
  match flow.policy.Config.algorithm with
  | Config.Dctcp ->
    (* Fig. 5, in order: alpha once per RTT, then loss, congestion, growth. *)
    if flow.snd_una >= flow.window_end then update_alpha t flow;
    if loss then begin
      flow.alpha <- t.config.Config.max_alpha;
      cut_window t flow
    end
    else if congested then cut_window t flow
    else if acked > 0 then congestion_avoid t flow ~acked
  | Config.Reno_like ->
    (* Loss-driven AIMD for flows the administrator exempts from ECN-based
       control (§3.4's WAN assignment); ECN feedback is ignored. *)
    if flow.snd_una >= flow.window_end then begin
      flow.window_end <- flow.snd_nxt;
      flow.cut_this_window <- false
    end;
    if loss then begin
      if not flow.cut_this_window then begin
        flow.cut_this_window <- true;
        flow.wnd <- Stdlib.max t.config.Config.min_window_bytes (flow.wnd / 2);
        flow.ssthresh <- Stdlib.max (2 * t.config.Config.mss) flow.wnd
      end
    end
    else if acked > 0 then congestion_avoid t flow ~acked
  | Config.Custom _ ->
    let cc = match flow.cc with Some cc -> cc | None -> assert false in
    let view = cc_view t flow in
    if flow.snd_una >= flow.window_end then begin
      flow.window_end <- flow.snd_nxt;
      flow.cut_this_window <- false
    end;
    if loss then begin
      if not flow.cut_this_window then begin
        flow.cut_this_window <- true;
        cc.Tcp.Cc.on_congestion view Tcp.Cc.Dup_acks
      end
    end
    else if congested && (not cc.Tcp.Cc.per_ack_ecn) && not flow.cut_this_window then begin
      flow.cut_this_window <- true;
      cc.Tcp.Cc.on_congestion view Tcp.Cc.Ecn;
      if acked > 0 then () (* the cut already consumed this ACK *)
    end
    else if acked > 0 then cc.Tcp.Cc.on_ack view ~acked ~rtt ~ce_marked:congested

let rewrite_rwnd t flow (pkt : Packet.t) =
  let window = enforced_window t flow in
  t.window_hook flow.key (Engine.now t.engine) window;
  if (not t.config.Config.log_only) && flow.policy.Config.enforce then begin
    let field = window_field flow window in
    (* Causal attribution: whether the window the tenant is about to see
       binds because *we* shrank it, or is its receiver's own
       advertisement.  Recorded before the rewrite so it reflects this
       exact decision; the stall accountant resolves rwnd-limited stalls
       against it. *)
    let attrib = Obs.Runtime.attrib () in
    if Obs.Attrib.enabled attrib then
      Obs.Attrib.set_enforced attrib flow.key (field < pkt.Packet.rwnd_field);
    (* Preserve TCP semantics: only shrink, never grow, the advertised
       window (§3.3). *)
    if field < pkt.Packet.rwnd_field then begin
      pkt.Packet.rwnd_field <- field;
      Obs.Metrics.incr t.m_rwnd_rewrites;
      if Obs.Trace.enabled t.tracer then
        Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
          (Obs.Trace.Rwnd_rewrite { flow = flow.key; pkt = pkt.Packet.id; window; field })
    end
  end

let handle_ack t flow (pkt : Packet.t) =
  let congested = absorb_pack flow pkt.Packet.options in
  let rtt_sample =
    if flow.probe_seq >= 0 && pkt.Packet.ack >= flow.probe_seq then begin
      let sample = Time_ns.diff (Engine.now t.engine) flow.probe_time in
      flow.probe_seq <- -1;
      (* RFC 6298 smoothing, enough for the algorithms that look at it. *)
      (match flow.srtt with
      | None -> flow.srtt <- Some sample
      | Some prev -> flow.srtt <- Some ((7 * prev / 8) + (sample / 8)));
      Some sample
    end
    else None
  in
  let acked =
    if pkt.Packet.ack > flow.snd_una then begin
      let bytes = pkt.Packet.ack - flow.snd_una in
      flow.snd_una <- pkt.Packet.ack;
      flow.dupacks <- 0;
      if flow.snd_una < flow.snd_nxt then arm_timer t flow
      else begin
        flow.deadline <- Time_ns.add (Engine.now t.engine) t.config.Config.inactivity_timeout;
        cancel_timer flow
      end;
      bytes
    end
    else begin
      if pkt.Packet.ack = flow.snd_una && pkt.Packet.payload = 0 && flow.snd_una < flow.snd_nxt
      then begin
        flow.dupacks <- flow.dupacks + 1;
        Obs.Metrics.incr t.m_dupacks;
        if Obs.Trace.enabled t.tracer then
          Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
            (Obs.Trace.Dupack { flow = flow.key; ack = pkt.Packet.ack; count = flow.dupacks })
      end;
      0
    end
  in
  let loss = flow.dupacks = 3 in
  process_feedback t flow ~acked ~congested ~loss ~rtt:rtt_sample

let ingress t (pkt : Packet.t) ~inject:_ =
  match Vswitch.Flow_table.find_reverse t.table pkt.Packet.key with
  | None -> Vswitch.Datapath.Pass
  | Some flow ->
    if pkt.Packet.syn then begin
      (* SYN-ACK: learn the receiver's window scale so enforced windows are
         written in the right units (§3.3), and absorb its cumulative ACK
         (it covers the SYN). *)
      (match Packet.wscale pkt with Some s -> flow.peer_wscale <- s | None -> ());
      if pkt.Packet.has_ack && pkt.Packet.ack > flow.snd_una then
        flow.snd_una <- pkt.Packet.ack;
      Vswitch.Datapath.Pass
    end
    else if not pkt.Packet.has_ack then begin
      match Packet.pack_info pkt with
      | Some (total, marked) ->
        (* Dedicated FACK: log the feedback and discard (§3.2). *)
        let congested = absorb_feedback flow ~total ~marked in
        process_feedback t flow ~acked:0 ~congested ~loss:false ~rtt:None;
        Vswitch.Datapath.Drop
      | None -> Vswitch.Datapath.Pass
    end
    else begin
      handle_ack t flow pkt;
      rewrite_rwnd t flow pkt;
      Packet.remove_pack pkt;
      (* Hide ECN feedback from the tenant stack (§3.2); in log-only mode
         AC/DC is fully passive, and exempt flows keep their feedback. *)
      if (not t.config.Config.log_only) && flow.policy.Config.enforce then
        pkt.Packet.ece <- false;
      if pkt.Packet.fin then Vswitch.Flow_table.mark_closed t.table flow.key;
      Vswitch.Datapath.Pass
    end

(* ------------------------------------------------------------------ *)
(* Window updates injected toward the VM                               *)

let window_update t key ~to_vm =
  match Vswitch.Flow_table.find t.table key with
  | None -> false
  | Some flow ->
    let window = enforced_window t flow in
    let pkt =
      Packet.make ~key:(Flow_key.reverse key) ~ack:flow.snd_una ~has_ack:true
        ~rwnd_field:(window_field flow window) ~payload:0 ()
    in
    if Obs.Trace.enabled t.tracer then
      Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
        (Obs.Trace.created ~kind:"window_update"
           ~node:(Printf.sprintf "host%d" key.Flow_key.src_ip)
           pkt);
    to_vm pkt;
    true

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let flow_window t key =
  Option.map (fun flow -> enforced_window t flow) (Vswitch.Flow_table.find t.table key)

let flow_alpha t key =
  Option.map (fun flow -> flow.alpha) (Vswitch.Flow_table.find t.table key)

let flow_inflight t key =
  Option.map (fun flow -> flow.snd_nxt - flow.snd_una) (Vswitch.Flow_table.find t.table key)

type flow_state = {
  fs_key : Flow_key.t;
  fs_snd_una : int;
  fs_snd_nxt : int;
  fs_enforced_window : int;
  fs_rwnd_field : int;
  fs_peer_wscale : int;
}

let iter_flow_states t ~f =
  Vswitch.Flow_table.iter t.table ~f:(fun key flow ->
      let window = enforced_window t flow in
      f
        {
          fs_key = key;
          fs_snd_una = flow.snd_una;
          fs_snd_nxt = flow.snd_nxt;
          fs_enforced_window = window;
          fs_rwnd_field = window_field flow window;
          fs_peer_wscale = flow.peer_wscale;
        })

let register_flow_probes t ~ts ~prefix ~interval key =
  let sample f () = Option.map f (Vswitch.Flow_table.find t.table key) in
  ignore
    (Obs.Timeseries.probe ts ~name:(prefix ^ ".rwnd") ~unit_label:"bytes" ~interval
       (sample (fun flow -> float_of_int (enforced_window t flow))));
  ignore
    (Obs.Timeseries.probe ts ~name:(prefix ^ ".alpha") ~interval
       (sample (fun flow -> flow.alpha)));
  ignore
    (Obs.Timeseries.probe ts ~name:(prefix ^ ".inflight") ~unit_label:"bytes" ~interval
       (sample (fun flow -> float_of_int (flow.snd_nxt - flow.snd_una))))

let set_vm_injector t inject = t.vm_inject <- Some inject
let retransmit_assists t = Obs.Metrics.value t.m_retransmit_assists
let tracked_flows t = Vswitch.Flow_table.length t.table
let rwnd_rewrites t = Obs.Metrics.value t.m_rwnd_rewrites
let policer_drops t = Obs.Metrics.value t.m_policer_drops
let inferred_timeouts t = Obs.Metrics.value t.m_inferred_timeouts
let set_window_hook t f = t.window_hook <- f

let shutdown t =
  Vswitch.Flow_table.iter t.table ~f:(fun _ flow -> cancel_timer flow);
  Vswitch.Flow_table.stop_gc t.table
