module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Rng = Eventsim.Rng
module Impair = Netsim.Impair
module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Scenario sampling                                                   *)

type topo_kind = Dumbbell of int | Star of int | Parking_lot of int | Leaf_spine

let topo_label = function
  | Dumbbell pairs -> Printf.sprintf "dumbbell/%d" pairs
  | Star hosts -> Printf.sprintf "star/%d" hosts
  | Parking_lot senders -> Printf.sprintf "parking-lot/%d" senders
  | Leaf_spine -> "leaf-spine/2x2x2"

type scenario = {
  seed : int;
  topo : topo_kind;
  cc_name : string;
  impair : Impair.config;
  misbehaving : bool;  (** connection 0 runs a hostile stack *)
  messages : (int * int list) list;  (** (src, message sizes); dst from topology *)
}

(* Bounded adversity: each knob stays in a range where a correct stack
   must still converge — that is what makes the invariants checkable.
   Loss beyond a few percent turns every run into an RTO benchmark. *)
let sample_impair rng =
  if Rng.float rng 1.0 < 0.2 then Impair.clean
  else
    let reorder = Rng.float rng 0.1 in
    {
      Impair.loss = Rng.float rng 0.02;
      dup = Rng.float rng 0.01;
      corrupt = Rng.float rng 0.005;
      strip_pack = Rng.float rng 0.2;
      reorder;
      reorder_delay =
        (if reorder > 0. then Time_ns.us (20 + Rng.int rng 80) else Time_ns.zero);
      jitter = Time_ns.ns (Rng.int rng 1_000);
    }

let scenario_of_seed ~seed =
  let rng = Rng.create ~seed in
  let topo =
    match Rng.int rng 4 with
    | 0 -> Dumbbell (2 + Rng.int rng 3)
    | 1 -> Star (3 + Rng.int rng 4)
    | 2 -> Parking_lot (2 + Rng.int rng 2)
    | _ -> Leaf_spine
  in
  let senders =
    match topo with
    | Dumbbell pairs -> pairs
    | Star hosts -> hosts - 1
    | Parking_lot senders -> senders
    | Leaf_spine -> 4
  in
  let cc_name, _ = Rng.pick rng (Array.of_list Tcp.Cc_registry.all) in
  let impair = sample_impair rng in
  let misbehaving = Rng.float rng 1.0 < 0.3 in
  let messages =
    List.init senders (fun i ->
        let n = 1 + Rng.int rng 3 in
        (i, List.init n (fun _ -> 20_000 + Rng.int rng 500_000)))
  in
  { seed; topo; cc_name; impair; misbehaving; messages }

(* Destination host for sender [i] in each topology. *)
let dst_of topo i =
  match topo with
  | Dumbbell pairs -> pairs + i
  | Star _ -> 0
  | Parking_lot senders -> senders
  | Leaf_spine -> (i + 2) mod 4

let src_of topo i = match topo with Star _ -> i + 1 | _ -> i

(* ------------------------------------------------------------------ *)
(* One run + its invariants                                            *)

type violation = { invariant : string; detail : string }

type outcome = {
  scenario : scenario;
  violations : violation list;
  completed : int;
  expected : int;
  conforming_retx : int;
  conforming_acked_segments : int;
  policer_drops : int;
  finished_at : Time_ns.t;  (** virtual time the last message completed *)
}

(* Generous: handshake packets enjoy no RTT estimate, so each loss costs
   the RFC 6298 1 s initial RTO (then 2 s backoff) — 5 s of virtual time
   absorbs two consecutive handshake losses, and virtual idle time is
   free.  Three in a row is ~1e-4 per fuzz batch; a replayable seed will
   say so if it ever happens. *)
let virtual_deadline = Time_ns.sec 5.0

(* Retransmission-storm bound for conforming stacks: impairments lose at
   most ~2% of packets, so anything beyond ~a third of acked segments
   (plus slack for go-back-N bursts and tiny runs) is pathological. *)
let storm_bound ~acked_segments = 100 + (acked_segments * 35 / 100)

let run_scenario scenario =
  (* Per-scenario isolation: a zeroed ambient registry — also what makes a
     fixed-seed fuzz report byte-identical across runs.  Packet ids carry
     on from the previous scenario: they reach only traces and wire bytes,
     and one trace of a batch must not reuse them. *)
  Obs.Runtime.reset_metrics ();
  (* Attribution is on for every scenario: invariant 7 wants the exactness
     contract checked against random send/stall schedules, and the fuzzer
     already generates exactly those. *)
  Obs.Runtime.reset_attrib ();
  let attrib = Obs.Runtime.attrib () in
  let attrib_was = Obs.Attrib.enabled attrib in
  Obs.Attrib.set_enabled attrib true;
  Fun.protect ~finally:(fun () -> Obs.Attrib.set_enabled attrib attrib_was) @@ fun () ->
  let engine = Engine.create () in
  let scheme = Harness.acdc ~host_cc:(Tcp.Cc_registry.find scenario.cc_name) () in
  let params =
    Fabric.Params.with_impairment
      (Harness.params_for scheme Fabric.Params.default)
      ~seed:(scenario.seed + 1_000_000) scenario.impair
  in
  (* Policing on, with slack covering the window staleness that lossy and
     reordered feedback legitimately causes (the conformance invariant
     below demands zero drops from honest stacks). *)
  let acdc_cfg =
    {
      (Fabric.Params.acdc_config params) with
      Acdc.Config.policing_slack =
        Some (if scenario.misbehaving then 256 * 1024 else 2 * 1024 * 1024);
    }
  in
  let net =
    match scenario.topo with
    | Dumbbell pairs ->
      Fabric.Topology.dumbbell engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~pairs ()
    | Star hosts ->
      Fabric.Topology.star engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~hosts ()
    | Parking_lot senders ->
      Fabric.Topology.parking_lot engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~senders ()
    | Leaf_spine ->
      Fabric.Topology.leaf_spine engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~leaves:2
        ~spines:2 ~hosts_per_leaf:2 ()
  in
  let honest_config = Harness.host_config scheme params in
  let expected = List.fold_left (fun acc (_, msgs) -> acc + List.length msgs) 0 scenario.messages in
  let completed = ref 0 in
  let finished_at = ref Time_ns.zero in
  let conns =
    List.mapi
      (fun idx (i, msgs) ->
        let config =
          if scenario.misbehaving && idx = 0 then Tcp.Endpoint.misbehaving honest_config
          else honest_config
        in
        let conn =
          Fabric.Conn.establish
            ~src:(Fabric.Topology.host net (src_of scenario.topo i))
            ~dst:(Fabric.Topology.host net (dst_of scenario.topo i))
            ~config
            ~at:(Time_ns.us (50 * idx))
            ()
        in
        List.iter
          (fun bytes ->
            Fabric.Conn.send_message conn ~bytes ~on_complete:(fun _ ->
                incr completed;
                finished_at := Engine.now engine))
          msgs;
        (idx, conn))
      scenario.messages
  in
  Engine.run ~until:virtual_deadline engine;
  (* ---- invariants ---- *)
  let violations = ref [] in
  let fail invariant detail = violations := { invariant; detail } :: !violations in
  (* 1. Every message eventually completes. *)
  if !completed <> expected then
    fail "completion"
      (Printf.sprintf "%d of %d messages completed within %.1fs virtual" !completed expected
         (Time_ns.to_sec virtual_deadline));
  (* 2. No retransmission storm on conforming stacks. *)
  let conforming =
    List.filter_map
      (fun (idx, conn) ->
        if scenario.misbehaving && idx = 0 then None else Some conn)
      conns
  in
  let mss = Fabric.Params.mss params in
  let retx =
    List.fold_left
      (fun acc c -> acc + Tcp.Endpoint.retransmissions (Fabric.Conn.client c))
      0 conforming
  in
  let acked_segments =
    List.fold_left (fun acc c -> acc + (Fabric.Conn.bytes_acked c / mss)) 0 conforming
  in
  if retx > storm_bound ~acked_segments then
    fail "retx-storm"
      (Printf.sprintf "%d retransmissions for %d acked segments (bound %d)" retx
         acked_segments (storm_bound ~acked_segments));
  (* 3. Switch byte books balance: what admission charged is exactly what
     the port queues still hold, never negative, never above capacity. *)
  Array.iter
    (fun sw ->
      let used = Netsim.Switch.buffer_used sw in
      let queued = ref 0 in
      for i = 0 to Netsim.Switch.port_count sw - 1 do
        queued := !queued + Netsim.Switch.port_queue_bytes sw i
      done;
      if used < 0 || used > params.Fabric.Params.buffer_bytes then
        fail "buffer-bounds"
          (Printf.sprintf "switch %s buffer_used=%d outside [0, %d]" (Netsim.Switch.name sw)
             used params.Fabric.Params.buffer_bytes);
      if used <> !queued then
        fail "buffer-accounting"
          (Printf.sprintf "switch %s buffer_used=%d but port queues hold %d"
             (Netsim.Switch.name sw) used !queued))
    net.Fabric.Topology.switches;
  (* 4 + 5. AC/DC sender state is coherent: cursors ordered, and the
     enforced window survives the round trip through the 16-bit field at
     the negotiated scale. *)
  Array.iter
    (fun host ->
      match Fabric.Host.acdc host with
      | None -> ()
      | Some instance ->
        Acdc.Sender.iter_flow_states (Acdc.sender instance) ~f:(fun fs ->
            let open Acdc.Sender in
            if fs.fs_snd_una > fs.fs_snd_nxt then
              fail "acdc-cursors"
                (Format.asprintf "%a snd_una=%d > snd_nxt=%d" Dcpkt.Flow_key.pp fs.fs_key
                   fs.fs_snd_una fs.fs_snd_nxt);
            if fs.fs_rwnd_field < 1 || fs.fs_rwnd_field > 0xFFFF then
              fail "rwnd-field-range"
                (Format.asprintf "%a field=%d outside [1, 65535]" Dcpkt.Flow_key.pp fs.fs_key
                   fs.fs_rwnd_field);
            let advertised = fs.fs_rwnd_field lsl fs.fs_peer_wscale in
            let max_advertisable = 0xFFFF lsl fs.fs_peer_wscale in
            if advertised < Stdlib.min fs.fs_enforced_window max_advertisable then
              fail "rwnd-scale"
                (Format.asprintf "%a advertises %d for enforced window %d (wscale %d)"
                   Dcpkt.Flow_key.pp fs.fs_key advertised fs.fs_enforced_window
                   fs.fs_peer_wscale)))
    net.Fabric.Topology.hosts;
  (* 6. Policing never fires on conforming stacks. *)
  let policer_drops =
    Array.fold_left
      (fun acc host ->
        match Fabric.Host.acdc host with
        | Some instance -> acc + Acdc.Sender.policer_drops (Acdc.sender instance)
        | None -> acc)
      0 net.Fabric.Topology.hosts
  in
  if (not scenario.misbehaving) && policer_drops > 0 then
    fail "spurious-policing"
      (Printf.sprintf "%d policer drops with every stack conforming" policer_drops);
  (* 7. FCT attribution is causally exact: every completed flow's seven
     state durations sum to its FCT to the nanosecond, none is negative,
     and when every message completed, every connection has a snapshot. *)
  let snaps = Obs.Attrib.completed attrib in
  List.iter
    (fun (snap : Obs.Attrib.snapshot) ->
      let err = Obs.Attrib.exactness_error snap in
      if err <> 0 then
        fail "attrib-exactness"
          (Format.asprintf "%a state durations miss fct=%dns by %dns" Dcpkt.Flow_key.pp
             snap.Obs.Attrib.snap_flow snap.Obs.Attrib.snap_fct err);
      List.iter
        (fun (st, d) ->
          if d < 0 then
            fail "attrib-exactness"
              (Format.asprintf "%a negative %s duration %dns" Dcpkt.Flow_key.pp
                 snap.Obs.Attrib.snap_flow (Obs.Attrib.state_label st) d))
        snap.Obs.Attrib.snap_states)
    snaps;
  if !completed = expected && List.length snaps <> List.length conns then
    fail "attrib-coverage"
      (Printf.sprintf "%d connections but %d attribution snapshots" (List.length conns)
         (List.length snaps));
  Fabric.Topology.shutdown net;
  {
    scenario;
    violations = List.rev !violations;
    completed = !completed;
    expected;
    conforming_retx = retx;
    conforming_acked_segments = acked_segments;
    policer_drops;
    finished_at = !finished_at;
  }

(* ------------------------------------------------------------------ *)
(* Batch driver + report                                               *)

let run_seed seed = run_scenario (scenario_of_seed ~seed)

(* Seeds are [root, root + count): each scenario replayable alone by
   passing its printed seed back as [--fuzz 1 --seed N]. *)
let run ~count ~seed = List.init count (fun i -> run_seed (seed + i))

let scenario_json s =
  Json.Obj
    [
      ("seed", Json.Int s.seed);
      ("topology", Json.String (topo_label s.topo));
      ("cc", Json.String s.cc_name);
      ("misbehaving", Json.Bool s.misbehaving);
      ("impair", Impair.config_to_json s.impair);
    ]

let outcome_json o =
  Json.Obj
    [
      ("scenario", scenario_json o.scenario);
      ("completed", Json.Int o.completed);
      ("expected", Json.Int o.expected);
      ("conforming_retx", Json.Int o.conforming_retx);
      ("conforming_acked_segments", Json.Int o.conforming_acked_segments);
      ("policer_drops", Json.Int o.policer_drops);
      ("finished_at_us", Json.Float (Time_ns.to_us o.finished_at));
      ( "violations",
        Json.List
          (List.map
             (fun v -> Json.Obj [ ("invariant", Json.String v.invariant); ("detail", Json.String v.detail) ])
             o.violations) );
    ]

let report_of_outcomes outcomes =
  let report = Obs.Report.create ~id:"fuzz" in
  (match outcomes with
  | first :: _ -> Obs.Report.add_config report "root_seed" (Json.Int first.scenario.seed)
  | [] -> ());
  Obs.Report.add_config report "runs" (Json.List (List.map outcome_json outcomes));
  let failing = List.filter (fun o -> o.violations <> []) outcomes in
  Obs.Report.add_config report "failing_seeds"
    (Json.List (List.map (fun o -> Json.Int o.scenario.seed) failing));
  Obs.Report.add_int report "scenarios" (List.length outcomes);
  Obs.Report.add_int report "violations"
    (List.fold_left (fun acc o -> acc + List.length o.violations) 0 outcomes);
  Obs.Report.add_int report "policer_drops"
    (List.fold_left (fun acc o -> acc + o.policer_drops) 0 outcomes);
  (* Last scenario's registry (earlier ones were reset away): deterministic
     for a fixed root seed. *)
  Obs.Report.set_metrics report (Obs.Runtime.metrics ());
  report

let print_outcome o =
  let s = o.scenario in
  Format.printf "  seed %-6d %-15s %-10s %s%s  %d/%d msgs" s.seed (topo_label s.topo)
    s.cc_name
    (if Impair.is_clean s.impair then "clean   " else "impaired")
    (if s.misbehaving then "+cheater" else "        ")
    o.completed o.expected;
  if o.violations = [] then Format.printf "  ok@."
  else begin
    Format.printf "  FAIL@.";
    List.iter
      (fun v -> Format.printf "      [%s] %s (replay: --fuzz 1 --seed %d)@." v.invariant v.detail s.seed)
      o.violations
  end

(* ------------------------------------------------------------------ *)
(* Directed adversarial check (§3.3 acceptance)                        *)

type adversarial_result = {
  baseline_gbps : float list;  (** conforming flows, no cheater *)
  contested_gbps : float list;  (** the same flows beside the cheater *)
  cheater_gbps : float;
  adv_policer_drops : int;
  max_queue_bytes : int;  (** deepest port queue during the contested run *)
}

(* Two dumbbell runs over the same (optionally impaired) fabric: three
   conforming CUBIC pairs alone, then the same pairs with pair 0 swapped
   for an RWND-ignoring aggressive stack.  AC/DC holding the line means:
   the cheater is policed (nonzero drops, bounded queues) and the honest
   pairs' goodput barely moves. *)
let adversarial ?(impair = Impair.clean) ?(seed = 1) () =
  let pairs = 3 in
  let run ~with_cheater =
    Obs.Runtime.reset_metrics ();
    let engine = Engine.create () in
    let scheme = Harness.acdc () in
    let params =
      Fabric.Params.with_impairment
        (Harness.params_for scheme Fabric.Params.default)
        ~seed impair
    in
    let acdc_cfg =
      {
        (Fabric.Params.acdc_config params) with
        Acdc.Config.policing_slack = Some (128 * 1024);
      }
    in
    let net = Fabric.Topology.dumbbell engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~pairs () in
    let honest_config = Harness.host_config scheme params in
    let conns =
      List.init pairs (fun i ->
          let config =
            if with_cheater && i = 0 then Tcp.Endpoint.misbehaving honest_config
            else honest_config
          in
          let conn =
            Fabric.Conn.establish
              ~src:(Fabric.Topology.host net i)
              ~dst:(Fabric.Topology.host net (pairs + i))
              ~config ()
          in
          Fabric.Conn.send_forever conn;
          conn)
    in
    let warmup = Time_ns.ms 50 and duration = Time_ns.ms 200 in
    let goodputs = Harness.measure_goodput net conns ~warmup ~duration in
    let drops =
      Array.fold_left
        (fun acc host ->
          match Fabric.Host.acdc host with
          | Some instance -> acc + Acdc.Sender.policer_drops (Acdc.sender instance)
          | None -> acc)
        0 net.Fabric.Topology.hosts
    in
    let max_queue =
      Array.fold_left
        (fun acc sw ->
          let m = ref acc in
          for i = 0 to Netsim.Switch.port_count sw - 1 do
            m := Stdlib.max !m (Netsim.Switch.max_port_queue sw i)
          done;
          !m)
        0 net.Fabric.Topology.switches
    in
    Fabric.Topology.shutdown net;
    (goodputs, drops, max_queue)
  in
  let baseline, _, _ = run ~with_cheater:false in
  let contested, drops, max_queue = run ~with_cheater:true in
  {
    baseline_gbps = List.tl baseline;
    contested_gbps = List.tl contested;
    cheater_gbps = List.hd contested;
    adv_policer_drops = drops;
    max_queue_bytes = max_queue;
  }

let print_adversarial r =
  Harness.print_row "honest baseline (Gb/s)" "%a" Harness.pp_gbps_list r.baseline_gbps;
  Harness.print_row "honest vs cheater (Gb/s)" "%a" Harness.pp_gbps_list r.contested_gbps;
  Harness.print_row "cheater goodput (Gb/s)" "%.2f" r.cheater_gbps;
  Harness.print_row "policer drops" "%d" r.adv_policer_drops;
  Harness.print_row "deepest port queue" "%d bytes" r.max_queue_bytes
