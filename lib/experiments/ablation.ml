(* The two design choices DESIGN.md §5 ablates. *)

module Engine = Eventsim.Engine

let fack () =
  Format.printf "@.=== Ablation: PACK piggy-backing vs dedicated FACKs ===@.";
  let run ~fack_only =
    let params = Fabric.Params.with_ecn Fabric.Params.default in
    let engine = Engine.create () in
    let acdc_cfg = { (Fabric.Params.acdc_config params) with Acdc.Config.fack_only } in
    let net =
      Fabric.Topology.dumbbell engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~pairs:5 ()
    in
    let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
    let conns =
      List.init 5 (fun i ->
          let c =
            Fabric.Conn.establish
              ~src:(Fabric.Topology.host net i)
              ~dst:(Fabric.Topology.host net (5 + i))
              ~config ()
          in
          Fabric.Conn.send_forever c;
          c)
    in
    let tputs =
      Harness.measure_goodput net conns
        ~warmup:(Eventsim.Time_ns.ms 200)
        ~duration:(Eventsim.Time_ns.sec 1.0)
    in
    let packs, facks =
      Array.fold_left
        (fun (p, f) host ->
          match Fabric.Host.acdc host with
          | Some instance ->
            ( p + Acdc.Receiver.packs_sent (Acdc.receiver instance),
              f + Acdc.Receiver.facks_sent (Acdc.receiver instance) )
          | None -> (p, f))
        (0, 0) net.Fabric.Topology.hosts
    in
    Fabric.Topology.shutdown net;
    (List.fold_left ( +. ) 0.0 tputs, packs, facks)
  in
  let tput_pack, packs, facks = run ~fack_only:false in
  Format.printf "  piggy-backed: aggregate %.2f Gbps, %d PACKs, %d extra FACK packets@."
    tput_pack packs facks;
  let tput_fack, packs2, facks2 = run ~fack_only:true in
  Format.printf "  FACK-only:    aggregate %.2f Gbps, %d PACKs, %d extra FACK packets@."
    tput_fack packs2 facks2;
  Format.printf "  -> piggy-backing carries the feedback for free; FACK-only adds one@.";
  Format.printf "     reverse-path packet per ACK for identical control behaviour.@."

let window_floor () =
  Format.printf "@.=== Ablation: enforced-window floor in large incast (Fig. 19a) ===@.";
  let senders = 40 in
  let run ~floor_mss =
    let params = Fabric.Params.with_ecn Fabric.Params.default in
    let engine = Engine.create () in
    let base = Fabric.Params.acdc_config params in
    let acdc_cfg =
      {
        base with
        Acdc.Config.min_window_bytes =
          int_of_float (floor_mss *. float_of_int base.Acdc.Config.mss);
      }
    in
    let net = Fabric.Topology.star engine ~params ~acdc:(fun _ -> Some acdc_cfg) ~hosts:48 () in
    let config = Fabric.Params.tcp_config params ~cc:Tcp.Cubic.factory ~ecn:false in
    let receiver = Fabric.Topology.host net 0 in
    let rtt = Dcstats.Samples.create () in
    let conns =
      List.init senders (fun i ->
          let c =
            Fabric.Conn.establish
              ~src:(Fabric.Topology.host net (1 + i))
              ~dst:receiver ~config ()
          in
          Tcp.Endpoint.set_rtt_hook (Fabric.Conn.client c) (fun s ->
              Dcstats.Samples.add rtt (Eventsim.Time_ns.to_ms s));
          Fabric.Conn.send_forever c;
          c)
    in
    ignore
      (Harness.measure_goodput net conns
         ~warmup:(Eventsim.Time_ns.ms 200)
         ~duration:(Eventsim.Time_ns.sec 0.6));
    Fabric.Topology.shutdown net;
    Harness.pctl rtt 50.0
  in
  List.iter
    (fun floor_mss ->
      Format.printf "  floor %.1f MSS -> median incast RTT %.3f ms@." floor_mss (run ~floor_mss))
    [ 2.0; 1.0; 0.5 ];
  Format.printf "  -> RWND is byte-granular, so AC/DC can sit below DCTCP's 2-packet@.";
  Format.printf "     CWND floor — why it beats native DCTCP at high fan-in.@."
