module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns

let schemes = [ Harness.cubic; Harness.dctcp; Harness.acdc () ]

module Incast = struct
  type row = {
    scheme : string;
    senders : int;
    avg_tput_mbps : float;
    fairness : float;
    rtt_p50_ms : float;
    rtt_p999_ms : float;
    drop_rate : float;
  }

  type result = row list

  let one scheme ~senders ~duration =
    let net = Harness.star scheme ~hosts:48 () in
    let engine = net.Fabric.Topology.engine in
    let config = Harness.host_config scheme net.Fabric.Topology.params in
    let receiver = Fabric.Topology.host net 0 in
    let rtt = Dcstats.Samples.create () in
    let warmup = Time_ns.ms 200 in
    let conns =
      List.init senders (fun i ->
          let conn =
            Fabric.Conn.establish ~src:(Fabric.Topology.host net (1 + i)) ~dst:receiver ~config ()
          in
          Tcp.Endpoint.set_rtt_hook (Fabric.Conn.client conn) (fun sample ->
              if Engine.now engine >= warmup then
                Dcstats.Samples.add rtt (Time_ns.to_ms sample));
          Fabric.Conn.send_forever conn;
          conn)
    in
    let tputs = Harness.measure_goodput net conns ~warmup ~duration:(Time_ns.sec duration) in
    let drop_rate = Fabric.Topology.drop_rate net in
    Fabric.Topology.shutdown net;
    {
      scheme = scheme.Harness.label;
      senders;
      avg_tput_mbps =
        List.fold_left ( +. ) 0.0 tputs *. 1000.0 /. float_of_int (List.length tputs);
      fairness = Dcstats.Fairness.index (Array.of_list tputs);
      rtt_p50_ms = Harness.pctl rtt 50.0;
      rtt_p999_ms = Harness.pctl rtt 99.9;
      drop_rate;
    }

  let run ?(duration = 1.0) () =
    List.concat_map
      (fun scheme -> List.map (fun senders -> one scheme ~senders ~duration) [ 16; 32; 40; 47 ])
      schemes

  let print result =
    Harness.print_header "Figures 18-19" "many-to-one incast";
    Harness.print_row "scheme/senders" "%10s %9s %11s %12s %10s" "tput Mbps" "fairness"
      "p50 RTT ms" "p99.9 RTT ms" "drop %";
    List.iter
      (fun r ->
        Harness.print_row
          (Printf.sprintf "%s n=%d" r.scheme r.senders)
          "%10.0f %9.3f %11.3f %12.3f %10.3f" r.avg_tput_mbps r.fairness r.rtt_p50_ms
          r.rtt_p999_ms (100.0 *. r.drop_rate))
      result
end

module Fig20 = struct
  type row = {
    scheme : string;
    rtt_ms : Dcstats.Samples.t;
    avg_tput_mbps : float;
    fairness : float;
    drop_rate : float;
  }

  type result = row list

  let one scheme ~hosts ~duration =
    let net = Harness.star scheme ~hosts () in
    let engine = net.Fabric.Topology.engine in
    let config = Harness.host_config scheme net.Fabric.Topology.params in
    let b1 = Fabric.Topology.host net 0 and b2 = Fabric.Topology.host net 1 in
    let group_a = List.init (hosts - 2) (fun i -> 2 + i) in
    let n_a = List.length group_a in
    (* Mesh within A: host at index i sends to indices i+1..i+4 (mod |A|). *)
    let conns =
      List.concat_map
        (fun idx ->
          let src = Fabric.Topology.host net (2 + idx) in
          List.init 4 (fun k ->
              let dst = Fabric.Topology.host net (2 + ((idx + k + 1) mod n_a)) in
              let conn = Fabric.Conn.establish ~src ~dst ~config () in
              Fabric.Conn.send_forever conn;
              conn))
        (List.init n_a (fun i -> i))
    in
    (* Everyone in A also incasts into B1, congesting its port. *)
    let incast =
      List.map
        (fun h ->
          let conn =
            Fabric.Conn.establish ~src:(Fabric.Topology.host net h) ~dst:b1 ~config ()
          in
          Fabric.Conn.send_forever conn;
          conn)
        group_a
    in
    (* The measurement traffic: B2 -> B1 through the most congested port. *)
    let probe = Workload.Probe.start ~src:b2 ~dst:b1 ~config () in
    let tputs =
      Harness.measure_goodput net (conns @ incast) ~warmup:(Time_ns.ms 200)
        ~duration:(Time_ns.sec duration)
    in
    ignore engine;
    (* The paper's "average throughput" is over the 46-to-1 incast flows
       sharing B1's port (10G / 46 ~ 217 Mbps); report those. *)
    let incast_tputs =
      List.filteri (fun i _ -> i >= List.length conns) tputs |> Array.of_list
    in
    let drop_rate = Fabric.Topology.drop_rate net in
    Fabric.Topology.shutdown net;
    {
      scheme = scheme.Harness.label;
      rtt_ms = Workload.Probe.samples_ms probe;
      avg_tput_mbps =
        Array.fold_left ( +. ) 0.0 incast_tputs *. 1000.0
        /. float_of_int (Array.length incast_tputs);
      fairness = Dcstats.Fairness.index incast_tputs;
      drop_rate;
    }

  let run ?(hosts = 48) ?(duration = 0.6) () = List.map (one ~hosts ~duration) schemes

  let print result =
    Harness.print_header "Figure 20" "TCP RTT when almost all ports are congested";
    List.iter
      (fun r ->
        Harness.print_row r.scheme
          "tput=%.0f Mbps fair=%.3f drop=%.3f%% rtt p50=%.3f p95=%.3f p99=%.3f p99.9=%.3f ms"
          r.avg_tput_mbps r.fairness (100.0 *. r.drop_rate)
          (Harness.pctl r.rtt_ms 50.0)
          (Harness.pctl r.rtt_ms 95.0)
          (Harness.pctl r.rtt_ms 99.0)
          (Harness.pctl r.rtt_ms 99.9))
      result
end

type fct_result = {
  scheme : string;
  mice_fct_ms : Dcstats.Samples.t;
  background_fct_ms : Dcstats.Samples.t;
}

(* Periodic 16 KB mice from every host i to host (i+8) mod n. *)
let start_mice net ~hosts ~config ~fct_ms =
  let engine = net.Fabric.Topology.engine in
  List.init hosts (fun i ->
      let conn =
        Fabric.Conn.establish
          ~src:(Fabric.Topology.host net i)
          ~dst:(Fabric.Topology.host net ((i + 8) mod hosts))
          ~config ()
      in
      Workload.Apps.Periodic.start ~engine ~conn ~interval:(Time_ns.ms 10) ~bytes:16_384
        ~fct_ms ())

module Stride = struct
  type result = fct_result list

  let one scheme ~hosts ~duration =
    let net = Harness.star scheme ~hosts () in
    let engine = net.Fabric.Topology.engine in
    let config = Harness.host_config scheme net.Fabric.Topology.params in
    let mice_fct = Dcstats.Samples.create () in
    let background_fct = Dcstats.Samples.create () in
    let mice = start_mice net ~hosts ~config ~fct_ms:mice_fct in
    (* Each host cycles 64 MB transfers (the paper's 512 MB, scaled)
       through its next four neighbours, sequentially. *)
    List.iter
      (fun i ->
        let conns =
          List.init 4 (fun k ->
              Fabric.Conn.establish
                ~src:(Fabric.Topology.host net i)
                ~dst:(Fabric.Topology.host net ((i + k + 1) mod hosts))
                ~config ())
        in
        let transfers =
          List.concat (List.init 8 (fun _ -> List.map (fun c -> (c, 64_000_000)) conns))
        in
        ignore
          (Workload.Apps.Sequential.start ~transfers ~concurrency:1 ~fct_ms:background_fct ()))
      (List.init hosts (fun i -> i));
    Engine.run ~until:(Time_ns.sec duration) engine;
    List.iter Workload.Apps.Periodic.stop mice;
    Fabric.Topology.shutdown net;
    { scheme = scheme.Harness.label; mice_fct_ms = mice_fct; background_fct_ms = background_fct }

  let run ?(hosts = 17) ?(duration = 2.0) () = List.map (one ~hosts ~duration) schemes

  let print result =
    Harness.print_header "Figure 21" "concurrent stride workload FCTs";
    List.iter
      (fun r ->
        Harness.print_cdf ~label:(r.scheme ^ " mice FCT ms") r.mice_fct_ms;
        Harness.print_cdf ~label:(r.scheme ^ " background FCT ms") r.background_fct_ms)
      result
end

module Shuffle = struct
  type result = fct_result list

  let one scheme ~hosts ~duration =
    let net = Harness.star scheme ~hosts () in
    let engine = net.Fabric.Topology.engine in
    let config = Harness.host_config scheme net.Fabric.Topology.params in
    let mice_fct = Dcstats.Samples.create () in
    let background_fct = Dcstats.Samples.create () in
    let mice = start_mice net ~hosts ~config ~fct_ms:mice_fct in
    let rng = Eventsim.Rng.create ~seed:7 in
    let finished = ref 0 in
    List.iter
      (fun i ->
        let peers = List.filter (fun j -> j <> i) (List.init hosts (fun j -> j)) in
        let order = Array.of_list peers in
        Eventsim.Rng.shuffle rng order;
        let transfers =
          Array.to_list
            (Array.map
               (fun j ->
                 ( Fabric.Conn.establish
                     ~src:(Fabric.Topology.host net i)
                     ~dst:(Fabric.Topology.host net j)
                     ~config (),
                   32_000_000 ))
               order)
        in
        ignore
          (Workload.Apps.Sequential.start ~transfers ~concurrency:2 ~fct_ms:background_fct
             ~on_all_done:(fun () -> incr finished)
             ()))
      (List.init hosts (fun i -> i));
    (* Stop sampling once the shuffle drains — mice on an idle fabric would
       dilute the CDFs the paper reports for a continuously-loaded network. *)
    let step = Time_ns.ms 50 in
    let rec advance () =
      if !finished < hosts && Engine.now engine < Time_ns.sec duration then begin
        Engine.run ~until:(Time_ns.add (Engine.now engine) step) engine;
        advance ()
      end
    in
    advance ();
    List.iter Workload.Apps.Periodic.stop mice;
    Fabric.Topology.shutdown net;
    { scheme = scheme.Harness.label; mice_fct_ms = mice_fct; background_fct_ms = background_fct }

  let run ?(hosts = 17) ?(duration = 3.0) () = List.map (one ~hosts ~duration) schemes

  let print result =
    Harness.print_header "Figure 22" "shuffle workload FCTs";
    List.iter
      (fun r ->
        Harness.print_cdf ~label:(r.scheme ^ " mice FCT ms") r.mice_fct_ms;
        Harness.print_cdf ~label:(r.scheme ^ " background FCT ms") r.background_fct_ms)
      result
end

module Traces = struct
  type row = { scheme : string; workload : string; mice_fct_ms : Dcstats.Samples.t }

  type result = row list

  let apps_per_host = 5

  let one scheme dist ~hosts ~duration =
    let net = Harness.star scheme ~hosts () in
    let engine = net.Fabric.Topology.engine in
    let config = Harness.host_config scheme net.Fabric.Topology.params in
    let mice_fct = Dcstats.Samples.create () in
    let rng = Eventsim.Rng.create ~seed:11 in
    (* Each application holds a long-lived connection to every other server
       and sends sampled messages to random peers, closed-loop. *)
    List.iter
      (fun i ->
        for _app = 1 to apps_per_host do
          (* Each application owns its own long-lived connection to every
             other server, as in the paper. *)
          let peers =
            Array.of_list
              (List.filter_map
                 (fun j ->
                   if j = i then None
                   else
                     Some
                       (Fabric.Conn.establish
                          ~src:(Fabric.Topology.host net i)
                          ~dst:(Fabric.Topology.host net j)
                          ~config ()))
                 (List.init hosts (fun j -> j)))
          in
          let app_rng = Eventsim.Rng.split rng in
          let rec next () =
            let conn = Eventsim.Rng.pick app_rng peers in
            let bytes = Workload.Dist.sample dist app_rng in
            Fabric.Conn.send_message conn ~bytes ~on_complete:(fun fct ->
                if bytes < Workload.Open_loop.mice_cutoff then
                  Dcstats.Samples.add mice_fct (Time_ns.to_ms fct);
                next ())
          in
          (* Desynchronize application start times. *)
          Engine.schedule_after engine ~delay:(Time_ns.us (Eventsim.Rng.int app_rng 1000)) next
        done)
      (List.init hosts (fun i -> i));
    Engine.run ~until:(Time_ns.sec duration) engine;
    Fabric.Topology.shutdown net;
    { scheme = scheme.Harness.label; workload = Workload.Dist.name dist; mice_fct_ms = mice_fct }

  let run ?(hosts = 17) ?(duration = 1.0) () =
    List.concat_map
      (fun dist -> List.map (fun s -> one s dist ~hosts ~duration) schemes)
      [ Workload.Dist.web_search; Workload.Dist.data_mining ]

  let print result =
    Harness.print_header "Figure 23" "trace-driven workloads: mice (<10KB) FCTs";
    List.iter
      (fun r ->
        Harness.print_cdf
          ~label:(Printf.sprintf "%s %s mice FCT ms" r.workload r.scheme)
          r.mice_fct_ms)
      result
end
