(* How a workload's fabric is put together.

   [real] is the simulator's own wiring ([Fabric.Topology] and
   [Fabric.Conn]), which every untraced repetition measures.  [traced]
   rebuilds the same fabric from the layers' public constructors, with a
   span ([Spans]) around every call that crosses from one layer into the
   next.  It must schedule the same events in the same order as [real];
   the benchmark checks that both produce the same digest. *)

module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Host = Fabric.Host
module Params = Fabric.Params
module Datapath = Vswitch.Datapath

type conn = {
  client : Tcp.Endpoint.t;
  send_forever : unit -> unit;
  send_message : bytes:int -> on_complete:(Time_ns.t -> unit) -> unit;
  teardown : after:Time_ns.t -> unit;
}

type t = {
  switches : Netsim.Switch.t array;
  establish : src:int -> dst:int -> ?at:Time_ns.t -> Tcp.Endpoint.config -> conn;
  lifecycle : (unit -> unit) -> unit;
      (** Runs a workload callback (an arrival, a completion); inside the
          [fabric.conn] span when traced. *)
}

type shape = Dumbbell of int | Star of int

let real engine ~params ~acdc shape =
  let acdc = if acdc then Fabric.Topology.acdc_everywhere params else Fabric.Topology.no_acdc in
  let net =
    match shape with
    | Dumbbell pairs -> Fabric.Topology.dumbbell engine ~params ~acdc ~pairs ()
    | Star hosts -> Fabric.Topology.star engine ~params ~acdc ~hosts ()
  in
  let hosts = net.Fabric.Topology.hosts in
  let establish ~src ~dst ?at config =
    let c = Fabric.Conn.establish ~src:hosts.(src) ~dst:hosts.(dst) ~config ?at () in
    {
      client = Fabric.Conn.client c;
      send_forever = (fun () -> Fabric.Conn.send_forever c);
      send_message = Fabric.Conn.send_message c;
      teardown = Fabric.Conn.teardown c;
    }
  in
  { switches = net.Fabric.Topology.switches; establish; lifecycle = (fun f -> f ()) }

(* ------------------------------------------------------------------ *)
(* The traced rebuild.  Each function below mirrors its counterpart in
   [Fabric.Topology], [Fabric.Host] or [Fabric.Conn] step for step —
   including every RNG split and every event it schedules. *)

let in_span layer f =
  let tok = Spans.enter layer in
  f ();
  Spans.leave tok

let switch_input sw pkt =
  let tok = Spans.enter Spans.switch in
  Netsim.Switch.input sw pkt;
  Spans.leave tok

let host_deliver host pkt =
  let tok = Spans.enter Spans.datapath in
  Host.deliver host pkt;
  Spans.leave tok

let host_egress host pkt =
  let tok = Spans.enter Spans.datapath in
  Host.egress host pkt;
  Spans.leave tok

(* The two AC/DC modules of one host, built in the order [Acdc.create]
   builds them (its record literal has the same shape). *)
type modules = { sender : Acdc.Sender.t; receiver : Acdc.Receiver.t }

let acdc_processor m =
  let receiver_egress pkt ~inject =
    let tok = Spans.enter Spans.acdc_receiver in
    let v = Acdc.Receiver.egress m.receiver pkt ~inject in
    Spans.leave tok;
    v
  and sender_egress pkt ~inject =
    let tok = Spans.enter Spans.acdc_sender in
    let v = Acdc.Sender.egress m.sender pkt ~inject in
    Spans.leave tok;
    v
  and sender_ingress pkt ~inject =
    let tok = Spans.enter Spans.acdc_sender in
    let v = Acdc.Sender.ingress m.sender pkt ~inject in
    Spans.leave tok;
    v
  and receiver_ingress pkt ~inject =
    let tok = Spans.enter Spans.acdc_receiver in
    let v = Acdc.Receiver.ingress m.receiver pkt ~inject in
    Spans.leave tok;
    v
  in
  {
    Datapath.name = "acdc";
    egress =
      (fun pkt ~inject ->
        match receiver_egress pkt ~inject with
        | Datapath.Drop -> Datapath.Drop
        | Datapath.Pass -> sender_egress pkt ~inject);
    ingress =
      (fun pkt ~inject ->
        match sender_ingress pkt ~inject with
        | Datapath.Drop -> Datapath.Drop
        | Datapath.Pass -> receiver_ingress pkt ~inject);
  }

(* Registered last on every datapath: an ingress packet that reaches it
   goes next to the host's endpoint demux and [Tcp.Endpoint.input], so
   the [tcp.endpoint] span opens here and closes with the enclosing
   [host_deliver] span. *)
let endpoint_marker =
  {
    Datapath.name = "tcp.endpoint";
    egress = (fun _ ~inject:_ -> Datapath.Pass);
    ingress =
      (fun _ ~inject:_ ->
        ignore (Spans.enter Spans.endpoint : int);
        Datapath.Pass);
  }

let traced_host engine acdc idx =
  let host = Host.create engine ~ip:idx () in
  let datapath = Host.datapath host in
  (match acdc idx with
  | None -> ()
  | Some config ->
    (* [Host.create] would also hand the sender a VM injector; it is only
       used for [retransmit_assist], which no workload turns on. *)
    assert (not config.Acdc.Config.retransmit_assist);
    let m =
      {
        sender = Acdc.Sender.create engine config;
        receiver = Acdc.Receiver.create engine config;
      }
    in
    Datapath.add_processor datapath (acdc_processor m));
  Datapath.add_processor datapath endpoint_marker;
  host

let jitter_for params rng =
  if params.Params.link_jitter > 0 then Some (Eventsim.Rng.split rng, params.Params.link_jitter)
  else None

let attach engine params rng switch host =
  let rate_bps = params.Params.link_rate_bps and prop_delay = params.Params.link_delay in
  let nic_rate = Option.value params.Params.nic_rate_bps ~default:rate_bps in
  let ip = Host.ip host in
  let nic =
    Netsim.Txq.create engine
      ~node:(Printf.sprintf "host%d.nic" ip)
      ~rate_bps:nic_rate ~prop_delay ~jitter:(jitter_for params rng)
      ~deliver:(switch_input switch)
  in
  Host.set_nic host (fun pkt ->
      let tok = Spans.enter Spans.txq in
      Netsim.Txq.enqueue nic pkt;
      Spans.leave tok);
  let port =
    Netsim.Switch.add_port switch ~rate_bps ~prop_delay ?jitter:(jitter_for params rng)
      ~deliver:(host_deliver host) ()
  in
  Netsim.Switch.add_route switch ~dst_ip:ip ~port

let trunk params rng sw_a sw_b =
  let rate_bps = params.Params.link_rate_bps and prop_delay = params.Params.link_delay in
  let port_a =
    Netsim.Switch.add_port sw_a ~rate_bps ~prop_delay ?jitter:(jitter_for params rng)
      ~deliver:(switch_input sw_b) ()
  in
  let port_b =
    Netsim.Switch.add_port sw_b ~rate_bps ~prop_delay ?jitter:(jitter_for params rng)
      ~deliver:(switch_input sw_a) ()
  in
  (port_a, port_b)

let make_switch engine params ~name =
  Netsim.Switch.create engine ~name ~buffer_capacity:params.Params.buffer_bytes
    ~dt_alpha:params.Params.dt_alpha
    ?ecn:(Params.ecn_config params) ()

type link_state = { mutable established : bool; mutable callbacks : (unit -> unit) list }

let traced engine ~params ~acdc shape =
  (* The topology builders apply impairments; no workload uses any. *)
  assert (params.Params.impairment = None && Netsim.Impair.default () = None);
  let acdc = if acdc then Fabric.Topology.acdc_everywhere params else Fabric.Topology.no_acdc in
  let switches, hosts =
    match shape with
    | Dumbbell pairs ->
      let rng = Eventsim.Rng.create ~seed:42 in
      let left = make_switch engine params ~name:"left"
      and right = make_switch engine params ~name:"right" in
      let hosts = Array.init (2 * pairs) (traced_host engine acdc) in
      for i = 0 to pairs - 1 do
        attach engine params rng left hosts.(i);
        attach engine params rng right hosts.(pairs + i)
      done;
      let to_right, to_left = trunk params rng left right in
      for i = 0 to pairs - 1 do
        Netsim.Switch.add_route left ~dst_ip:(pairs + i) ~port:to_right;
        Netsim.Switch.add_route right ~dst_ip:i ~port:to_left
      done;
      ([| left; right |], hosts)
    | Star n ->
      let rng = Eventsim.Rng.create ~seed:43 in
      let switch = make_switch engine params ~name:"sw0" in
      let hosts = Array.init n (traced_host engine acdc) in
      Array.iter (fun host -> attach engine params rng switch host) hosts;
      ([| switch |], hosts)
  in
  let egress = Array.map host_egress hosts in
  let establish ~src ~dst ?at config =
    let src_host = hosts.(src) and dst_host = hosts.(dst) in
    let key =
      Dcpkt.Flow_key.make ~src_ip:(Host.ip src_host) ~dst_ip:(Host.ip dst_host)
        ~src_port:(Host.fresh_port src_host) ~dst_port:5001
    in
    let client = Tcp.Endpoint.create_client engine config ~key ~out:egress.(src) in
    let server =
      Tcp.Endpoint.create_server engine config ~key:(Dcpkt.Flow_key.reverse key)
        ~out:egress.(dst)
    in
    Host.register_endpoint src_host client;
    Host.register_endpoint dst_host server;
    let link = { established = false; callbacks = [] } in
    Tcp.Endpoint.on_established client (fun () ->
        link.established <- true;
        let cbs = List.rev link.callbacks in
        link.callbacks <- [];
        List.iter (fun f -> in_span Spans.conn f) cbs);
    let when_established f =
      if link.established then f () else link.callbacks <- f :: link.callbacks
    in
    (match at with
    | None -> Tcp.Endpoint.connect client
    | Some time ->
      Engine.schedule engine ~at:time (fun () ->
          in_span Spans.conn (fun () -> Tcp.Endpoint.connect client)));
    {
      client;
      send_forever = (fun () -> when_established (fun () -> Tcp.Endpoint.send_forever client));
      send_message =
        (fun ~bytes ~on_complete ->
          when_established (fun () -> Tcp.Endpoint.send_message client ~bytes ~on_complete));
      teardown =
        (fun ~after ->
          Tcp.Endpoint.close client;
          Engine.schedule_after engine ~delay:after (fun () ->
              in_span Spans.conn (fun () ->
                  Host.unregister_endpoint src_host client;
                  Host.unregister_endpoint dst_host server)));
    }
  in
  { switches; establish; lifecycle = in_span Spans.conn }
