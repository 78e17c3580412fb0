module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Flow_key = Dcpkt.Flow_key

type t = {
  client : Tcp.Endpoint.t;
  server : Tcp.Endpoint.t;
  src : Host.t;
  dst : Host.t;
  engine : Engine.t;
  key : Flow_key.t;
  mutable established : bool;
  mutable established_cbs : (unit -> unit) list;
}

(* The [fabric.conn] profiler span around a connection-lifecycle call.
   Callers pass a top-level function and its argument, so profiling off
   builds no closure. *)
let in_span f x =
  if !Profcore.on then begin
    let tok = Profcore.enter Profcore.Site.fabric_conn in
    f x;
    Profcore.leave tok
  end
  else f x

let establish ~src ~dst ?(config = Tcp.Endpoint.default_config) ?server_config ?at () =
  let engine = Host.engine src in
  let server_config = Option.value server_config ~default:config in
  let key =
    Flow_key.make ~src_ip:(Host.ip src) ~dst_ip:(Host.ip dst) ~src_port:(Host.fresh_port src)
      ~dst_port:5001
  in
  let client = Tcp.Endpoint.create_client engine config ~key ~out:(fun p -> Host.egress src p) in
  let server =
    Tcp.Endpoint.create_server engine server_config ~key:(Flow_key.reverse key) ~out:(fun p ->
        Host.egress dst p)
  in
  Host.register_endpoint src client;
  Host.register_endpoint dst server;
  let t =
    { client; server; src; dst; engine; key; established = false; established_cbs = [] }
  in
  Tcp.Endpoint.on_established client (fun () ->
      t.established <- true;
      let cbs = List.rev t.established_cbs in
      t.established_cbs <- [];
      List.iter (fun f -> in_span f ()) cbs);
  (match at with
  | None -> Tcp.Endpoint.connect client
  | Some time ->
    Engine.schedule engine ~at:time (fun () -> in_span Tcp.Endpoint.connect client));
  t

let client t = t.client
let server t = t.server
let key t = t.key

let when_established t f = if t.established then f () else t.established_cbs <- f :: t.established_cbs

let on_established t f = when_established t f

let send_forever t = when_established t (fun () -> Tcp.Endpoint.send_forever t.client)

let stop t = Tcp.Endpoint.stop t.client

let send_message t ~bytes ~on_complete =
  when_established t (fun () -> Tcp.Endpoint.send_message t.client ~bytes ~on_complete)

let bytes_acked t = Tcp.Endpoint.bytes_acked t.client

let goodput_gbps t ~over =
  if over <= 0 then 0.0
  else float_of_int (bytes_acked t * 8) /. Time_ns.to_sec over /. 1e9

let close t = Tcp.Endpoint.close t.client

let unregister t =
  Host.unregister_endpoint t.src t.client;
  Host.unregister_endpoint t.dst t.server

let teardown t ~after =
  close t;
  Engine.schedule_after t.engine ~delay:after (fun () -> in_span unregister t)
