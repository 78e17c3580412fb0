module Engine = Eventsim.Engine

type t = {
  engine : Engine.t;
  params : Params.t;
  switches : Netsim.Switch.t array;
  hosts : Host.t array;
}

type acdc_select = int -> Acdc.Config.t option

let no_acdc _ = None
let acdc_everywhere params _ = Some (Params.acdc_config params)

let make_switch engine params ~name =
  Netsim.Switch.create engine ~name ~buffer_capacity:params.Params.buffer_bytes
    ~dt_alpha:params.Params.dt_alpha
    ?ecn:(Params.ecn_config params) ()

let make_host engine acdc idx =
  Host.create engine ~ip:idx ?acdc:(acdc idx) ()

(* Give the host a NIC feeding the switch and a switch port feeding the
   host; returns nothing — routes are the builder's job. *)
let jitter_for params rng =
  if params.Params.link_jitter > 0 then
    Some (Eventsim.Rng.split rng, params.Params.link_jitter)
  else None

(* Which impairment applies to this topology's links: the explicit params
   field wins; a topology that says nothing inherits the ambient default a
   driver may have installed ([acdc_expt --impair] does, which is how any
   experiment becomes runnable over an adversarial fabric unchanged). *)
let impairment_for params =
  match params.Params.impairment with
  | Some config ->
    if Netsim.Impair.is_clean config then None
    else Some (config, Eventsim.Rng.create ~seed:params.Params.impair_seed)
  | None -> Netsim.Impair.default ()

(* Wrap a link's delivery in the topology impairment, one RNG split per
   link so link count and creation order don't perturb each other. *)
let impaired imp engine ~name deliver =
  match imp with
  | None -> deliver
  | Some (config, rng) ->
    Netsim.Impair.wrap engine ~name ~rng:(Eventsim.Rng.split rng) ~config deliver

(* A link's delivery into a switch: the [netsim.switch] profiler span, so
   switch-port enqueues count in it too. *)
let switch_input switch pkt =
  if !Profcore.on then begin
    let tok = Profcore.enter Profcore.Site.netsim_switch in
    Netsim.Switch.input switch pkt;
    Profcore.leave tok
  end
  else Netsim.Switch.input switch pkt

let attach engine params rng imp switch host =
  let rate_bps = params.Params.link_rate_bps and prop_delay = params.Params.link_delay in
  let nic_rate = Option.value params.Params.nic_rate_bps ~default:rate_bps in
  let ip = Host.ip host in
  let nic =
    Netsim.Txq.create engine
      ~node:(Printf.sprintf "host%d.nic" ip)
      ~rate_bps:nic_rate ~prop_delay ~jitter:(jitter_for params rng)
      ~deliver:
        (impaired imp engine
           ~name:(Printf.sprintf "host%d.up" ip)
           (fun pkt -> switch_input switch pkt))
  in
  Host.set_nic host (Netsim.Txq.enqueue nic);
  let port =
    Netsim.Switch.add_port switch ~rate_bps ~prop_delay ?jitter:(jitter_for params rng)
      ~deliver:
        (impaired imp engine
           ~name:(Printf.sprintf "host%d.down" ip)
           (fun pkt -> Host.deliver host pkt))
      ()
  in
  Netsim.Switch.add_route switch ~dst_ip:ip ~port

(* Connect two switches with a trunk in each direction; returns the port
   ids [(on_a, on_b)] for route installation. *)
let trunk engine params rng imp sw_a sw_b =
  let rate_bps = params.Params.link_rate_bps and prop_delay = params.Params.link_delay in
  let name_a = Netsim.Switch.name sw_a and name_b = Netsim.Switch.name sw_b in
  let port_a =
    Netsim.Switch.add_port sw_a ~rate_bps ~prop_delay ?jitter:(jitter_for params rng)
      ~deliver:
        (impaired imp engine
           ~name:(Printf.sprintf "trunk.%s-%s" name_a name_b)
           (fun pkt -> switch_input sw_b pkt))
      ()
  in
  let port_b =
    Netsim.Switch.add_port sw_b ~rate_bps ~prop_delay ?jitter:(jitter_for params rng)
      ~deliver:
        (impaired imp engine
           ~name:(Printf.sprintf "trunk.%s-%s" name_b name_a)
           (fun pkt -> switch_input sw_a pkt))
      ()
  in
  (port_a, port_b)

let dumbbell engine ?(params = Params.default) ?(acdc = no_acdc) ~pairs () =
  assert (pairs > 0);
  let rng = Eventsim.Rng.create ~seed:42 in
  let imp = impairment_for params in
  let left = make_switch engine params ~name:"left"
  and right = make_switch engine params ~name:"right" in
  let hosts = Array.init (2 * pairs) (make_host engine acdc) in
  for i = 0 to pairs - 1 do
    attach engine params rng imp left hosts.(i);
    attach engine params rng imp right hosts.(pairs + i)
  done;
  let to_right, to_left = trunk engine params rng imp left right in
  for i = 0 to pairs - 1 do
    Netsim.Switch.add_route left ~dst_ip:(pairs + i) ~port:to_right;
    Netsim.Switch.add_route right ~dst_ip:i ~port:to_left
  done;
  { engine; params; switches = [| left; right |]; hosts }

let star engine ?(params = Params.default) ?(acdc = no_acdc) ~hosts:n () =
  assert (n > 0);
  let rng = Eventsim.Rng.create ~seed:43 in
  let imp = impairment_for params in
  let switch = make_switch engine params ~name:"sw0" in
  let hosts = Array.init n (make_host engine acdc) in
  Array.iter (fun host -> attach engine params rng imp switch host) hosts;
  { engine; params; switches = [| switch |]; hosts }

let parking_lot engine ?(params = Params.default) ?(acdc = no_acdc) ~senders () =
  assert (senders > 1);
  let rng = Eventsim.Rng.create ~seed:44 in
  let imp = impairment_for params in
  let switches =
    Array.init senders (fun i -> make_switch engine params ~name:(Printf.sprintf "sw%d" i))
  in
  let hosts = Array.init (senders + 1) (make_host engine acdc) in
  for i = 0 to senders - 1 do
    attach engine params rng imp switches.(i) hosts.(i)
  done;
  let receiver = hosts.(senders) in
  attach engine params rng imp switches.(senders - 1) receiver;
  (* Chain the switches left to right and install routes: the receiver
     lives rightward of everyone; sender i lives leftward of switches > i. *)
  for i = 0 to senders - 2 do
    let to_right, to_left = trunk engine params rng imp switches.(i) switches.(i + 1) in
    (* Everything to the right of switch i (receiver + higher senders). *)
    Netsim.Switch.add_route switches.(i) ~dst_ip:senders ~port:to_right;
    for h = i + 1 to senders - 1 do
      Netsim.Switch.add_route switches.(i) ~dst_ip:h ~port:to_right
    done;
    (* Senders at or left of switch i, reachable from switch i+1. *)
    for h = 0 to i do
      Netsim.Switch.add_route switches.(i + 1) ~dst_ip:h ~port:to_left
    done
  done;
  { engine; params; switches; hosts }

let leaf_spine engine ?(params = Params.default) ?(acdc = no_acdc) ~leaves ~spines
    ~hosts_per_leaf () =
  assert (leaves > 0 && spines > 0 && hosts_per_leaf > 0);
  let rng = Eventsim.Rng.create ~seed:45 in
  let imp = impairment_for params in
  let leaf_sw =
    Array.init leaves (fun i -> make_switch engine params ~name:(Printf.sprintf "leaf%d" i))
  in
  let spine_sw =
    Array.init spines (fun i -> make_switch engine params ~name:(Printf.sprintf "spine%d" i))
  in
  let hosts = Array.init (leaves * hosts_per_leaf) (make_host engine acdc) in
  Array.iteri
    (fun idx host -> attach engine params rng imp leaf_sw.(idx / hosts_per_leaf) host)
    hosts;
  (* Full leaf-spine mesh; remember each side's port numbers. *)
  let up = Array.make_matrix leaves spines 0 in
  let down = Array.make_matrix spines leaves 0 in
  for l = 0 to leaves - 1 do
    for s = 0 to spines - 1 do
      let to_spine, to_leaf = trunk engine params rng imp leaf_sw.(l) spine_sw.(s) in
      up.(l).(s) <- to_spine;
      down.(s).(l) <- to_leaf
    done
  done;
  (* Routes: a leaf reaches remote hosts by ECMP over all spines; a spine
     reaches every host through its leaf. *)
  Array.iteri
    (fun h_idx _ ->
      let home = h_idx / hosts_per_leaf in
      for l = 0 to leaves - 1 do
        if l <> home then
          Netsim.Switch.add_routes leaf_sw.(l) ~dst_ip:h_idx
            ~ports:(Array.to_list up.(l))
      done;
      for s = 0 to spines - 1 do
        Netsim.Switch.add_route spine_sw.(s) ~dst_ip:h_idx ~port:down.(s).(home)
      done)
    hosts;
  { engine; params; switches = Array.append leaf_sw spine_sw; hosts }

let host t i = t.hosts.(i)

let shutdown t = Array.iter Host.shutdown t.hosts

let total_switch_drops t =
  Array.fold_left (fun acc sw -> acc + Netsim.Switch.drops sw) 0 t.switches

let total_forwarded t =
  Array.fold_left (fun acc sw -> acc + Netsim.Switch.forwarded_packets sw) 0 t.switches

let drop_rate t =
  let drops = total_switch_drops t and fwd = total_forwarded t in
  if drops + fwd = 0 then 0.0 else float_of_int drops /. float_of_int (drops + fwd)
