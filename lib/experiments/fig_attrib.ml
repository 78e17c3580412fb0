(* ext-attrib: causal FCT attribution, enforced vs native stacks.

   The same finite workloads run under native CUBIC (no vSwitch
   enforcement) and under AC/DC (DCTCP-derived RWND enforced on tenant
   ACKs).  Per-flow stall accounting ({!Obs.Attrib}) then answers "why
   was this flow slow" in both worlds: under native CUBIC the stalls land
   on [Cwnd_limited] / [In_flight] (deep queues), while under AC/DC the
   same wait is attributed to [Rwnd_limited_enforced] — a direct,
   per-nanosecond measurement of the paper's mechanism doing the limiting
   from the vSwitch.  INT stays on so the [In_flight] component is also
   split per hop. *)

module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Int_meta = Dcpkt.Int_meta

module Attrib_fig = struct
  type row = {
    scheme : string;
    scenario : string;
    flows : int;  (* completed attribution snapshots *)
    mean_fct_us : float;
    fracs : (Obs.Attrib.state * float) list;
        (* mean fraction of FCT per state, {!Obs.Attrib.all_states} order *)
    top_hop : (string * float) option;  (* heaviest hop, share of stamped sojourn *)
  }

  type result = row list

  (* Both scenarios complete (finite messages), so every flow yields an
     exact snapshot.  The dumbbell is the paper's Fig. 7a shape; the
     incast is the Fig. 18 shape scaled down. *)
  let build scheme = function
    | "dumbbell" ->
      let pairs = 5 in
      let net = Harness.dumbbell scheme ~pairs () in
      let config = Harness.host_config scheme net.Fabric.Topology.params in
      let conns =
        List.init pairs (fun i ->
            Fabric.Conn.establish
              ~src:(Fabric.Topology.host net i)
              ~dst:(Fabric.Topology.host net (pairs + i))
              ~config
              ~at:(Time_ns.us (20 * i))
              ())
      in
      (net, conns, [ 1_000_000; 500_000 ])
    | "incast" ->
      let senders = 16 in
      let net = Harness.star scheme ~hosts:(senders + 1) () in
      let config = Harness.host_config scheme net.Fabric.Topology.params in
      let receiver = Fabric.Topology.host net 0 in
      let conns =
        List.init senders (fun i ->
            Fabric.Conn.establish
              ~src:(Fabric.Topology.host net (1 + i))
              ~dst:receiver ~config ())
      in
      (net, conns, [ 500_000 ])
    | other -> invalid_arg ("Fig_attrib: unknown scenario " ^ other)

  let one scheme ~scenario =
    let attrib = Obs.Runtime.attrib () in
    Obs.Runtime.reset_attrib ();
    let attrib_was = Obs.Attrib.enabled attrib in
    let int_was = Int_meta.enabled () in
    Obs.Attrib.set_enabled attrib true;
    Int_meta.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Attrib.set_enabled attrib attrib_was;
        Int_meta.set_enabled int_was)
    @@ fun () ->
    let net, conns, messages = build scheme scenario in
    let engine = net.Fabric.Topology.engine in
    List.iter
      (fun conn ->
        List.iter
          (fun bytes -> Fabric.Conn.send_message conn ~bytes ~on_complete:ignore)
          messages)
      conns;
    Engine.run ~until:(Time_ns.sec 2.0) engine;
    Fabric.Topology.shutdown net;
    let snaps = Obs.Attrib.completed attrib in
    let n = List.length snaps in
    let nf = float_of_int (Stdlib.max 1 n) in
    let mean_fct_us =
      List.fold_left (fun acc s -> acc +. Time_ns.to_us s.Obs.Attrib.snap_fct) 0.0 snaps /. nf
    in
    let fracs =
      List.map
        (fun (state, samples) ->
          (state, if Dcstats.Samples.is_empty samples then 0.0 else Dcstats.Samples.mean samples))
        (Obs.Attrib.fct_fractions snaps)
    in
    let hop_totals : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (s : Obs.Attrib.snapshot) ->
        List.iter
          (fun (label, ns) ->
            match Hashtbl.find_opt hop_totals label with
            | Some r -> r := !r + ns
            | None -> Hashtbl.replace hop_totals label (ref ns))
          s.snap_hops)
      snaps;
    let total_hop_ns = Hashtbl.fold (fun _ r acc -> acc + !r) hop_totals 0 in
    let top_hop =
      Hashtbl.fold
        (fun label r best ->
          match best with
          | Some (_, ns) when ns >= !r -> best
          | _ -> Some (label, !r))
        hop_totals None
      |> Option.map (fun (label, ns) ->
             (label, float_of_int ns /. float_of_int (Stdlib.max 1 total_hop_ns)))
    in
    { scheme = scheme.Harness.label; scenario; flows = n; mean_fct_us; fracs; top_hop }

  let run () =
    List.concat_map
      (fun scenario ->
        List.map
          (fun scheme -> one scheme ~scenario)
          [ Harness.cubic; Harness.acdc () ])
      [ "dumbbell"; "incast" ]

  let print result =
    Harness.print_header "ext-attrib"
      "causal FCT attribution: enforced AC/DC vs native CUBIC";
    Harness.print_row "scheme/scenario" "%6s %12s %s" "flows" "mean FCT us"
      "FCT share per stall state";
    List.iter
      (fun r ->
        let stack =
          r.fracs
          |> List.filter (fun (_, f) -> f > 0.0005)
          |> List.map (fun (st, f) ->
                 Printf.sprintf "%s %.1f%%" (Obs.Attrib.state_label st) (100.0 *. f))
          |> String.concat "  "
        in
        Harness.print_row
          (Printf.sprintf "%s %s" r.scheme r.scenario)
          "%6d %12.1f %s" r.flows r.mean_fct_us stack;
        match r.top_hop with
        | Some (label, share) when share > 0.0 ->
          Harness.print_row "  heaviest hop" "%s (%.1f%% of stamped sojourn)" label
            (100.0 *. share)
        | _ -> ())
      result
end
