module Flow_key = Dcpkt.Flow_key
module Int_meta = Dcpkt.Int_meta
module Samples = Dcstats.Samples

type hop_agg = {
  label : string;
  order : int;  (* first-seen rank: rows come out in path order *)
  sojourn : Samples.t;
  mutable sum_ns : int;
  mutable max_qbytes : int;
  mutable svc_sum_bps : float;
}

type t = {
  per_hop : (int * int, hop_agg) Hashtbl.t; (* by (hop_id, port) *)
  mutable path_sojourn : Samples.t;
  mutable packets : int;
  mutable hops : int;
  mutable exceeded : int;
  mutable watched : (Timeseries.t * Flow_key.t) option;
}

let create () =
  {
    per_hop = Hashtbl.create 16;
    path_sojourn = Samples.create ();
    packets = 0;
    hops = 0;
    exceeded = 0;
    watched = None;
  }

let reset t =
  Hashtbl.reset t.per_hop;
  t.path_sojourn <- Samples.create ();
  t.packets <- 0;
  t.hops <- 0;
  t.exceeded <- 0;
  t.watched <- None

let watch t ~ts flow = t.watched <- Some (ts, flow)

(* The label is formatted once, when the hop is first seen. *)
let agg_for t (h : Int_meta.hop) =
  let key = (h.hop_id, h.port) in
  match Hashtbl.find t.per_hop key with
  | a -> a
  | exception Not_found ->
    let a =
      {
        label = Int_meta.hop_label h;
        order = Hashtbl.length t.per_hop;
        sojourn = Samples.create ();
        sum_ns = 0;
        max_qbytes = 0;
        svc_sum_bps = 0.0;
      }
    in
    Hashtbl.add t.per_hop key a;
    a

let absorb t ~now ~flow ~hops ~exceeded =
  t.packets <- t.packets + 1;
  if exceeded then t.exceeded <- t.exceeded + 1;
  let path = ref 0 in
  for i = 0 to Array.length hops - 1 do
    let h = hops.(i) in
    t.hops <- t.hops + 1;
    let sojourn = Int_meta.sojourn_ns h in
    path := !path + sojourn;
    let agg = agg_for t h in
    Samples.add agg.sojourn (float_of_int sojourn);
    agg.sum_ns <- agg.sum_ns + sojourn;
    if h.qbytes > agg.max_qbytes then agg.max_qbytes <- h.qbytes;
    agg.svc_sum_bps <- agg.svc_sum_bps +. float_of_int h.svc_bps;
    match t.watched with
    | Some (ts, f) when Flow_key.equal f flow || Flow_key.equal (Flow_key.reverse f) flow ->
      let ch name = Timeseries.channel ts (Printf.sprintf "int.flow0.%s.%s" agg.label name) in
      Timeseries.record (ch "sojourn_ns") ~now (float_of_int sojourn);
      Timeseries.record (ch "qbytes") ~now (float_of_int h.qbytes)
    | Some _ | None -> ()
  done;
  if Array.length hops > 0 then Samples.add t.path_sojourn (float_of_int !path)

(* The strip point emits a stack's [int_hop]s in path order right before
   its [int_strip], with nothing in between; only the hops of the stack
   being read are held. *)
let replay select =
  let pending = ref [] in
  fun now ev ->
    match ev with
    | Trace.Int_hop { hop; port; ingress; egress; qbytes; svc_bps; _ } ->
      let hop_id = Int_meta.register ~name:hop in
      pending :=
        { Int_meta.hop_id; port; ingress_ns = ingress; egress_ns = egress; qbytes; svc_bps }
        :: !pending
    | Trace.Int_strip { flow; exceeded; _ } ->
      let hops = Array.of_list (List.rev !pending) in
      pending := [];
      Option.iter (fun t -> absorb t ~now ~flow ~hops ~exceeded) (select flow)
    | _ -> ()

let packets t = t.packets

let exceeded t = t.exceeded

let mean_svc_gbps agg = agg.svc_sum_bps /. float_of_int (Samples.count agg.sojourn) /. 1e9

type row = {
  label : string;
  node : string;
  port : int;
  samples : int;
  sum_ns : int;
  p50_ns : float;
  p99_ns : float;
  max_ns : int;
  share : float;
  max_qbytes : int;
  mean_svc_gbps : float;
}

let rows t =
  let aggs =
    Hashtbl.fold (fun key agg acc -> (key, agg) :: acc) t.per_hop []
    |> List.sort (fun (_, (a : hop_agg)) (_, b) -> Int.compare a.order b.order)
  in
  let total = List.fold_left (fun acc (_, (agg : hop_agg)) -> acc + agg.sum_ns) 0 aggs in
  List.map
    (fun ((hop_id, port), (agg : hop_agg)) ->
      {
        label = agg.label;
        node = Int_meta.name hop_id;
        port;
        samples = Samples.count agg.sojourn;
        sum_ns = agg.sum_ns;
        p50_ns = Samples.percentile agg.sojourn 50.0;
        p99_ns = Samples.percentile agg.sojourn 99.0;
        max_ns = int_of_float (Samples.max agg.sojourn);
        share = (if total = 0 then 0.0 else float_of_int agg.sum_ns /. float_of_int total);
        max_qbytes = agg.max_qbytes;
        mean_svc_gbps = mean_svc_gbps agg;
      })
    aggs

let pp_rows ppf rows =
  let us ns = ns /. 1000.0 in
  Format.fprintf ppf "  %-16s %8s %10s %10s %10s %7s %9s %9s@." "hop (path order)" "pkts"
    "p50 us" "p99 us" "max us" "share" "max q B" "svc Gbps";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-16s %8d %10.3f %10.3f %10.3f %6.1f%% %9d %9.2f@." r.label r.samples
        (us r.p50_ns) (us r.p99_ns)
        (us (float_of_int r.max_ns))
        (100.0 *. r.share) r.max_qbytes r.mean_svc_gbps)
    rows;
  match List.stable_sort (fun a b -> Float.compare b.share a.share) rows with
  | worst :: _ :: _ when worst.share > 0.0 ->
    Format.fprintf ppf "  bottleneck %s (%.1f%% of stamped sojourn, p99 %.3f us)@." worst.label
      (100.0 *. worst.share) (us worst.p99_ns)
  | _ -> ()

let to_json t =
  let hops =
    Hashtbl.fold (fun _ (agg : hop_agg) acc -> (agg.label, agg) :: acc) t.per_hop []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (label, agg) ->
           ( label,
             Json.Obj
               [
                 ("sojourn_ns", Report.summary agg.sojourn);
                 ("max_qbytes", Json.Int agg.max_qbytes);
                 ("mean_svc_gbps", Json.Float (mean_svc_gbps agg));
               ] ))
  in
  Json.Obj
    [
      ("packets", Json.Int t.packets);
      ("hops", Json.Int t.hops);
      ("exceeded", Json.Int t.exceeded);
      ("path_sojourn_ns", Report.summary t.path_sojourn);
      ("per_hop", Json.Obj hops);
    ]
