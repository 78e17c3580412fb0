module Flow_key = Dcpkt.Flow_key
module Int_meta = Dcpkt.Int_meta

type hop_agg = {
  label : string;
  sojourn : Dcstats.Samples.t;
  mutable max_qbytes : int;
  mutable svc_sum_bps : float;
  mutable samples : int;
}

type t = {
  per_hop : (int * int, hop_agg) Hashtbl.t; (* by (hop_id, port) *)
  mutable path_sojourn : Dcstats.Samples.t;
  mutable packets : int;
  mutable hops : int;
  mutable exceeded : int;
  mutable watched : (Timeseries.t * Flow_key.t) option;
}

let create () =
  {
    per_hop = Hashtbl.create 16;
    path_sojourn = Dcstats.Samples.create ();
    packets = 0;
    hops = 0;
    exceeded = 0;
    watched = None;
  }

let reset t =
  Hashtbl.reset t.per_hop;
  t.path_sojourn <- Dcstats.Samples.create ();
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
        sojourn = Dcstats.Samples.create ();
        max_qbytes = 0;
        svc_sum_bps = 0.0;
        samples = 0;
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
    Dcstats.Samples.add agg.sojourn (float_of_int sojourn);
    if h.qbytes > agg.max_qbytes then agg.max_qbytes <- h.qbytes;
    agg.svc_sum_bps <- agg.svc_sum_bps +. float_of_int h.svc_bps;
    agg.samples <- agg.samples + 1;
    match t.watched with
    | Some (ts, f) when Flow_key.equal f flow || Flow_key.equal (Flow_key.reverse f) flow ->
      let ch name = Timeseries.channel ts (Printf.sprintf "int.flow0.%s.%s" agg.label name) in
      Timeseries.record (ch "sojourn_ns") ~now (float_of_int sojourn);
      Timeseries.record (ch "qbytes") ~now (float_of_int h.qbytes)
    | Some _ | None -> ()
  done;
  if Array.length hops > 0 then Dcstats.Samples.add t.path_sojourn (float_of_int !path)

let touched t = t.packets > 0

let packets t = t.packets

let to_json t =
  let hops =
    Hashtbl.fold (fun _ agg acc -> (agg.label, agg) :: acc) t.per_hop []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (label, agg) ->
           ( label,
             Json.Obj
               [
                 ("sojourn_ns", Report.summary agg.sojourn);
                 ("max_qbytes", Json.Int agg.max_qbytes);
                 ( "mean_svc_gbps",
                   Json.Float
                     (if agg.samples = 0 then 0.0
                      else agg.svc_sum_bps /. float_of_int agg.samples /. 1e9) );
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
