module Time_ns = Eventsim.Time_ns
module Flow_key = Dcpkt.Flow_key
module Int_meta = Dcpkt.Int_meta

type state =
  | Handshake
  | App_limited
  | Cwnd_limited
  | Rwnd_limited_native
  | Rwnd_limited_enforced
  | Rto_recovery
  | In_flight

let all_states =
  [
    Handshake;
    App_limited;
    Cwnd_limited;
    Rwnd_limited_native;
    Rwnd_limited_enforced;
    Rto_recovery;
    In_flight;
  ]

let n_states = 7

let state_index = function
  | Handshake -> 0
  | App_limited -> 1
  | Cwnd_limited -> 2
  | Rwnd_limited_native -> 3
  | Rwnd_limited_enforced -> 4
  | Rto_recovery -> 5
  | In_flight -> 6

let state_label = function
  | Handshake -> "handshake"
  | App_limited -> "app_limited"
  | Cwnd_limited -> "cwnd_limited"
  | Rwnd_limited_native -> "rwnd_limited_native"
  | Rwnd_limited_enforced -> "rwnd_limited_enforced"
  | Rto_recovery -> "rto_recovery"
  | In_flight -> "in_flight"

type cause =
  | Blocked_handshake
  | Blocked_app
  | Blocked_cwnd
  | Blocked_rwnd
  | Blocked_rto
  | Waiting_acks

type snapshot = {
  snap_flow : Flow_key.t;
  snap_fct : Time_ns.t;
  snap_states : (state * Time_ns.t) list;
  snap_hops : (string * int) list;
  snap_hop_packets : int;
}

type hop_sum = { hop_label : string; mutable sojourn_ns : int }

type clock = {
  key : Flow_key.t;
  mutable started : Time_ns.t;
  mutable state : state;
  mutable since : Time_ns.t;
  acc : int array; (* ns per state, indexed by state_index *)
  mutable enforced : bool;
  hops : (int * int, hop_sum) Hashtbl.t; (* per-hop sojourn sums by (hop_id, port) *)
  mutable hop_packets : int;
  mutable watched : Timeseries.t option;
  mutable snap : snapshot option; (* latest completion snapshot *)
}

type t = {
  mutable on : bool;
  flows : clock Flow_key.Table.t;
  pending_watch : Timeseries.t Flow_key.Table.t;
      (* watches registered before the flow's clock exists (e.g. at
         experiment setup, before the handshake runs) *)
  mutable ever : int; (* flows tracked since reset, for [touched] *)
}

let create () =
  {
    on = false;
    flows = Flow_key.Table.create 64;
    pending_watch = Flow_key.Table.create 4;
    ever = 0;
  }

let enabled t = t.on

let set_enabled t on = t.on <- on

let reset t =
  Flow_key.Table.reset t.flows;
  Flow_key.Table.reset t.pending_watch;
  t.ever <- 0

let start t ~now key =
  let c =
    {
      key;
      started = now;
      state = Handshake;
      since = now;
      acc = Array.make n_states 0;
      enforced = false;
      hops = Hashtbl.create 8;
      hop_packets = 0;
      watched = Flow_key.Table.find_opt t.pending_watch key;
      snap = None;
    }
  in
  Flow_key.Table.replace t.flows key c;
  t.ever <- t.ever + 1

let watch t ~ts key =
  Flow_key.Table.replace t.pending_watch key ts;
  match Flow_key.Table.find_opt t.flows key with
  | Some c -> c.watched <- Some ts
  | None -> ()

(* Charge the open interval [since, now) to the current state.  Every
   nanosecond between [started] and the charge point lands in exactly one
   state bucket, which is what makes the durations sum to the FCT. *)
let charge c ~now =
  let spent = Time_ns.diff now c.since in
  let i = state_index c.state in
  c.acc.(i) <- c.acc.(i) + spent;
  c.since <- now;
  spent

let record_watch c ~now left =
  match c.watched with
  | None -> ()
  | Some ts ->
    let ch = Timeseries.channel ts ~unit_label:"ns" ("attrib.flow0." ^ state_label left) in
    Timeseries.record ch ~now (float_of_int c.acc.(state_index left))

let resolve c cause =
  match cause with
  | Blocked_handshake -> Handshake
  | Blocked_app -> App_limited
  | Blocked_cwnd -> Cwnd_limited
  | Blocked_rwnd -> if c.enforced then Rwnd_limited_enforced else Rwnd_limited_native
  | Blocked_rto -> Rto_recovery
  | Waiting_acks -> In_flight

let note t ~now ~tracer key cause =
  match Flow_key.Table.find_opt t.flows key with
  | None -> ()
  | Some c ->
    let next = resolve c cause in
    if next <> c.state then begin
      let left = c.state in
      let spent = charge c ~now in
      c.state <- next;
      record_watch c ~now left;
      if Trace.enabled tracer then
        Trace.emit tracer ~now
          (Trace.Attrib_transition
             {
               flow = key;
               from_state = state_label left;
               to_state = state_label next;
               spent;
             })
    end

let set_enforced t key enforced =
  match Flow_key.Table.find_opt t.flows key with
  | None -> ()
  | Some c -> c.enforced <- enforced

let absorb_hops t key hops =
  match Flow_key.Table.find t.flows key with
  | exception Not_found -> ()
  | c ->
    if Array.length hops > 0 then begin
      c.hop_packets <- c.hop_packets + 1;
      for i = 0 to Array.length hops - 1 do
        let h = hops.(i) in
        let hop = (h.Int_meta.hop_id, h.Int_meta.port) in
        match Hashtbl.find c.hops hop with
        | sum -> sum.sojourn_ns <- sum.sojourn_ns + Int_meta.sojourn_ns h
        | exception Not_found ->
          Hashtbl.add c.hops hop
            { hop_label = Int_meta.hop_label h; sojourn_ns = Int_meta.sojourn_ns h }
      done
    end

let states_of c = List.map (fun s -> (s, c.acc.(state_index s))) all_states

let hops_of c =
  Hashtbl.fold (fun _ sum acc -> (sum.hop_label, sum.sojourn_ns) :: acc) c.hops []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let complete t ~now ~tracer key =
  match Flow_key.Table.find_opt t.flows key with
  | None -> ()
  | Some c ->
    let left = c.state in
    let spent = charge c ~now in
    record_watch c ~now left;
    c.snap <-
      Some
        {
          snap_flow = key;
          snap_fct = Time_ns.diff now c.started;
          snap_states = states_of c;
          snap_hops = hops_of c;
          snap_hop_packets = c.hop_packets;
        };
    if Trace.enabled tracer then
      Trace.emit tracer ~now
        (Trace.Attrib_transition
           { flow = key; from_state = state_label left; to_state = "complete"; spent })

let exactness_error snap =
  let sum = List.fold_left (fun acc (_, d) -> acc + d) 0 snap.snap_states in
  abs (snap.snap_fct - sum)

let touched t = t.ever > 0

let tracked t = Flow_key.Table.length t.flows

let flow_label (k : Flow_key.t) =
  Printf.sprintf "%d:%d>%d:%d" k.src_ip k.src_port k.dst_ip k.dst_port

let sorted_clocks t =
  Flow_key.Table.fold (fun _ c acc -> c :: acc) t.flows []
  |> List.sort (fun a b -> String.compare (flow_label a.key) (flow_label b.key))

let completed t =
  List.filter_map (fun c -> c.snap) (sorted_clocks t)

let find_snapshot t key =
  match Flow_key.Table.find_opt t.flows key with Some c -> c.snap | None -> None

(* ------------------------------------------------------------------ *)
(* The report's [fct_attrib] section                                    *)

let row_json c =
  let state_fields states =
    List.map (fun (s, d) -> (state_label s ^ "_ns", Json.Int d)) states
  in
  let hop_fields hops = List.map (fun (label, ns) -> (label, Json.Int ns)) hops in
  match c.snap with
  | Some snap ->
    Json.Obj
      (("flow", Json.String (flow_label c.key))
      :: ("completed", Json.Bool true)
      :: ("fct_ns", Json.Int snap.snap_fct)
      :: state_fields snap.snap_states
      @ [
          ("hop_packets", Json.Int snap.snap_hop_packets);
          ("per_hop_ns", Json.Obj (hop_fields snap.snap_hops));
        ])
  | None ->
    (* A flow that never completed (long-lived source, unfinished at run
       end): report the clock up to its last transition, which is
       deterministic without access to the engine's final time. *)
    Json.Obj
      (("flow", Json.String (flow_label c.key))
      :: ("completed", Json.Bool false)
      :: state_fields (states_of c)
      @ [
          ("hop_packets", Json.Int c.hop_packets);
          ("per_hop_ns", Json.Obj (hop_fields (hops_of c)));
        ])

(* Leaf names deliberately avoid the report_diff latency vocabulary
   ("mean", "p50", ...), which gates higher-is-worse: attribution
   fractions are behavioral descriptors whose shifts should surface as
   drift warnings, not hard regression failures. *)
let samples_json samples =
  let count = Dcstats.Samples.count samples in
  let body =
    if count = 0 then []
    else
      let p q =
        (Printf.sprintf "p%g_frac" q, Json.Float (Dcstats.Samples.percentile samples q))
      in
      [
        ("mean_frac", Json.Float (Dcstats.Samples.mean samples));
        ("min_frac", Json.Float (Dcstats.Samples.min samples));
        p 50.0;
        p 95.0;
        p 99.0;
        ("max_frac", Json.Float (Dcstats.Samples.max samples));
      ]
  in
  Json.Obj (("count", Json.Int count) :: body)

let fct_fractions snaps =
  let fractions = Array.init n_states (fun _ -> Dcstats.Samples.create ()) in
  List.iter
    (fun snap ->
      if snap.snap_fct > 0 then
        List.iter
          (fun (s, d) ->
            Dcstats.Samples.add
              fractions.(state_index s)
              (float_of_int d /. float_of_int snap.snap_fct))
          snap.snap_states)
    snaps;
  List.map (fun s -> (s, fractions.(state_index s))) all_states

let to_json t =
  let clocks = sorted_clocks t in
  let snaps = List.filter_map (fun c -> c.snap) clocks in
  Json.Obj
    [
      ("flows", Json.Int (List.length clocks));
      ("completed", Json.Int (List.length snaps));
      ("rows", Json.List (List.map row_json clocks));
      ( "aggregate",
        Json.Obj
          (List.map
             (fun (s, samples) -> (state_label s ^ "_frac", samples_json samples))
             (fct_fractions snaps)) );
    ]
