module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Rng = Eventsim.Rng
module Packet = Dcpkt.Packet
module Metrics = Obs.Metrics

type config = {
  loss : float;
  dup : float;
  corrupt : float;
  strip_pack : float;
  reorder : float;
  reorder_delay : Time_ns.t;
  jitter : Time_ns.t;
}

let clean =
  {
    loss = 0.;
    dup = 0.;
    corrupt = 0.;
    strip_pack = 0.;
    reorder = 0.;
    reorder_delay = Time_ns.zero;
    jitter = Time_ns.zero;
  }

let is_clean c =
  c.loss = 0. && c.dup = 0. && c.corrupt = 0. && c.strip_pack = 0. && c.reorder = 0.
  && c.jitter = Time_ns.zero

let config_of_string spec =
  let ( let* ) = Result.bind in
  let prob key s =
    match float_of_string_opt (String.trim s) with
    | Some p when p >= 0. && p <= 1. -> Ok p
    | Some _ -> Error (Printf.sprintf "%s: probability must be in [0, 1]" key)
    | None -> Error (Printf.sprintf "%s: not a number: %S" key s)
  in
  let nonneg key s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (Printf.sprintf "%s: must be >= 0" key)
    | None -> Error (Printf.sprintf "%s: not an integer: %S" key s)
  in
  let field acc kv =
    let* acc = acc in
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "expected key=value, got %S" kv)
    | Some i -> (
      let key = String.trim (String.sub kv 0 i) in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      match key with
      | "loss" ->
        let* p = prob key v in
        Ok { acc with loss = p }
      | "dup" ->
        let* p = prob key v in
        Ok { acc with dup = p }
      | "corrupt" ->
        let* p = prob key v in
        Ok { acc with corrupt = p }
      | "strip_pack" ->
        let* p = prob key v in
        Ok { acc with strip_pack = p }
      | "reorder" ->
        let* p = prob key v in
        Ok { acc with reorder = p }
      | "reorder_delay_us" ->
        let* n = nonneg key v in
        Ok { acc with reorder_delay = Time_ns.us n }
      | "reorder_delay_ns" ->
        let* n = nonneg key v in
        Ok { acc with reorder_delay = Time_ns.ns n }
      | "jitter_us" ->
        let* n = nonneg key v in
        Ok { acc with jitter = Time_ns.us n }
      | "jitter_ns" ->
        let* n = nonneg key v in
        Ok { acc with jitter = Time_ns.ns n }
      | _ -> Error (Printf.sprintf "unknown impairment key %S" key))
  in
  let parts = String.split_on_char ',' spec |> List.filter (fun s -> String.trim s <> "") in
  let* config = List.fold_left field (Ok clean) parts in
  (* Reordering without a holding delay (and the default delay is zero)
     would silently do nothing — reject the spec instead. *)
  if config.reorder > 0. && config.reorder_delay = Time_ns.zero then
    Error "reorder > 0 requires reorder_delay_us (or _ns) > 0"
  else Ok config

let config_to_json c : Obs.Json.t =
  Obj
    [
      ("loss", Float c.loss);
      ("dup", Float c.dup);
      ("corrupt", Float c.corrupt);
      ("strip_pack", Float c.strip_pack);
      ("reorder", Float c.reorder);
      ("reorder_delay_ns", Int c.reorder_delay);
      ("jitter_ns", Int c.jitter);
    ]

type t = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  deliver : Packet.t -> unit;
  tracer : Obs.Trace.t;
  pcap : Obs.Pcap.t;
  link : string;
  c_offered : Metrics.counter;
  c_lost : Metrics.counter;
  c_duplicated : Metrics.counter;
  c_corrupted : Metrics.counter;
  c_pack_stripped : Metrics.counter;
  c_reordered : Metrics.counter;
}

let create engine ?(name = "link") ~rng ~config ~deliver () =
  let scope = Metrics.scope (Obs.Runtime.metrics ()) (Printf.sprintf "impair.%s" name) in
  {
    engine;
    rng;
    config;
    deliver;
    tracer = Obs.Runtime.tracer ();
    pcap = Obs.Runtime.pcap ();
    link = Printf.sprintf "impair.%s" name;
    c_offered = Metrics.scope_counter scope "offered";
    c_lost = Metrics.scope_counter scope "lost";
    c_duplicated = Metrics.scope_counter scope "duplicated";
    c_corrupted = Metrics.scope_counter scope "corrupted";
    c_pack_stripped = Metrics.scope_counter scope "pack_stripped";
    c_reordered = Metrics.scope_counter scope "reordered";
  }

let offered t = Metrics.value t.c_offered
let lost t = Metrics.value t.c_lost
let duplicated t = Metrics.value t.c_duplicated
let corrupted t = Metrics.value t.c_corrupted
let pack_stripped t = Metrics.value t.c_pack_stripped
let reordered t = Metrics.value t.c_reordered

(* Draw a uniform delay in [0, bound).  [Rng.int] requires a positive
   bound; a zero bound means "no delay". *)
let sample_delay rng bound = if bound <= 0 then Time_ns.zero else Rng.int rng bound

let hit rng p = p > 0. && Rng.float rng 1.0 < p

let trace t (pkt : Packet.t) action =
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.emit t.tracer ~now:(Engine.now t.engine)
      (Obs.Trace.Impaired { link = t.link; pkt = pkt.Packet.id; action })

(* Delayed handoff rides a pooled engine cell — impaired links sit on the
   forwarding hot path, so no per-frame closure. *)
let deliver_h : (t, Packet.t) Engine.handler = Engine.handler (fun t pkt -> t.deliver pkt)

let emit t pkt =
  let delay = sample_delay t.rng t.config.jitter in
  let delay =
    if hit t.rng t.config.reorder then begin
      Metrics.incr t.c_reordered;
      trace t pkt Obs.Trace.Imp_reordered;
      Time_ns.add delay (sample_delay t.rng t.config.reorder_delay)
    end
    else delay
  in
  (* Capture frames the link actually carries forward — lost and corrupted
     frames never reach this point, matching what a receiver-side tcpdump
     would see. *)
  if Obs.Pcap.enabled t.pcap then
    Obs.Pcap.capture t.pcap ~iface:t.link ~now:(Engine.now t.engine) pkt;
  if delay = Time_ns.zero then t.deliver pkt
  else Engine.schedule_static_after t.engine ~delay deliver_h t pkt

let deliver_unprofiled t pkt =
  Metrics.incr t.c_offered;
  if hit t.rng t.config.loss then begin
    Metrics.incr t.c_lost;
    trace t pkt Obs.Trace.Imp_lost
  end
  else if hit t.rng t.config.corrupt then begin
    (* A corrupted frame fails its FCS and is dropped by the receiving NIC
       before any protocol layer sees it — same observable effect as loss,
       but counted separately so reports can attribute it. *)
    Metrics.incr t.c_corrupted;
    trace t pkt Obs.Trace.Imp_corrupted
  end
  else begin
    (* Targeted option corruption: the frame survives but AC/DC's
       piggy-backed feedback does not (§3.2's pathology). *)
    (match Packet.pack_info pkt with
    | Some _ when hit t.rng t.config.strip_pack ->
      Metrics.incr t.c_pack_stripped;
      trace t pkt Obs.Trace.Imp_pack_stripped;
      Packet.remove_pack pkt
    | Some _ | None -> ());
    if hit t.rng t.config.dup then begin
      Metrics.incr t.c_duplicated;
      (* The duplicate is an independent frame: it must not alias the
         original's mutable fields, and it takes its own jitter/reorder
         draw so the two copies can land in either order. *)
      let copy = Packet.copy pkt in
      trace t pkt (Obs.Trace.Imp_duplicated { copy = copy.Packet.id });
      emit t copy
    end;
    emit t pkt
  end

let deliver t pkt =
  if !Profcore.on then begin
    let tok = Profcore.enter Profcore.Site.impair in
    deliver_unprofiled t pkt;
    Profcore.leave tok
  end
  else deliver_unprofiled t pkt

let wrap engine ?name ~rng ~config inner =
  if is_clean config then inner
  else
    let t = create engine ?name ~rng ~config ~deliver:inner () in
    fun pkt -> deliver t pkt

(* Ambient default, mirroring [Obs.Runtime]: the CLI installs a spec
   before topologies are built; [Fabric.Topology] consults it per link. *)

let ambient = ref None

let set_default ~config ~seed = ambient := Some (config, Rng.create ~seed)

let clear_default () = ambient := None

let default () = !ambient
