(* Offline provenance queries: answer "what happened to this packet /
   this flow?" from a run's JSONL trace, and validate that a pcap capture,
   a trace and a report all describe the same run.  Each subcommand reads
   its trace in one pass ([validate] its capture in one more) and keeps
   only the state its output needs. *)

module Json = Obs.Json
module Trace = Obs.Trace
module Pcap = Obs.Pcap
module Packet = Dcpkt.Packet
module Int_sink = Obs.Int_sink
module Flow_key = Dcpkt.Flow_key
module Samples = Dcstats.Samples

exception Fail of string

let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

let iter_trace path f =
  match Trace.fold_file path ~init:() (fun () now ev -> f now ev) with
  | Ok () -> ()
  | Error e -> failf "%s" e

let parse_flow spec = match Trace.flow_of_spec spec with Ok f -> f | Error e -> failf "%s" e

let us ns = float_of_int ns /. 1000.0

(* A packet's lifecycle ends at exactly one of these (modulo the
   Policer_drop + Vswitch_drop pair the egress chain emits together). *)
let is_terminal = function
  | Trace.Delivered _ | Trace.Drop _ | Trace.Vswitch_drop _ | Trace.Policer_drop _ -> true
  | Trace.Impaired { action = Trace.Imp_lost | Trace.Imp_corrupted; _ } -> true
  | _ -> false

let describe_terminal = function
  | Trace.Delivered { node; _ } -> Printf.sprintf "delivered at %s" node
  | Trace.Drop { node; reason; _ } ->
    Printf.sprintf "dropped at %s (%s)" node
      (match reason with
      | Trace.No_route -> "no route"
      | Trace.Buffer_full -> "buffer full"
      | Trace.Over_threshold -> "over threshold"
      | Trace.Wred -> "wred"
      | Trace.No_endpoint -> "no endpoint")
  | Trace.Vswitch_drop { node; egress; _ } ->
    Printf.sprintf "dropped by the %s vswitch (%s)" node (if egress then "egress" else "ingress")
  | Trace.Policer_drop { window; _ } ->
    Printf.sprintf "policed (beyond the %d-byte enforced window)" window
  | Trace.Impaired { link; action = Trace.Imp_lost; _ } -> Printf.sprintf "lost on %s" link
  | Trace.Impaired { link; action = Trace.Imp_corrupted; _ } ->
    Printf.sprintf "corrupted on %s" link
  | _ -> "in flight when the trace ended"

let print_timeline evs =
  Format.printf "  %12s %12s  %s@." "t (us)" "+hop (us)" "event";
  let prev = ref None in
  List.iter
    (fun (now, ev) ->
      let hop = match !prev with Some p -> Printf.sprintf "%.3f" (us (now - p)) | None -> "" in
      Format.printf "  %12.3f %12s  %a@." (us now) hop Trace.pp_event ev;
      prev := Some now)
    evs

let explain_pkt path n =
  (* The packet's events, newest first, and how it came to exist: its
     first Created event, or else the impairment that duplicated it. *)
  let rev = ref [] and origin = ref None in
  iter_trace path (fun now ev ->
      if Trace.pkt_of_event ev = Some n then rev := (now, ev) :: !rev;
      match (ev, !origin) with
      | Trace.Created { pkt; _ }, (None | Some (_, Trace.Impaired _)) when pkt = n ->
        origin := Some (now, ev)
      | Trace.Impaired { action = Trace.Imp_duplicated { copy }; _ }, None when copy = n ->
        origin := Some (now, ev)
      | _ -> ());
  if !rev = [] then failf "no events for packet %d in this trace" n;
  (match !origin with
  | Some (t, Trace.Created { node; flow; size; kind; _ }) ->
    Format.printf "packet %d: %s, %d bytes on wire, flow %a, created at %s (t=%.3f us)@." n
      kind size Flow_key.pp flow node (us t)
  | Some (t, Trace.Impaired { link; pkt; _ }) ->
    Format.printf "packet %d: duplicate of packet %d, made by %s (t=%.3f us)@." n pkt link
      (us t)
  | _ -> Format.printf "packet %d: (no creation event in this trace)@." n);
  let evs = List.rev !rev in
  print_timeline evs;
  let first, _ = List.hd evs in
  match List.find_opt (fun (_, ev) -> is_terminal ev) !rev with
  | Some (t, ev) ->
    Format.printf "lifecycle: %s after %.3f us (%d events)@." (describe_terminal ev)
      (us (t - first)) (List.length evs)
  | None ->
    let last_t, last_ev = List.hd !rev in
    Format.printf "lifecycle: in flight when the trace ended (last seen %a at t=%.3f us)@."
      Trace.pp_event last_ev (us last_t)

let explain_flow path spec =
  let flow = parse_flow spec in
  let keep = Trace.flow_selector ~flows:[ flow ] in
  let evs = ref [] in
  iter_trace path (fun now ev -> if keep now ev then evs := (now, ev) :: !evs);
  let evs = List.rev !evs in
  if evs = [] then failf "no events for flow %s in this trace" spec;
  Format.printf "flow %a: %d events@." Flow_key.pp flow (List.length evs);
  print_timeline evs;
  let count kind = List.length (List.filter (fun (_, ev) -> Trace.kind_of_event ev = kind) evs) in
  Format.printf
    "summary: %d packets created, %d delivered, %d rwnd rewrites, %d alpha updates, %d \
     policer drops, %d rto inferences@."
    (count "created") (count "delivered") (count "rwnd_rewrite") (count "alpha_update")
    (count "policer_drop") (count "rto")

let summary path =
  let events = ref 0 and t0 = ref 0 and t1 = ref 0 in
  let kinds = Hashtbl.create 16 in
  let impairs = Hashtbl.create 8 in
  let pkts = Hashtbl.create 1024 in
  let flows = Hashtbl.create 64 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  iter_trace path (fun now ev ->
      if !events = 0 then t0 := now;
      incr events;
      t1 := now;
      bump kinds (Trace.kind_of_event ev);
      (match ev with
      | Trace.Impaired { action; _ } -> bump impairs (Trace.action_label action)
      | _ -> ());
      Option.iter (fun p -> Hashtbl.replace pkts p ()) (Trace.pkt_of_event ev);
      Option.iter (fun f -> Hashtbl.replace flows f ()) (Trace.flow_of_event ev));
  if !events > 0 then
    Format.printf "%d events spanning %.3f us (t=%.3f..%.3f us)@." !events (us (!t1 - !t0))
      (us !t0) (us !t1)
  else Format.printf "empty trace@.";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (k, v) ->
         Format.printf "  %-14s %8d@." k v;
         (* Impairments are one aggregate kind in the tag vocabulary;
            break them out per action right under the aggregate row. *)
         if k = "impaired" then
           Hashtbl.fold (fun a n acc -> (a, n) :: acc) impairs []
           |> List.sort (fun (a, _) (b, _) -> String.compare a b)
           |> List.iter (fun (a, n) -> Format.printf "    %-12s %8d@." ("/" ^ a) n));
  Format.printf "%d distinct packets, %d distinct flows@." (Hashtbl.length pkts)
    (Hashtbl.length flows)

(* ------------------------------------------------------------------ *)
(* int: break a flow's latency down hop-by-hop from its INT samples.   *)

let int_view trace spec =
  let flow = parse_flow spec in
  let fwd k = Flow_key.equal k flow in
  (* The ACKs of a flow carry their own stamps under the reversed
     4-tuple, so fold the two directions into separate sinks. *)
  let data = Int_sink.create () and ack = Int_sink.create () in
  let replay =
    Int_sink.replay (fun f ->
        if fwd f then Some data else if Flow_key.equal f (Flow_key.reverse flow) then Some ack
        else None)
  in
  (* End-to-end attribution: creation -> delivery against the summed hop
     sojourns of the same packets.  A packet's stamps are stripped just
     before its delivery, so their sum is complete when it is delivered,
     and both entries go then. *)
  let created = Hashtbl.create 1024 in (* data pkt id -> creation time *)
  let pkt_sojourn = Hashtbl.create 1024 in (* data pkt id -> summed hop sojourn *)
  let e2e = Samples.create () and path = Samples.create () in
  let sum_e2e = ref 0 and sum_path = ref 0 in
  iter_trace trace (fun now ev ->
      replay now ev;
      match ev with
      | Trace.Created { flow = f; pkt; _ } when fwd f -> Hashtbl.replace created pkt now
      | Trace.Int_hop { flow = f; pkt; ingress; egress; _ } when fwd f ->
        Hashtbl.replace pkt_sojourn pkt
          (egress - ingress + Option.value ~default:0 (Hashtbl.find_opt pkt_sojourn pkt))
      | Trace.Delivered { pkt; _ } when Hashtbl.mem created pkt ->
        let latency = now - Hashtbl.find created pkt in
        let s = Option.value ~default:0 (Hashtbl.find_opt pkt_sojourn pkt) in
        Hashtbl.remove created pkt;
        Hashtbl.remove pkt_sojourn pkt;
        Samples.add e2e (float_of_int latency);
        Samples.add path (float_of_int s);
        sum_e2e := !sum_e2e + latency;
        sum_path := !sum_path + s
      | _ -> ());
  let data_rows = Int_sink.rows data and ack_rows = Int_sink.rows ack in
  let samples rows = List.fold_left (fun acc (r : Int_sink.row) -> acc + r.samples) 0 rows in
  let hop_samples = samples data_rows + samples ack_rows in
  if hop_samples = 0 then
    failf "no INT samples for flow %s in this trace (was the run INT-enabled?)" spec;
  let exceeded = Int_sink.exceeded data + Int_sink.exceeded ack in
  Format.printf "flow %a: %d stamped packets, %d hop samples%s@." Flow_key.pp flow
    (Int_sink.packets data + Int_sink.packets ack) hop_samples
    (if exceeded > 0 then Printf.sprintf " (%d packets ran out of option space)" exceeded
     else "");
  List.iter
    (fun (title, rows) ->
      if rows <> [] then begin
        Format.printf "%s (per-hop queueing):@." title;
        Int_sink.pp_rows Format.std_formatter rows
      end)
    [ ("data path", data_rows); ("ack path", ack_rows) ];
  if Samples.count e2e > 0 then begin
    Format.printf
      "end-to-end (created -> delivered, %d packets): mean %.3f us, p99 %.3f us@."
      (Samples.count e2e) (Samples.mean e2e /. 1000.0)
      (Samples.percentile e2e 99.0 /. 1000.0)
    ;
    Format.printf
      "  stamped-hop queueing: mean %.3f us, p99 %.3f us — %.1f%% of end-to-end latency@."
      (Samples.mean path /. 1000.0)
      (Samples.percentile path 99.0 /. 1000.0)
      (if !sum_e2e = 0 then 0.0 else 100.0 *. float_of_int !sum_path /. float_of_int !sum_e2e);
    Format.printf
      "  (the rest is serialization, propagation and NIC/vswitch time outside the stamped \
       queues)@."
  end;
  Format.printf "total stamped sojourn: %.3f us on the data path@."
    (us (List.fold_left (fun acc (r : Int_sink.row) -> acc + r.sum_ns) 0 data_rows))

(* ------------------------------------------------------------------ *)
(* why: a flow's causal stall timeline from its attribution events.    *)

let why_view trace spec =
  let flow = parse_flow spec in
  let sink = Int_sink.create () in
  let replay = Int_sink.replay (fun f -> if Flow_key.equal f flow then Some sink else None) in
  let transitions = ref [] in
  iter_trace trace (fun now ev ->
      replay now ev;
      match ev with
      | Trace.Attrib_transition { flow = f; from_state; to_state; spent }
        when Flow_key.equal f flow ->
        transitions := (now, from_state, to_state, spent) :: !transitions
      | _ -> ());
  let transitions = List.rev !transitions in
  if transitions = [] then
    failf
      "no attribution events for flow %s in this trace (was the run started with --attrib?)"
      spec;
  let completions =
    List.length (List.filter (fun (_, _, target, _) -> target = "complete") transitions)
  in
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (_, from_state, _, spent) ->
      Hashtbl.replace totals from_state
        (spent + Option.value ~default:0 (Hashtbl.find_opt totals from_state)))
    transitions;
  let fct = List.fold_left (fun acc (_, _, _, spent) -> acc + spent) 0 transitions in
  Format.printf "flow %a: %d state transitions%s@." Flow_key.pp flow (List.length transitions)
    (if completions > 0 then
       Printf.sprintf ", completed %d message batch(es), FCT %.3f us" completions (us fct)
     else Printf.sprintf ", still live after %.3f us accounted" (us fct));
  (* Each transition closes the interval its [spent] covers: the flow sat
     in [from_state] from (t - spent) to t. *)
  Format.printf "stall timeline:@.";
  Format.printf "  %12s %12s  %s@." "t (us)" "dur (us)" "state";
  List.iter
    (fun (now, from_state, to_state, spent) ->
      Format.printf "  %12.3f %12.3f  %s%s@."
        (us (now - spent))
        (us spent) from_state
        (if to_state = "complete" then "  [message batch complete]" else ""))
    transitions;
  (* The causal verdict: where the flow's lifetime actually went.  The
     durations are exact (they sum to the FCT by construction), so the
     shares are too. *)
  Format.printf "attribution (share of accounted time):@.";
  Hashtbl.fold (fun state ns acc -> (state, ns) :: acc) totals []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (state, ns) ->
         Format.printf "  %-24s %5.1f%%  %12.3f us@." state
           (if fct = 0 then 0.0 else 100.0 *. float_of_int ns /. float_of_int fct)
           (us ns));
  (* Split "in_flight" further when the trace carries INT stamps: which
     switch port the waiting actually happened at. *)
  match Int_sink.rows sink with
  | [] ->
    Format.printf
      "(no INT samples for this flow; rerun with --int to split in_flight per hop)@."
  | rows ->
    Format.printf "in_flight decomposition (per-hop queueing, from INT):@.";
    List.stable_sort (fun (a : Int_sink.row) b -> Int.compare b.sum_ns a.sum_ns) rows
    |> List.iter (fun (r : Int_sink.row) ->
           Format.printf "  %-16s %5.1f%%  %12.3f us over %d packets@." r.label
             (100.0 *. r.share) (us r.sum_ns) r.samples)

(* ------------------------------------------------------------------ *)
(* validate: do the capture, the trace and the report agree?           *)

let check name ok detail =
  Format.printf "  %-38s %s@." name (if ok then "ok" else "FAIL — " ^ detail);
  ok

(* Each check below is a pair: a feed, called on every event of
   [validate]'s one pass over the trace, and a verdict that prints its
   check lines afterwards. *)

(* Every packet-keyed event must belong to a packet whose origin the
   trace records (a Created event, or birth as an impairment duplicate),
   and nothing may happen to a packet after its terminal event.  Each
   packet keeps four bits. *)
let lifecycles () =
  let traced = 1 and origin = 2 and ended = 4 and zombie = 8 in
  let lives = Hashtbl.create 4096 in
  let bits p = Option.value ~default:0 (Hashtbl.find_opt lives p) in
  let feed ev =
    (match ev with
    | Trace.Created { pkt; _ } -> Hashtbl.replace lives pkt (bits pkt lor origin)
    | Trace.Impaired { action = Trace.Imp_duplicated { copy }; _ } ->
      Hashtbl.replace lives copy (bits copy lor origin)
    | _ -> ());
    match Trace.pkt_of_event ev with
    | None -> ()
    | Some p ->
      let b = bits p lor traced in
      Hashtbl.replace lives p
        (if is_terminal ev then b lor ended else if b land ended <> 0 then b lor zombie else b)
  in
  let verdict () =
    let packets = ref 0 and complete = ref 0 and orphans = ref [] and zombies = ref [] in
    Hashtbl.iter
      (fun p b ->
        if b land traced <> 0 then begin
          incr packets;
          if b land origin = 0 then orphans := p :: !orphans;
          if b land zombie <> 0 then zombies := p :: !zombies;
          if b land ended <> 0 then incr complete
        end)
      lives;
    let sample l =
      String.concat ", "
        (List.map string_of_int (List.filteri (fun i _ -> i < 5) (List.sort compare l)))
    in
    let ok1 =
      check "every packet has a recorded origin" (!orphans = [])
        (Printf.sprintf "%d packet(s) with events but no origin (e.g. %s)"
           (List.length !orphans) (sample !orphans))
    in
    let ok2 =
      check "no events after a terminal event" (!zombies = [])
        (Printf.sprintf "%d packet(s) live on after dying (e.g. %s)" (List.length !zombies)
           (sample !zombies))
    in
    Format.printf "  (%d packets traced, %d reached a terminal event, %d in flight at end)@."
      !packets !complete (!packets - !complete);
    ok1 && ok2
  in
  (feed, verdict)

(* One pass over the capture: every frame must parse, re-encode to its
   own bytes and account for its payload in [orig_len]; [port_frame]
   sees every frame too. *)
let scan_capture path ~port_frame =
  let frames = ref 0 and bad = ref 0 and first_err = ref "" in
  let fail fmt =
    Printf.ksprintf
      (fun e ->
        incr bad;
        if !first_err = "" then first_err := Printf.sprintf "frame %d: %s" !frames e)
      fmt
  in
  let frame () (f : Pcap.frame) =
    (match Packet.of_wire f.Pcap.data with
    | Error e -> fail "%s" e
    | Ok pkt ->
      if Packet.to_wire pkt <> f.Pcap.data then fail "re-serialization differs"
      else if f.Pcap.orig_len <> String.length f.Pcap.data + pkt.Packet.payload then
        fail "orig_len %d <> header %d + payload %d" f.Pcap.orig_len
          (String.length f.Pcap.data) pkt.Packet.payload);
    port_frame f;
    incr frames
  in
  (match Pcap.fold_file path ~init:() frame with Ok () -> () | Error e -> failf "%s" e);
  let verdict () =
    check
      (Printf.sprintf "all %d frames parse and round-trip" !frames)
      (!bad = 0)
      (Printf.sprintf "%d frame(s) failed; %s" !bad !first_err)
  in
  (!frames, verdict)

let load_report path =
  let json = match Obs.Report.read_file ~path with Ok json -> json | Error e -> failf "%s" e in
  let section name =
    match Option.bind (Json.member "metrics" json) (Json.member name) with
    | Some (Json.Obj fields) ->
      List.filter_map (fun (k, v) -> match v with Json.Int i -> Some (k, i) | _ -> None) fields
    | _ -> failf "%s: no metrics.%s object" path name
  in
  (json, (section "counters", section "gauges"))

(* The capture taps are: every transmit-queue dequeue, both directions of
   every VM edge, and every frame an impaired link carries forward.  Each
   tap has an exact witness — Dequeue events, the vswitch egress counter
   plus Delivered/No_endpoint events, and the impair counters — so for an
   unfiltered trace the frame count must match to the packet. *)
let tap_counts () =
  let dequeues = ref 0 and delivered = ref 0 and no_endpoint = ref 0 in
  let feed = function
    | Trace.Dequeue _ -> incr dequeues
    | Trace.Delivered _ -> incr delivered
    | Trace.Drop { reason = Trace.No_endpoint; _ } -> incr no_endpoint
    | _ -> ()
  in
  let verdict ~frames ~metrics =
    let dequeues = !dequeues and delivered = !delivered and no_endpoint = !no_endpoint in
    match metrics with
    | None ->
      (* Without the metrics snapshot only the tap inventory from the trace
         is available; the VM egress tap has no trace witness, so settle for
         a lower bound. *)
      check "frame count covers traced taps"
        (frames >= dequeues + delivered + no_endpoint)
        (Printf.sprintf "%d frames < %d dequeues + %d delivered + %d no-endpoint" frames
           dequeues delivered no_endpoint)
    | Some (counters, _) ->
      let vm_egress =
        Option.value ~default:0 (List.assoc_opt "vswitch.egress_packets" counters)
      in
      let impair_forwarded =
        (* Link names may themselves contain dots ("impair.host1.up.lost"),
           so the field is the segment after the last dot. *)
        List.fold_left
          (fun acc (k, v) ->
            if not (String.length k > 7 && String.sub k 0 7 = "impair.") then acc
            else
              match String.rindex_opt k '.' with
              | None -> acc
              | Some i -> (
                match String.sub k (i + 1) (String.length k - i - 1) with
                | "offered" | "duplicated" -> acc + v
                | "lost" | "corrupted" -> acc - v
                | _ -> acc))
          0 counters
      in
      let expected = dequeues + delivered + no_endpoint + vm_egress + impair_forwarded in
      check "frame count matches metrics + trace" (frames = expected)
        (Printf.sprintf
           "%d frames <> %d (= %d dequeues + %d delivered + %d no-endpoint + %d vm egress + \
            %d impair-forwarded)"
           frames expected dequeues delivered no_endpoint vm_egress impair_forwarded)
  in
  (feed, verdict)

(* The capture tap at a transmit queue fires right after the queue's
   Dequeue event, at the same instant, and the frame carries the packet
   id's low 16 bits as its IPv4 identification.  So per port — the pcapng
   interface "node:port" — the frames must be the port's dequeues, in
   order.  Each side folds to a count and an order-sensitive digest of
   (time, id mod 2^16) per port, which keeps both passes streaming.
   Frames at VM edges and impaired links have no Dequeue and are left to
   the count checks; a classic pcap names no interfaces. *)
let port_frames () =
  (* port -> (count, digest) *)
  let traced = Hashtbl.create 32 and captured = Hashtbl.create 32 in
  let classic = ref false in
  let fold tbl port = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl port) in
  let add tbl port t id =
    let n, d = fold tbl port in
    (* FNV-1a steps over the two words, wrapping at OCaml's int width. *)
    Hashtbl.replace tbl port (n + 1, (((d lxor t) * 0x100000001b3) lxor id) * 0x100000001b3)
  in
  let feed now = function
    | Trace.Dequeue { node; port; pkt; _ } ->
      add traced (Printf.sprintf "%s:%d" node port) now (pkt land 0xFFFF)
    | _ -> ()
  in
  let frame (f : Pcap.frame) =
    match f.Pcap.iface with
    | None -> classic := true
    | Some iface ->
      let data = f.Pcap.data in
      add captured iface f.Pcap.ts
        (if String.length data >= 20 then String.get_uint16_be data 18 else -1)
  in
  let verdict ~frames =
    let name = "queue frames match dequeues" in
    if !classic then begin
      Format.printf "  %-38s does not apply (classic pcap has no interfaces)@." name;
      true
    end
    else begin
      let matched = ref 0 and bad = ref [] in
      Hashtbl.iter
        (fun port (n, d) ->
          let frames, digest = fold captured port in
          if (frames, digest) = (n, d) then matched := !matched + n
          else
            bad :=
              Printf.sprintf "%s: %d frames, %d dequeues%s" port frames n
                (if frames = n then ", other times or ids" else "")
              :: !bad)
        traced;
      let detail =
        match List.sort compare !bad with
        | [] -> ""
        | first :: _ -> Printf.sprintf "%d port(s) disagree (e.g. %s)" (List.length !bad) first
      in
      check
        (Printf.sprintf "%s (%d ports, %d of %d frames)" name (Hashtbl.length traced) !matched
           frames)
        (!bad = []) detail
    end
  in
  (feed, frame, verdict)

(* INT stamps must agree with the queue's own story: every Int_hop's
   ingress/egress must coincide with the packet's Enqueue/Dequeue pair at
   that node and port, and (with a report) the per-port sojourn totals
   the replayed stamps fold to must fit under the independent
   [txq.<node>.port<i>.sojourn_*] instruments — the cross-check behind
   the per-hop attribution guarantee. *)
let int_stamps () =
  (* pkt -> (enqueue?, node, port, t) of its queue events, newest first.
     A packet's stamps are stripped after it left the hop's queue and
     before its terminal event, where its entries go. *)
  let queued = Hashtbl.create 4096 in
  let hops = ref 0 and bad = ref 0 and first = ref "" in
  let stamp pkt ~enq node port =
    List.find_map
      (fun (e, n, p, t) -> if e = enq && String.equal n node && p = port then Some t else None)
      (Hashtbl.find_all queued pkt)
  in
  let feed now ev =
    match ev with
    | Trace.Enqueue { node; port; pkt; _ } -> Hashtbl.add queued pkt (true, node, port, now)
    | Trace.Dequeue { node; port; pkt; _ } -> Hashtbl.add queued pkt (false, node, port, now)
    | Trace.Int_hop { pkt; hop; port; ingress; egress; _ } ->
      incr hops;
      if stamp pkt ~enq:true hop port <> Some ingress || stamp pkt ~enq:false hop port <> Some egress
      then begin
        incr bad;
        if !first = "" then first := Printf.sprintf "pkt %d at %s:%d" pkt hop port
      end
    | ev when is_terminal ev ->
      Option.iter
        (fun p ->
          while Hashtbl.mem queued p do
            Hashtbl.remove queued p
          done)
        (Trace.pkt_of_event ev)
    | _ -> ()
  in
  let verdict rows ~metrics =
    if rows = [] then true (* nothing stamped; stay quiet *)
    else begin
      let ok1 =
        check
          (Printf.sprintf "INT stamps match enqueue/dequeue (%d hops)" !hops)
          (!bad = 0)
          (Printf.sprintf "%d stamp(s) disagree with queue events (e.g. %s)" !bad !first)
      in
      let ok2 =
        match metrics with
        | None -> true
        | Some (counters, gauges) ->
          (* Per (node, port): INT is a per-packet subset of what the txq
             sojourn instruments saw, so max <= gauge and sum/count <= the
             counters. *)
          let metric assoc name = List.assoc_opt name assoc in
          let bad = ref 0 and first = ref "" in
          List.iter
            (fun (r : Int_sink.row) ->
              let scope = Printf.sprintf "txq.%s.port%d" r.node r.port in
              let fail fmt =
                Printf.ksprintf
                  (fun s ->
                    incr bad;
                    if !first = "" then first := s)
                  fmt
              in
              match
                ( metric gauges (scope ^ ".sojourn_ns"),
                  metric counters (scope ^ ".sojourn_total_ns"),
                  metric counters (scope ^ ".sojourn_samples") )
              with
              | Some g, Some total, Some samples ->
                if r.max_ns > g then fail "%s: INT max %d > gauge %d" scope r.max_ns g
                else if r.sum_ns > total then
                  fail "%s: INT sum %d > total %d" scope r.sum_ns total
                else if r.samples > samples then
                  fail "%s: %d INT samples > %d recorded" scope r.samples samples
              | _ -> fail "%s: sojourn instruments missing from report" scope)
            rows;
          check
            (Printf.sprintf "INT sojourns fit txq instruments (%d ports)" (List.length rows))
            (!bad = 0)
            (Printf.sprintf "%d port(s) out of bounds (e.g. %s)" !bad !first)
      in
      ok1 && ok2
    end
  in
  (feed, verdict)

(* The report's [int] section is the run's ambient sink, which folded the
   same stacks the trace records, so replaying the trace must rebuild it
   exactly.  Both sides go through the JSON printer: a float the report
   printed parses back to one that prints the same. *)
let check_int_replay sink report_json =
  match Json.member "int" report_json with
  | None ->
    Format.printf "  %-38s does not apply (no int section)@." "report int section = replayed trace";
    true
  | Some reported ->
    check
      (Printf.sprintf "report int section = replayed trace (%d stacks)" (Int_sink.packets sink))
      (Json.to_string reported = Json.to_string (Int_sink.to_json sink))
      "the trace's int_hop/int_strip events fold to another section"

let validate ~pcap ~trace ~report =
  let events = ref 0 in
  let lifecycle, check_lifecycles = lifecycles () in
  let tap, check_counts = tap_counts () in
  let dequeue, port_frame, check_ports = port_frames () in
  let stamps, check_stamps = int_stamps () in
  let sink = Int_sink.create () in
  let replay = Int_sink.replay (fun _ -> Some sink) in
  iter_trace trace (fun now ev ->
      incr events;
      lifecycle ev;
      tap ev;
      dequeue now ev;
      stamps now ev;
      replay now ev);
  Format.printf "validating %s against %s%s@." pcap trace
    (match report with Some r -> " and " ^ r | None -> "");
  let frames, check_roundtrip = scan_capture pcap ~port_frame in
  let report = Option.map load_report report in
  let metrics = Option.map snd report in
  (* Run every check even after a failure, so one run reports them all. *)
  let c1 = check (Printf.sprintf "trace parses (%d events)" !events) true "" in
  let c2 = check_roundtrip () in
  let c3 = check_lifecycles () in
  let c4 = check_counts ~frames ~metrics in
  let c5 = check_ports ~frames in
  let c6 = check_stamps (Int_sink.rows sink) ~metrics in
  let c7 = match report with Some (json, _) -> check_int_replay sink json | None -> true in
  let ok = c1 && c2 && c3 && c4 && c5 && c6 && c7 in
  if not ok then failf "validation failed";
  Format.printf "all checks passed@."

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)

open Cmdliner

let trace_pos =
  let doc = "JSONL trace file (written by acdc_expt --trace)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)

let wrap f = try `Ok (f ()) with Fail msg -> `Error (false, msg)

let explain_cmd =
  let pkt_arg =
    let doc = "Explain packet $(docv): its full lifecycle timeline with hop latencies." in
    Arg.(value & opt (some int) None & info [ "pkt" ] ~docv:"ID" ~doc)
  in
  let flow_arg =
    let doc =
      "Explain flow $(docv) (format SRC_IP:SRC_PORT-DST_IP:DST_PORT): every event of every \
       packet of the flow, in either direction."
    in
    Arg.(value & opt (some string) None & info [ "flow" ] ~docv:"FLOW" ~doc)
  in
  let run pkt flow trace =
    wrap (fun () ->
        match (pkt, flow) with
        | Some n, None -> explain_pkt trace n
        | None, Some spec -> explain_flow trace spec
        | Some _, Some _ -> failf "--pkt and --flow are mutually exclusive"
        | None, None -> failf "one of --pkt or --flow is required")
  in
  let doc = "reconstruct a packet's or flow's provenance timeline from a trace" in
  Cmd.v (Cmd.info "explain" ~doc) Term.(ret (const run $ pkt_arg $ flow_arg $ trace_pos))

let summary_cmd =
  let run trace = wrap (fun () -> summary trace) in
  let doc = "per-kind event counts and the trace's time span" in
  Cmd.v (Cmd.info "summary" ~doc) Term.(ret (const run $ trace_pos))

let int_cmd =
  let flow_arg =
    let doc =
      "Flow $(docv) (format SRC_IP:SRC_PORT-DST_IP:DST_PORT) whose INT samples to break down \
       hop by hop; the reverse direction (the flow's ACKs) is reported separately."
    in
    Arg.(required & opt (some string) None & info [ "flow" ] ~docv:"FLOW" ~doc)
  in
  let run spec trace = wrap (fun () -> int_view trace spec) in
  let doc = "break a flow's latency down hop-by-hop from its in-band telemetry" in
  Cmd.v (Cmd.info "int" ~doc) Term.(ret (const run $ flow_arg $ trace_pos))

let why_cmd =
  let flow_arg =
    let doc =
      "Flow $(docv) (format SRC_IP:SRC_PORT-DST_IP:DST_PORT, data direction) whose stall \
       timeline to reconstruct from its 'attrib' events (runs started with --attrib)."
    in
    Arg.(required & opt (some string) None & info [ "flow" ] ~docv:"FLOW" ~doc)
  in
  let run spec trace = wrap (fun () -> why_view trace spec) in
  let doc =
    "explain why a flow was slow: its exact stall-state timeline (handshake, app/cwnd/rwnd \
     limited, RTO recovery, in flight) plus per-hop queueing attribution when INT was on"
  in
  Cmd.v (Cmd.info "why" ~doc) Term.(ret (const run $ flow_arg $ trace_pos))

let validate_cmd =
  let pcap_arg =
    let doc =
      "Capture file (pcap or pcapng) to validate.  A pcapng capture's transmit-queue \
       interfaces are also matched, frame by frame, to the trace's dequeue events."
    in
    Arg.(required & opt (some file) None & info [ "pcap" ] ~docv:"FILE" ~doc)
  in
  let trace_arg =
    let doc = "Unfiltered JSONL trace of the same run." in
    Arg.(required & opt (some file) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let report_arg =
    let doc = "Run report of the same run; enables the frame-count check and two INT checks." in
    Arg.(value & opt (some file) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let run pcap trace report = wrap (fun () -> validate ~pcap ~trace ~report) in
  let doc = "check that a capture, a trace and a report describe the same run" in
  Cmd.v
    (Cmd.info "validate" ~doc)
    Term.(ret (const run $ pcap_arg $ trace_arg $ report_arg))

let cmd =
  let doc = "query and validate AC/DC run artifacts (traces and captures)" in
  Cmd.group (Cmd.info "trace_query" ~doc)
    [ explain_cmd; summary_cmd; int_cmd; why_cmd; validate_cmd ]

let () = exit (Cmd.eval cmd)
