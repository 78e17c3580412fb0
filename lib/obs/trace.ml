module Time_ns = Eventsim.Time_ns
module Flow_key = Dcpkt.Flow_key
module Packet = Dcpkt.Packet

type drop_reason = No_route | Buffer_full | Over_threshold | Wred | No_endpoint

type impair_action =
  | Imp_lost
  | Imp_corrupted
  | Imp_duplicated of { copy : int }
  | Imp_pack_stripped
  | Imp_reordered

type event =
  | Created of { node : string; pkt : int; flow : Flow_key.t; size : int; kind : string }
  | Enqueue of { node : string; port : int; pkt : int; size : int; qbytes : int }
  | Dequeue of { node : string; port : int; pkt : int; size : int; qbytes : int }
  | Drop of { node : string; port : int; pkt : int; size : int; reason : drop_reason }
  | Ce_mark of { node : string; port : int; pkt : int; qbytes : int }
  | Impaired of { link : string; pkt : int; action : impair_action }
  | Vswitch_drop of { node : string; pkt : int; egress : bool }
  | Delivered of { node : string; pkt : int }
  | Pack_attach of { flow : Flow_key.t; pkt : int; total : int; marked : int }
  | Rwnd_rewrite of { flow : Flow_key.t; pkt : int; window : int; field : int }
  | Alpha_update of { flow : Flow_key.t; alpha : float; fraction : float }
  | Policer_drop of { flow : Flow_key.t; pkt : int; seq : int; window : int }
  | Dupack of { flow : Flow_key.t; ack : int; count : int }
  | Rto_fire of { flow : Flow_key.t; inferred : bool; count : int }
  | Int_hop of {
      flow : Flow_key.t;
      pkt : int;
      depth : int;
      hop : string;
      port : int;
      ingress : int;
      egress : int;
      qbytes : int;
      svc_bps : int;
    }
  | Int_strip of { node : string; flow : Flow_key.t; pkt : int; hops : int; exceeded : bool }
  | Attrib_transition of {
      flow : Flow_key.t;
      from_state : string;
      to_state : string;
      spent : int;
    }

type ring = {
  slots : (Time_ns.t * event) option array;
  mutable next : int;
  mutable total : int;
}

type t =
  | Null
  | Ring of ring
  | Write of { line : Buffer.t; write : string -> unit }
  | Tee of t * t
  | Filter of (Time_ns.t -> event -> bool) * t

let null = Null

let tee a b = match (a, b) with Null, t | t, Null -> t | a, b -> Tee (a, b)

let ring ?(capacity = 1024) () =
  assert (capacity > 0);
  Ring { slots = Array.make capacity None; next = 0; total = 0 }

let jsonl ~write = Write { line = Buffer.create 256; write }

let jsonl_channel oc =
  jsonl ~write:(fun line ->
      output_string oc line;
      output_char oc '\n')

let filter ~keep = function Null -> Null | t -> Filter (keep, t)

let enabled = function Null -> false | Ring _ | Write _ | Tee _ | Filter _ -> true

let reason_label = function
  | No_route -> "no_route"
  | Buffer_full -> "buffer_full"
  | Over_threshold -> "over_threshold"
  | Wred -> "wred"
  | No_endpoint -> "no_endpoint"

let reason_of_label = function
  | "no_route" -> Some No_route
  | "buffer_full" -> Some Buffer_full
  | "over_threshold" -> Some Over_threshold
  | "wred" -> Some Wred
  | "no_endpoint" -> Some No_endpoint
  | _ -> None

let action_label = function
  | Imp_lost -> "lost"
  | Imp_corrupted -> "corrupted"
  | Imp_duplicated _ -> "duplicated"
  | Imp_pack_stripped -> "pack_stripped"
  | Imp_reordered -> "reordered"

(* Inverse of the trace's "flow" field, "a:p>b:q"; also accepts the
   order-insensitive CLI spelling "a:p-b:q" used by [trace_query explain
   --flow] and [--trace-filter]. *)
let flow_of_spec spec =
  let split2 c s =
    match String.index_opt s c with
    | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> None
  in
  let endpoint s =
    match split2 ':' s with
    | Some (ip, port) -> (
      match (int_of_string_opt (String.trim ip), int_of_string_opt (String.trim port)) with
      | Some ip, Some port when ip >= 0 && port >= 0 -> Some (ip, port)
      | _ -> None)
    | None -> None
  in
  let pair sep =
    match split2 sep spec with
    | Some (a, b) -> (
      match (endpoint a, endpoint b) with
      | Some (src_ip, src_port), Some (dst_ip, dst_port) ->
        Some (Flow_key.make ~src_ip ~dst_ip ~src_port ~dst_port)
      | _ -> None)
    | None -> None
  in
  match pair '>' with
  | Some key -> Ok key
  | None -> (
    match pair '-' with
    | Some key -> Ok key
    | None ->
      Error
        (Printf.sprintf "bad flow %S (expected SRC_IP:SRC_PORT-DST_IP:DST_PORT)" spec))

(* The "ev" field of the JSON encoding; also the vocabulary of
   [kind=...] trace filters.  [event_kinds] lists every tag it returns. *)
let event_kinds =
  [ "created"; "enqueue"; "dequeue"; "drop"; "ce_mark"; "impaired"; "vswitch_drop";
    "delivered"; "pack_attach"; "rwnd_rewrite"; "alpha_update"; "policer_drop"; "dupack";
    "rto"; "int_hop"; "int_strip"; "attrib" ]

let kind_of_event = function
  | Created _ -> "created"
  | Enqueue _ -> "enqueue"
  | Dequeue _ -> "dequeue"
  | Drop _ -> "drop"
  | Ce_mark _ -> "ce_mark"
  | Impaired _ -> "impaired"
  | Vswitch_drop _ -> "vswitch_drop"
  | Delivered _ -> "delivered"
  | Pack_attach _ -> "pack_attach"
  | Rwnd_rewrite _ -> "rwnd_rewrite"
  | Alpha_update _ -> "alpha_update"
  | Policer_drop _ -> "policer_drop"
  | Dupack _ -> "dupack"
  | Rto_fire _ -> "rto"
  | Int_hop _ -> "int_hop"
  | Int_strip _ -> "int_strip"
  | Attrib_transition _ -> "attrib"

let flow_of_event = function
  | Created { flow; _ }
  | Pack_attach { flow; _ }
  | Rwnd_rewrite { flow; _ }
  | Alpha_update { flow; _ }
  | Policer_drop { flow; _ }
  | Dupack { flow; _ }
  | Rto_fire { flow; _ }
  | Int_hop { flow; _ }
  | Int_strip { flow; _ }
  | Attrib_transition { flow; _ } -> Some flow
  | Enqueue _ | Dequeue _ | Drop _ | Ce_mark _ | Impaired _ | Vswitch_drop _ | Delivered _ ->
    None

let pkt_of_event = function
  | Created { pkt; _ }
  | Enqueue { pkt; _ }
  | Dequeue { pkt; _ }
  | Drop { pkt; _ }
  | Ce_mark { pkt; _ }
  | Impaired { pkt; _ }
  | Vswitch_drop { pkt; _ }
  | Delivered { pkt; _ }
  | Pack_attach { pkt; _ }
  | Rwnd_rewrite { pkt; _ }
  | Policer_drop { pkt; _ }
  | Int_hop { pkt; _ }
  | Int_strip { pkt; _ } -> Some pkt
  | Alpha_update _ | Dupack _ | Rto_fire _ | Attrib_transition _ -> None

let pkt_kind (p : Packet.t) =
  if p.syn && p.has_ack then "syn_ack"
  else if p.syn then "syn"
  else if p.rst then "rst"
  else if p.fin then "fin"
  else if p.payload > 0 then "data"
  else if (not p.has_ack) && Packet.pack_info p <> None then "fack"
  else "ack"

let created ?kind ~node (p : Packet.t) =
  Created
    {
      node;
      pkt = p.id;
      flow = p.key;
      size = Packet.wire_size p;
      kind = (match kind with Some k -> k | None -> pkt_kind p);
    }

(* ------------------------------------------------------------------ *)
(* JSON encoding: one compact object per event, written field by field
   into the sink's line buffer.  [event_of_json] is its inverse.         *)

let int_field line key v =
  Buffer.add_string line key;
  Json.add_int line v

let string_field line key v =
  Buffer.add_string line key;
  Json.add_string line v

let bool_field line key v =
  Buffer.add_string line key;
  Buffer.add_string line (if v then "true" else "false")

let float_field line key v =
  Buffer.add_string line key;
  Json.add_float line v

(* "src_ip:src_port>dst_ip:dst_port" *)
let flow_field line (k : Flow_key.t) =
  Buffer.add_string line {|,"flow":"|};
  Json.add_int line k.src_ip;
  Buffer.add_char line ':';
  Json.add_int line k.src_port;
  Buffer.add_char line '>';
  Json.add_int line k.dst_ip;
  Buffer.add_char line ':';
  Json.add_int line k.dst_port;
  Buffer.add_char line '"'

let encode line ~now event =
  int_field line {|{"t":|} now;
  string_field line {|,"ev":|} (kind_of_event event);
  (match event with
  | Created { node; pkt; flow; size; kind } ->
    string_field line {|,"node":|} node;
    int_field line {|,"pkt":|} pkt;
    flow_field line flow;
    int_field line {|,"size":|} size;
    string_field line {|,"kind":|} kind
  | Enqueue { node; port; pkt; size; qbytes } | Dequeue { node; port; pkt; size; qbytes } ->
    string_field line {|,"node":|} node;
    int_field line {|,"port":|} port;
    int_field line {|,"pkt":|} pkt;
    int_field line {|,"size":|} size;
    int_field line {|,"qbytes":|} qbytes
  | Drop { node; port; pkt; size; reason } ->
    string_field line {|,"node":|} node;
    int_field line {|,"port":|} port;
    int_field line {|,"pkt":|} pkt;
    int_field line {|,"size":|} size;
    string_field line {|,"reason":|} (reason_label reason)
  | Ce_mark { node; port; pkt; qbytes } ->
    string_field line {|,"node":|} node;
    int_field line {|,"port":|} port;
    int_field line {|,"pkt":|} pkt;
    int_field line {|,"qbytes":|} qbytes
  | Impaired { link; pkt; action } -> (
    string_field line {|,"link":|} link;
    int_field line {|,"pkt":|} pkt;
    string_field line {|,"action":|} (action_label action);
    match action with
    | Imp_duplicated { copy } -> int_field line {|,"copy":|} copy
    | Imp_lost | Imp_corrupted | Imp_pack_stripped | Imp_reordered -> ())
  | Vswitch_drop { node; pkt; egress } ->
    string_field line {|,"node":|} node;
    int_field line {|,"pkt":|} pkt;
    string_field line {|,"dir":|} (if egress then "egress" else "ingress")
  | Delivered { node; pkt } ->
    string_field line {|,"node":|} node;
    int_field line {|,"pkt":|} pkt
  | Pack_attach { flow; pkt; total; marked } ->
    flow_field line flow;
    int_field line {|,"pkt":|} pkt;
    int_field line {|,"total":|} total;
    int_field line {|,"marked":|} marked
  | Rwnd_rewrite { flow; pkt; window; field } ->
    flow_field line flow;
    int_field line {|,"pkt":|} pkt;
    int_field line {|,"window":|} window;
    int_field line {|,"field":|} field
  | Alpha_update { flow; alpha; fraction } ->
    flow_field line flow;
    float_field line {|,"alpha":|} alpha;
    float_field line {|,"fraction":|} fraction
  | Policer_drop { flow; pkt; seq; window } ->
    flow_field line flow;
    int_field line {|,"pkt":|} pkt;
    int_field line {|,"seq":|} seq;
    int_field line {|,"window":|} window
  | Dupack { flow; ack; count } ->
    flow_field line flow;
    int_field line {|,"ack":|} ack;
    int_field line {|,"count":|} count
  | Rto_fire { flow; inferred; count } ->
    flow_field line flow;
    bool_field line {|,"inferred":|} inferred;
    int_field line {|,"count":|} count
  | Int_hop { flow; pkt; depth; hop; port; ingress; egress; qbytes; svc_bps } ->
    flow_field line flow;
    int_field line {|,"pkt":|} pkt;
    int_field line {|,"depth":|} depth;
    string_field line {|,"hop":|} hop;
    int_field line {|,"port":|} port;
    int_field line {|,"ingress":|} ingress;
    int_field line {|,"egress":|} egress;
    int_field line {|,"qbytes":|} qbytes;
    int_field line {|,"svc_bps":|} svc_bps
  | Int_strip { node; flow; pkt; hops; exceeded } ->
    string_field line {|,"node":|} node;
    flow_field line flow;
    int_field line {|,"pkt":|} pkt;
    int_field line {|,"hops":|} hops;
    bool_field line {|,"exceeded":|} exceeded
  | Attrib_transition { flow; from_state; to_state; spent } ->
    flow_field line flow;
    string_field line {|,"from":|} from_state;
    string_field line {|,"to":|} to_state;
    int_field line {|,"spent":|} spent);
  Buffer.add_char line '}'

(* ------------------------------------------------------------------ *)
(* JSON decoding (the inverse of [encode], for trace_query)            *)

let event_of_json json =
  let ( let* ) = Result.bind in
  let field name =
    match Json.member name json with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let int name =
    let* v = field name in
    match v with Json.Int i -> Ok i | _ -> Error (Printf.sprintf "field %S: not an int" name)
  in
  let str name =
    let* v = field name in
    match v with
    | Json.String s -> Ok s
    | _ -> Error (Printf.sprintf "field %S: not a string" name)
  in
  let num name =
    let* v = field name in
    match v with
    | Json.Float f -> Ok f
    | Json.Int i -> Ok (float_of_int i)
    | _ -> Error (Printf.sprintf "field %S: not a number" name)
  in
  let bool name =
    let* v = field name in
    match v with
    | Json.Bool b -> Ok b
    | _ -> Error (Printf.sprintf "field %S: not a bool" name)
  in
  let flow name =
    let* s = str name in
    flow_of_spec s
  in
  let* now = int "t" in
  let* ev = str "ev" in
  let* event =
    match ev with
    | "created" ->
      let* node = str "node" in
      let* pkt = int "pkt" in
      let* flow = flow "flow" in
      let* size = int "size" in
      let* kind = str "kind" in
      Ok (Created { node; pkt; flow; size; kind })
    | "enqueue" | "dequeue" ->
      let* node = str "node" in
      let* port = int "port" in
      let* pkt = int "pkt" in
      let* size = int "size" in
      let* qbytes = int "qbytes" in
      Ok
        (if ev = "enqueue" then Enqueue { node; port; pkt; size; qbytes }
         else Dequeue { node; port; pkt; size; qbytes })
    | "drop" ->
      let* node = str "node" in
      let* port = int "port" in
      let* pkt = int "pkt" in
      let* size = int "size" in
      let* label = str "reason" in
      let* reason =
        match reason_of_label label with
        | Some r -> Ok r
        | None -> Error (Printf.sprintf "unknown drop reason %S" label)
      in
      Ok (Drop { node; port; pkt; size; reason })
    | "ce_mark" ->
      let* node = str "node" in
      let* port = int "port" in
      let* pkt = int "pkt" in
      let* qbytes = int "qbytes" in
      Ok (Ce_mark { node; port; pkt; qbytes })
    | "impaired" ->
      let* link = str "link" in
      let* pkt = int "pkt" in
      let* label = str "action" in
      let* action =
        match label with
        | "lost" -> Ok Imp_lost
        | "corrupted" -> Ok Imp_corrupted
        | "pack_stripped" -> Ok Imp_pack_stripped
        | "reordered" -> Ok Imp_reordered
        | "duplicated" ->
          let* copy = int "copy" in
          Ok (Imp_duplicated { copy })
        | _ -> Error (Printf.sprintf "unknown impair action %S" label)
      in
      Ok (Impaired { link; pkt; action })
    | "vswitch_drop" ->
      let* node = str "node" in
      let* pkt = int "pkt" in
      let* dir = str "dir" in
      Ok (Vswitch_drop { node; pkt; egress = dir = "egress" })
    | "delivered" ->
      let* node = str "node" in
      let* pkt = int "pkt" in
      Ok (Delivered { node; pkt })
    | "pack_attach" ->
      let* flow = flow "flow" in
      let* pkt = int "pkt" in
      let* total = int "total" in
      let* marked = int "marked" in
      Ok (Pack_attach { flow; pkt; total; marked })
    | "rwnd_rewrite" ->
      let* flow = flow "flow" in
      let* pkt = int "pkt" in
      let* window = int "window" in
      let* field = int "field" in
      Ok (Rwnd_rewrite { flow; pkt; window; field })
    | "alpha_update" ->
      let* flow = flow "flow" in
      let* alpha = num "alpha" in
      let* fraction = num "fraction" in
      Ok (Alpha_update { flow; alpha; fraction })
    | "policer_drop" ->
      let* flow = flow "flow" in
      let* pkt = int "pkt" in
      let* seq = int "seq" in
      let* window = int "window" in
      Ok (Policer_drop { flow; pkt; seq; window })
    | "dupack" ->
      let* flow = flow "flow" in
      let* ack = int "ack" in
      let* count = int "count" in
      Ok (Dupack { flow; ack; count })
    | "rto" ->
      let* flow = flow "flow" in
      let* inferred = bool "inferred" in
      let* count = int "count" in
      Ok (Rto_fire { flow; inferred; count })
    | "int_hop" ->
      let* flow = flow "flow" in
      let* pkt = int "pkt" in
      let* depth = int "depth" in
      let* hop = str "hop" in
      let* port = int "port" in
      let* ingress = int "ingress" in
      let* egress = int "egress" in
      let* qbytes = int "qbytes" in
      let* svc_bps = int "svc_bps" in
      Ok (Int_hop { flow; pkt; depth; hop; port; ingress; egress; qbytes; svc_bps })
    | "int_strip" ->
      let* node = str "node" in
      let* flow = flow "flow" in
      let* pkt = int "pkt" in
      let* hops = int "hops" in
      let* exceeded = bool "exceeded" in
      Ok (Int_strip { node; flow; pkt; hops; exceeded })
    | "attrib" ->
      let* flow = flow "flow" in
      let* from_state = str "from" in
      let* to_state = str "to" in
      let* spent = int "spent" in
      Ok (Attrib_transition { flow; from_state; to_state; spent })
    | _ -> Error (Printf.sprintf "unknown event kind %S" ev)
  in
  Ok (now, event)

let rec emit t ~now event =
  match t with
  | Null -> ()
  | Ring r ->
    r.slots.(r.next) <- Some (now, event);
    r.next <- (r.next + 1) mod Array.length r.slots;
    r.total <- r.total + 1
  | Write { line; write } ->
    Buffer.clear line;
    encode line ~now event;
    write (Buffer.contents line)
  | Tee (a, b) ->
    emit a ~now event;
    emit b ~now event
  | Filter (keep, inner) -> if keep now event then emit inner ~now event

let rec events = function
  | Null | Write _ -> []
  | Ring r ->
    let capacity = Array.length r.slots in
    let oldest = if r.total <= capacity then 0 else r.next in
    List.filter_map
      (fun i -> r.slots.((oldest + i) mod capacity))
      (List.init (Stdlib.min r.total capacity) Fun.id)
  | Tee (a, b) -> events a @ events b
  | Filter (_, inner) -> events inner

let rec recorded = function
  | Null | Write _ -> 0
  | Ring r -> r.total
  | Tee (a, b) -> recorded a + recorded b
  | Filter (_, inner) -> recorded inner

(* ------------------------------------------------------------------ *)
(* Pre-sink filters (--trace-filter)                                   *)

let kind_filter ~kinds inner =
  filter inner ~keep:(fun _ event -> List.mem (kind_of_event event) kinds)

let flow_selector ~flows =
  let matches key =
    List.exists (fun f -> Flow_key.equal f key || Flow_key.equal (Flow_key.reverse f) key) flows
  in
  (* Packet-scoped events (enqueue, drop, ...) carry no 4-tuple; the
     Created event does, so membership learned there follows the packet id
     through the rest of its lifecycle — and through impairment-made
     duplicates.  The table only ever grows; packet ids are unique per
     run, so there is nothing to evict. *)
  let tracked = Hashtbl.create 256 in
  fun _ event ->
    match event with
    | Created { pkt; flow; _ } ->
      let hit = matches flow in
      if hit then Hashtbl.replace tracked pkt ();
      hit
    | Impaired { pkt; action = Imp_duplicated { copy }; _ } ->
      let hit = Hashtbl.mem tracked pkt in
      if hit then Hashtbl.replace tracked copy ();
      hit
    | _ -> (
      match flow_of_event event with
      | Some flow -> matches flow
      | None -> (
        match pkt_of_event event with Some pkt -> Hashtbl.mem tracked pkt | None -> false))

let flow_filter ~flows inner = filter inner ~keep:(flow_selector ~flows)

let filter_of_spec spec =
  let ( let* ) = Result.bind in
  let* flows, kinds =
    List.fold_left
      (fun acc part ->
        let* flows, kinds = acc in
        let part = String.trim part in
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" part)
        | Some i -> (
          let key = String.sub part 0 i in
          let v = String.sub part (i + 1) (String.length part - i - 1) in
          match key with
          | "flow" ->
            let* flow = flow_of_spec v in
            Ok (flow :: flows, kinds)
          | "kind" -> (
            let parts =
              String.split_on_char '|' v |> List.map String.trim
              |> List.filter (fun s -> s <> "")
            in
            if parts = [] then Error "kind= needs at least one event kind"
            else
              match List.find_opt (fun k -> not (List.mem k event_kinds)) parts with
              | Some k ->
                Error
                  (Printf.sprintf "unknown event kind %S (known: %s)" k
                     (String.concat "|" event_kinds))
              | None -> Ok (flows, parts @ kinds))
          | _ -> Error (Printf.sprintf "unknown trace-filter key %S" key)))
      (Ok ([], []))
      (String.split_on_char ',' spec |> List.filter (fun s -> String.trim s <> ""))
  in
  if flows = [] && kinds = [] then Error "empty trace-filter spec"
  else
    (* The flow filter must sit outermost: it learns packet-id membership
       from Created events, which an inner kind filter may discard from
       the sink but must not hide from the tracker. *)
    Ok
      (fun sink ->
        let sink = if kinds = [] then sink else kind_filter ~kinds sink in
        if flows = [] then sink else flow_filter ~flows sink)

let pp_event fmt event =
  let flow = Flow_key.pp in
  match event with
  | Created { node; pkt; flow = f; size; kind } ->
    Format.fprintf fmt "created %s pkt=%d %a %s size=%d" node pkt flow f kind size
  | Enqueue { node; port; pkt; size; qbytes } ->
    Format.fprintf fmt "enqueue %s:%d pkt=%d size=%d q=%d" node port pkt size qbytes
  | Dequeue { node; port; pkt; size; qbytes } ->
    Format.fprintf fmt "dequeue %s:%d pkt=%d size=%d q=%d" node port pkt size qbytes
  | Drop { node; port; pkt; size; reason } ->
    Format.fprintf fmt "drop    %s:%d pkt=%d size=%d (%s)" node port pkt size
      (reason_label reason)
  | Ce_mark { node; port; pkt; qbytes } ->
    Format.fprintf fmt "ce-mark %s:%d pkt=%d q=%d" node port pkt qbytes
  | Impaired { link; pkt; action } ->
    Format.fprintf fmt "impair  %s pkt=%d %s%s" link pkt (action_label action)
      (match action with
      | Imp_duplicated { copy } -> Printf.sprintf " copy=%d" copy
      | Imp_lost | Imp_corrupted | Imp_pack_stripped | Imp_reordered -> "")
  | Vswitch_drop { node; pkt; egress } ->
    Format.fprintf fmt "vs-drop %s pkt=%d (%s)" node pkt (if egress then "egress" else "ingress")
  | Delivered { node; pkt } -> Format.fprintf fmt "deliver %s pkt=%d" node pkt
  | Pack_attach { flow = f; pkt; total; marked } ->
    Format.fprintf fmt "pack    %a pkt=%d total=%d marked=%d" flow f pkt total marked
  | Rwnd_rewrite { flow = f; pkt; window; field } ->
    Format.fprintf fmt "rwnd    %a pkt=%d -> %d bytes (field %d)" flow f pkt window field
  | Alpha_update { flow = f; alpha; fraction } ->
    Format.fprintf fmt "alpha   %a = %.3f (frac %.3f)" flow f alpha fraction
  | Policer_drop { flow = f; pkt; seq; window } ->
    Format.fprintf fmt "police  %a pkt=%d seq=%d beyond window %d" flow f pkt seq window
  | Dupack { flow = f; ack; count } ->
    Format.fprintf fmt "dupack  %a ack=%d #%d" flow f ack count
  | Rto_fire { flow = f; inferred; count } ->
    Format.fprintf fmt "rto     %a %s#%d" flow f (if inferred then "(inferred) " else "") count
  | Int_hop { flow = f; pkt; depth; hop; port; ingress; egress; qbytes; svc_bps } ->
    Format.fprintf fmt "int-hop %a pkt=%d [%d] %s:%d sojourn=%dns q=%d svc=%.1fG" flow f pkt
      depth hop port (egress - ingress) qbytes
      (float_of_int svc_bps /. 1e9)
  | Int_strip { node; flow = f; pkt; hops; exceeded } ->
    Format.fprintf fmt "int     %s %a pkt=%d hops=%d%s" node flow f pkt hops
      (if exceeded then " (exceeded)" else "")
  | Attrib_transition { flow = f; from_state; to_state; spent } ->
    Format.fprintf fmt "attrib  %a %s -> %s (spent %dns)" flow f from_state to_state spent
