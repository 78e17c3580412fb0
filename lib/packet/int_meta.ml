type hop = {
  hop_id : int;
  port : int;
  ingress_ns : int;
  egress_ns : int;
  qbytes : int;
  svc_bps : int;
}

let sojourn_ns h = h.egress_ns - h.ingress_ns

let the_enabled = ref false

let enabled () = !the_enabled

let set_enabled v = the_enabled := v

(* Name-keyed so re-building the same topology (every seeded run, every
   scheme in a figure) reuses ids instead of burning through the 8-bit
   space, keeping runs deterministic and captures comparable. *)
let ids : (string, int) Hashtbl.t = Hashtbl.create 16

let names : (int, string) Hashtbl.t = Hashtbl.create 16

let next_id = ref 0

let register ~name =
  match Hashtbl.find_opt ids name with
  | Some id -> id
  | None ->
    let id = !next_id land 0xFF in
    incr next_id;
    Hashtbl.replace ids name id;
    if not (Hashtbl.mem names id) then Hashtbl.replace names id name;
    id

let name id =
  match Hashtbl.find_opt names id with Some n -> n | None -> Printf.sprintf "hop%d" id

let hop_label h = Printf.sprintf "%s:%d" (name h.hop_id) h.port

let reset () =
  Hashtbl.reset ids;
  Hashtbl.reset names;
  next_id := 0;
  the_enabled := false

let option_kind = 254

let hop_wire_bytes = 10

let shim_wire_bytes ~hops = 3 + (hop_wire_bytes * hops)

let qbytes_unit = 256

let svc_unit = 10_000_000

let wire_sojourn_ns h =
  let s = sojourn_ns h in
  if s < 0 then 0 else if s > 0xFFFF_FFFF then 0xFFFF_FFFF else s

let wire_qbytes h =
  let units = h.qbytes / qbytes_unit in
  if units > 0xFFFF then 0xFFFF else units

let wire_svc h =
  let units = h.svc_bps / svc_unit in
  if units > 0xFFFF then 0xFFFF else units
