module Time_ns = Eventsim.Time_ns
module Packet = Dcpkt.Packet

type format = Pcap | Pcapng

let ns_magic = 0xA1B23C4D
let us_magic = 0xA1B2C3D4
let snaplen = 0x40000
let linktype_ethernet = 1

type writer = {
  format : format;
  write : string -> unit;
  (* pcapng interface ids, in order of first capture; classic pcap has a
     single implicit interface and ignores the table. *)
  ifaces : (string, int) Hashtbl.t;
  mutable next_iface : int;
  mutable frames : int;
  (* Where each record is built before its one [write]. *)
  scratch : Bytes.t;
}

type t = Null | Writer of writer

let null = Null
let enabled = function Null -> false | Writer _ -> true
let frames = function Null -> 0 | Writer w -> w.frames

let add16 b v = Buffer.add_uint16_le b (v land 0xFFFF)

let add32 b v =
  add16 b (v land 0xFFFF);
  add16 b ((v lsr 16) land 0xFFFF)

let set32 b off v =
  Bytes.set_uint16_le b off (v land 0xFFFF);
  Bytes.set_uint16_le b (off + 2) ((v lsr 16) land 0xFFFF)

(* ------------------------------------------------------------------ *)
(* Classic pcap                                                        *)

let classic_header () =
  let b = Buffer.create 24 in
  add32 b ns_magic;
  add16 b 2;
  (* major *)
  add16 b 4;
  (* minor *)
  add32 b 0;
  (* thiszone *)
  add32 b 0;
  (* sigfigs *)
  add32 b snaplen;
  add32 b linktype_ethernet;
  Buffer.contents b

(* A record is  ts_sec | ts_nsec | incl_len | orig_len | frame. *)
let classic_record_header = 16

(* ------------------------------------------------------------------ *)
(* pcapng                                                              *)

(* Every pcapng block is  type | total_len | body… | total_len  with the
   body padded to a 32-bit boundary. *)
let block btype body =
  let body_len = String.length body in
  let pad = (4 - (body_len mod 4)) mod 4 in
  let total = 12 + body_len + pad in
  let b = Buffer.create total in
  add32 b btype;
  add32 b total;
  Buffer.add_string b body;
  for _ = 1 to pad do
    Buffer.add_char b '\000'
  done;
  add32 b total;
  Buffer.contents b

(* An option is  code | value_len | value (padded to 32 bits). *)
let ng_option b code value =
  add16 b code;
  add16 b (String.length value);
  Buffer.add_string b value;
  let pad = (4 - (String.length value mod 4)) mod 4 in
  for _ = 1 to pad do
    Buffer.add_char b '\000'
  done

let section_header () =
  let b = Buffer.create 28 in
  add32 b 0x1A2B3C4D;
  (* byte-order magic *)
  add16 b 1;
  (* major *)
  add16 b 0;
  (* minor *)
  add32 b 0xFFFFFFFF;
  (* section length: unspecified *)
  add32 b 0xFFFFFFFF;
  block 0x0A0D0D0A (Buffer.contents b)

let interface_block ~name =
  let b = Buffer.create 32 in
  add16 b linktype_ethernet;
  add16 b 0;
  (* reserved *)
  add32 b snaplen;
  ng_option b 2 name;
  (* if_name *)
  ng_option b 9 "\009";
  (* if_tsresol: 10^-9 — timestamps are raw nanoseconds *)
  ng_option b 0 "";
  (* opt_endofopt *)
  block 0x00000001 (Buffer.contents b)

(* An enhanced packet block is  type | total_len | iface | ts_high |
   ts_low | incl_len | orig_len | frame, padded | total_len. *)
let epb_header = 28

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

(* Room for the longer record: an EPB around the longest frame. *)
let scratch_bytes = epb_header + Packet.max_wire_bytes + 3 + 4

let create ~format ~write =
  write (match format with Pcap -> classic_header () | Pcapng -> section_header ());
  Writer
    {
      format;
      write;
      ifaces = Hashtbl.create 16;
      next_iface = 0;
      frames = 0;
      scratch = Bytes.create scratch_bytes;
    }

let iface_id w name =
  match Hashtbl.find w.ifaces name with
  | id -> id
  | exception Not_found ->
    let id = w.next_iface in
    w.next_iface <- id + 1;
    Hashtbl.replace w.ifaces name id;
    w.write (interface_block ~name);
    id

let capture t ~iface ~now (pkt : Packet.t) =
  match t with
  | Null -> ()
  | Writer w -> (
    let b = w.scratch in
    let header = match w.format with Pcap -> classic_record_header | Pcapng -> epb_header in
    (* Encoding first: a frame [Packet.to_wire] rejects raises here, before
       anything is counted or written. *)
    let len = Packet.write_wire pkt b ~off:header in
    (* Header-snapped capture: the payload is never materialized, so the
       frame is truncated at the headers and [orig_len] records the full
       on-wire size. *)
    let orig_len = len + pkt.Packet.payload in
    w.frames <- w.frames + 1;
    match w.format with
    | Pcap ->
      set32 b 0 (now / 1_000_000_000);
      set32 b 4 (now mod 1_000_000_000);
      set32 b 8 len;
      set32 b 12 orig_len;
      w.write (Bytes.sub_string b 0 (header + len))
    | Pcapng ->
      let id = iface_id w iface in
      let pad = (4 - (len mod 4)) mod 4 in
      let total = header + len + pad + 4 in
      set32 b 0 0x00000006;
      set32 b 4 total;
      set32 b 8 id;
      set32 b 12 (now lsr 32);
      set32 b 16 (now land 0xFFFFFFFF);
      set32 b 20 len;
      set32 b 24 orig_len;
      Bytes.fill b (header + len) pad '\000';
      set32 b (total - 4) total;
      w.write (Bytes.sub_string b 0 total))

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

type frame = { iface : string option; ts : Time_ns.t; orig_len : int; data : string }

let get16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)
let get32 s off = get16 s off lor (get16 s (off + 2) lsl 16)

let read_classic s =
  if String.length s < 24 then Error "pcap: truncated file header"
  else begin
    let magic = get32 s 0 in
    let ts_scale = if magic = ns_magic then 1 else 1000 in
    if get32 s 20 <> linktype_ethernet then Error "pcap: not an Ethernet capture"
    else begin
      let frames = ref [] in
      let off = ref 24 in
      let err = ref None in
      let len = String.length s in
      while !err = None && !off < len do
        if !off + 16 > len then err := Some "pcap: truncated record header"
        else begin
          let sec = get32 s !off in
          let frac = get32 s (!off + 4) in
          let incl = get32 s (!off + 8) in
          let orig = get32 s (!off + 12) in
          if !off + 16 + incl > len then err := Some "pcap: truncated record"
          else begin
            frames :=
              {
                iface = None;
                ts = ((sec * 1_000_000_000) + (frac * ts_scale) : Time_ns.t);
                orig_len = orig;
                data = String.sub s (!off + 16) incl;
              }
              :: !frames;
            off := !off + 16 + incl
          end
        end
      done;
      match !err with Some e -> Error e | None -> Ok (List.rev !frames)
    end
  end

let read_ng s =
  let len = String.length s in
  let frames = ref [] in
  let ifaces = ref [] (* reversed: id = position from the end *) in
  let tsresol = Hashtbl.create 4 in
  let err = ref None in
  let off = ref 0 in
  let fail e = err := Some e in
  let parse_idb body =
    (* linktype(2) reserved(2) snaplen(4) options… *)
    let name = ref None in
    let resol = ref 6 (* pcapng default: microseconds *) in
    let blen = String.length body in
    if blen < 8 then fail "pcapng: short IDB"
    else begin
      let o = ref 8 in
      let stop = ref false in
      while (not !stop) && !err = None && !o + 4 <= blen do
        let code = get16 body !o in
        let vlen = get16 body (!o + 2) in
        let vpad = (4 - (vlen mod 4)) mod 4 in
        if !o + 4 + vlen > blen then fail "pcapng: truncated IDB option"
        else begin
          let value = String.sub body (!o + 4) vlen in
          (match code with
          | 0 -> stop := true
          | 2 -> name := Some value
          | 9 -> if vlen = 1 then resol := Char.code value.[0]
          | _ -> ());
          o := !o + 4 + vlen + vpad
        end
      done;
      if !err = None then begin
        let id = List.length !ifaces in
        ifaces := (match !name with Some n -> n | None -> Printf.sprintf "if%d" id) :: !ifaces;
        if !resol land 0x80 <> 0 then fail "pcapng: power-of-2 tsresol unsupported"
        else Hashtbl.replace tsresol id !resol
      end
    end
  in
  let parse_epb body =
    let blen = String.length body in
    if blen < 20 then fail "pcapng: short EPB"
    else begin
      let id = get32 body 0 in
      let ts = (get32 body 4 lsl 32) lor get32 body 8 in
      let incl = get32 body 12 in
      let orig = get32 body 16 in
      if 20 + incl > blen then fail "pcapng: truncated EPB data"
      else
        match List.nth_opt (List.rev !ifaces) id with
        | None -> fail (Printf.sprintf "pcapng: EPB references unknown interface %d" id)
        | Some name ->
          let resol = try Hashtbl.find tsresol id with Not_found -> 6 in
          let ns =
            (* scale 10^-resol ticks to nanoseconds *)
            let rec pow10 n = if n <= 0 then 1 else 10 * pow10 (n - 1) in
            if resol >= 9 then ts / pow10 (resol - 9) else ts * pow10 (9 - resol)
          in
          frames :=
            {
              iface = Some name;
              ts = (ns : Time_ns.t);
              orig_len = orig;
              data = String.sub body 20 incl;
            }
            :: !frames
    end
  in
  while !err = None && !off < len do
    if !off + 12 > len then fail "pcapng: truncated block header"
    else begin
      let btype = get32 s !off in
      let total = get32 s (!off + 4) in
      if total < 12 || total mod 4 <> 0 || !off + total > len then
        fail "pcapng: bad block length"
      else if get32 s (!off + total - 4) <> total then
        fail "pcapng: trailing block length mismatch"
      else begin
        let body = String.sub s (!off + 8) (total - 12) in
        (match btype with
        | 0x0A0D0D0A ->
          if String.length body < 4 || get32 body 0 <> 0x1A2B3C4D then
            fail "pcapng: big-endian or corrupt section header"
        | 0x00000001 -> parse_idb body
        | 0x00000006 -> parse_epb body
        | _ -> () (* skip unknown block types, per spec *));
        off := !off + total
      end
    end
  done;
  match !err with Some e -> Error e | None -> Ok (List.rev !frames)

let read s =
  if String.length s < 4 then Error "capture file too short"
  else
    match get32 s 0 with
    | m when m = ns_magic || m = us_magic -> read_classic s
    | 0x0A0D0D0A -> read_ng s
    | m -> Error (Printf.sprintf "unrecognized capture magic 0x%08X" m)

let format_of_path path =
  if Filename.check_suffix path ".pcapng" then Pcapng else Pcap
