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

exception Bad of string

let bad fmt = Printf.ksprintf (fun e -> raise (Bad e)) fmt

(* A pcapng interface's timestamp ticks are 10^-resol s. *)
let ns_of_ticks ~resol ticks =
  let rec pow10 n = if n <= 0 then 1 else 10 * pow10 (n - 1) in
  if resol >= 9 then ticks / pow10 (resol - 9) else ticks * pow10 (9 - resol)

(* An interface description block body: linktype(2) reserved(2)
   snaplen(4) options...; its name and timestamp resolution. *)
let parse_idb b ~len ~id =
  if len < 8 then bad "pcapng: short IDB";
  let rec options o name resol =
    if o + 4 > len then (name, resol)
    else
      let code = get16 b o and vlen = get16 b (o + 2) in
      if o + 4 + vlen > len then bad "pcapng: truncated IDB option";
      let next = o + 4 + vlen + ((4 - (vlen mod 4)) mod 4) in
      match code with
      | 0 -> (name, resol)
      | 2 -> options next (String.sub b (o + 4) vlen) resol
      | 9 when vlen = 1 -> options next name (Char.code b.[o + 4])
      | _ -> options next name resol
  in
  (* pcapng's default resolution is microseconds *)
  let name, resol = options 8 (Printf.sprintf "if%d" id) 6 in
  if resol land 0x80 <> 0 then bad "pcapng: power-of-2 tsresol unsupported";
  (name, resol)

(* Both formats are a sequence of records, each a fixed-size header that
   gives the length of the rest; classic pcap puts a 24-byte file header
   in front.  The file's size bounds every read, so a cut or a corrupt
   length is an error before anything is allocated. *)
let fold_file path ~init f =
  let read ic =
    let size = Int64.to_int (In_channel.length ic) in
    let at_end () = Int64.to_int (In_channel.pos ic) >= size in
    let take n what =
      if Int64.to_int (In_channel.pos ic) + n > size then bad "%s" what
      else really_input_string ic n
    in
    (* Fold [record] over the records from here to the end of the file. *)
    let records ~name ~header ~rest ~record =
      let rec loop acc =
        if at_end () then acc
        else
          let h = take header (name ^ ": truncated record header") in
          let body = take (rest h) (name ^ ": truncated record") in
          loop (record acc h body)
      in
      loop
    in
    if size < 4 then bad "capture file too short";
    let magic = get32 (really_input_string ic 4) 0 in
    In_channel.seek ic 0L;
    if magic = ns_magic || magic = us_magic then begin
      let fh = take 24 "pcap: truncated file header" in
      if get32 fh 20 <> linktype_ethernet then bad "pcap: not an Ethernet capture";
      let ts_scale = if magic = ns_magic then 1 else 1000 in
      records ~name:"pcap" ~header:classic_record_header
        ~rest:(fun h -> get32 h 8)
        ~record:(fun acc h data ->
          f acc
            {
              iface = None;
              ts = (get32 h 0 * 1_000_000_000) + (get32 h 4 * ts_scale);
              orig_len = get32 h 12;
              data;
            })
        init
    end
    else if magic = 0x0A0D0D0A then begin
      let ifaces = Hashtbl.create 16 (* id -> name, tsresol *) in
      (* A block is  type | total_len | body | total_len. *)
      let rest h =
        let total = get32 h 4 in
        if total < 12 || total mod 4 <> 0 then bad "pcapng: bad block length";
        total - 8
      in
      let record acc h b =
        let len = String.length b - 4 in
        if get32 b len <> get32 h 4 then bad "pcapng: trailing block length mismatch";
        match get32 h 0 with
        | 0x0A0D0D0A ->
          if len < 4 || get32 b 0 <> 0x1A2B3C4D then
            bad "pcapng: big-endian or corrupt section header";
          acc
        | 0x00000001 ->
          let id = Hashtbl.length ifaces in
          Hashtbl.replace ifaces id (parse_idb b ~len ~id);
          acc
        | 0x00000006 ->
          (* iface(4) ts_high(4) ts_low(4) incl_len(4) orig_len(4) frame *)
          if len < 20 then bad "pcapng: short EPB";
          let id = get32 b 0 and incl = get32 b 12 in
          if 20 + incl > len then bad "pcapng: truncated EPB data";
          let name, resol =
            match Hashtbl.find_opt ifaces id with
            | Some iface -> iface
            | None -> bad "pcapng: EPB references unknown interface %d" id
          in
          f acc
            {
              iface = Some name;
              ts = ns_of_ticks ~resol ((get32 b 4 lsl 32) lor get32 b 8);
              orig_len = get32 b 16;
              data = String.sub b 20 incl;
            }
        | _ -> acc (* skip unknown block types, per spec *)
      in
      records ~name:"pcapng" ~header:8 ~rest ~record init
    end
    else bad "unrecognized capture magic 0x%08X" magic
  in
  match In_channel.with_open_bin path read with
  | acc -> Ok acc
  | exception Sys_error e -> Error e
  | exception Bad e -> Error (Printf.sprintf "%s: %s" path e)

let format_of_path path =
  if Filename.check_suffix path ".pcapng" then Pcapng else Pcap
