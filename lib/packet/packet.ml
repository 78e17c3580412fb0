type ecn = Not_ect | Ect0 | Ect1 | Ce

type tcp_option =
  | Mss of int
  | Window_scale of int
  | Pack of { total_bytes : int; marked_bytes : int }
  | Sack of (int * int) list

type t = {
  id : int;
  key : Flow_key.t;
  mutable seq : int;
  mutable ack : int;
  mutable syn : bool;
  mutable fin : bool;
  mutable rst : bool;
  mutable has_ack : bool;
  mutable ece : bool;
  mutable cwr : bool;
  mutable ecn : ecn;
  mutable vm_ect : bool;
  mutable rwnd_field : int;
  mutable options : tcp_option list;
  mutable int_stack : Int_meta.hop list;
  mutable int_exceeded : bool;
  payload : int;
  mutable sent_at : Eventsim.Time_ns.t;
}

let next_id = ref 0

let reset_ids () = next_id := 0

(* Placeholder for pooled-ring slots (txq waiting/delivery rings).  Built
   directly — not via [make] — so initializing a pool does not bump
   [next_id] and perturb seeded packet-id sequences.  Never put on a
   wire. *)
let dummy =
  {
    id = 0;
    key = Flow_key.make ~src_ip:0 ~dst_ip:0 ~src_port:0 ~dst_port:0;
    seq = 0;
    ack = 0;
    syn = false;
    fin = false;
    rst = false;
    has_ack = false;
    ece = false;
    cwr = false;
    ecn = Not_ect;
    vm_ect = false;
    rwnd_field = 0;
    options = [];
    int_stack = [];
    int_exceeded = false;
    payload = 0;
    sent_at = Eventsim.Time_ns.zero;
  }

let make ~key ?(seq = 0) ?(ack = 0) ?(syn = false) ?(fin = false) ?(rst = false)
    ?(has_ack = false) ?(ecn = Not_ect) ?(rwnd_field = 0xFFFF) ?(options = []) ~payload () =
  incr next_id;
  {
    id = !next_id;
    key;
    seq;
    ack;
    syn;
    fin;
    rst;
    has_ack;
    ece = false;
    cwr = false;
    ecn;
    vm_ect = false;
    rwnd_field;
    options;
    int_stack = [];
    int_exceeded = false;
    payload;
    sent_at = Eventsim.Time_ns.zero;
  }

(* A wire duplicate is a distinct frame: it gets its own id (for tracing)
   and its own mutable fields, so a vSwitch rewriting one copy cannot
   corrupt the other. *)
let copy t =
  incr next_id;
  { t with id = !next_id }

let option_bytes = function
  | Mss _ -> 4
  | Window_scale _ -> 3
  | Pack _ -> 8 (* the paper's PACK option adds 8 bytes to the ACK *)
  | Sack blocks -> 2 + (8 * List.length blocks)

(* 14 Ethernet + 20 IP + 20 TCP. *)
let base_header = 54

let plain_option_bytes t = List.fold_left (fun acc o -> acc + option_bytes o) 0 t.options

let int_shim_bytes t =
  if t.int_stack == [] && not t.int_exceeded then 0
  else Int_meta.shim_wire_bytes ~hops:(List.length t.int_stack)

let header_bytes t = base_header + plain_option_bytes t + int_shim_bytes t

let wire_size t = header_bytes t + t.payload

let seq_end t =
  let ctrl = (if t.syn then 1 else 0) + if t.fin then 1 else 0 in
  t.seq + t.payload + ctrl

let is_ect t = match t.ecn with Not_ect -> false | Ect0 | Ect1 | Ce -> true

(* The option-list walks below are top-level recursions rather than local
   closures or [List.filter]: they run on every ACK, and a closure
   capturing its argument is a heap block per call without flambda.  The
   filters return the list itself when nothing is removed. *)
let rec find_in f = function
  | [] -> None
  | o :: rest -> ( match f o with Some _ as r -> r | None -> find_in f rest)

let find_option t ~f = find_in f t.options

let same_constructor a b =
  match (a, b) with
  | Mss _, Mss _ | Window_scale _, Window_scale _ | Pack _, Pack _ | Sack _, Sack _ -> true
  | (Mss _ | Window_scale _ | Pack _ | Sack _), _ -> false

let rec without_kind o l =
  match l with
  | [] -> l
  | x :: rest ->
    let kept = without_kind o rest in
    if same_constructor x o then kept else if kept == rest then l else x :: kept

let set_option t o = t.options <- o :: without_kind o t.options

(* [without_kind] compares constructors only, so any PACK names the kind. *)
let pack_kind = Pack { total_bytes = 0; marked_bytes = 0 }

let remove_pack t = t.options <- without_kind pack_kind t.options

let wscale t =
  find_option t ~f:(function Window_scale s -> Some s | Mss _ | Pack _ | Sack _ -> None)

let pack_info t =
  find_option t ~f:(function
    | Pack { total_bytes; marked_bytes } -> Some (total_bytes, marked_bytes)
    | Mss _ | Window_scale _ | Sack _ -> None)

let rec sack_in = function
  | [] -> []
  | Sack blocks :: _ -> blocks
  | (Mss _ | Window_scale _ | Pack _) :: rest -> sack_in rest

let sack_blocks t = sack_in t.options

(* ------------------------------------------------------------------ *)
(* INT hop stack                                                       *)

(* TCP's 4-bit data offset caps options at 40 wire bytes (padding
   included), so the stack depth a packet can carry depends on what else
   it already holds — a PACK-bearing ACK fits one hop fewer than a data
   segment.  When the next hop would not fit, the switch sets the
   exceeded flag instead of stamping, the INT convention for running out
   of metadata space. *)
let max_tcp_option_bytes = 40

let pad4 n = (n + 3) land lnot 3

let can_add_int_hop t =
  pad4
    (plain_option_bytes t + Int_meta.shim_wire_bytes ~hops:(List.length t.int_stack + 1))
  <= max_tcp_option_bytes

let add_int_hop t hop =
  if can_add_int_hop t then t.int_stack <- hop :: t.int_stack else t.int_exceeded <- true

let complete_int_hop t ~egress_ns =
  match t.int_stack with
  | h :: tl when h.Int_meta.egress_ns = 0 ->
    t.int_stack <- { h with Int_meta.egress_ns } :: tl
  | _ -> ()

let int_hops t = Array.of_list (List.rev t.int_stack)

let clear_int t =
  t.int_stack <- [];
  t.int_exceeded <- false

(* ------------------------------------------------------------------ *)
(* Wire serialization: Ethernet / IPv4 / TCP                           *)

(* RFC 4727 experimental TCP option kind carrying the PACK counters.
   The paper budgets 8 bytes for the option (see [option_bytes]), which
   after kind and length leaves 6: two 24-bit cumulative byte counters,
   encoded modulo 2^24.  The AC/DC modules only ever consume counter
   *deltas* per RTT (far below 16 MB), so the wrap is harmless, and a
   wrapped value round-trips byte-identically through [of_wire]. *)
let pack_option_kind = 253

let ecn_bits = function Not_ect -> 0 | Ect1 -> 1 | Ect0 -> 2 | Ce -> 3

let ecn_of_bits = function 0 -> Not_ect | 1 -> Ect1 | 2 -> Ect0 | _ -> Ce

(* Simulator host ids are small integers; on the wire they become
   10.x.y.z addresses (low 24 bits) and locally-administered MACs, so a
   capture opens in Wireshark with sensible-looking endpoints. *)
let ip_addr i = 0x0A000000 lor (i land 0xFFFFFF)

let set_mac b off i =
  Bytes.set_uint8 b off 0x02;
  Bytes.set_uint8 b (off + 1) 0x00;
  Bytes.set_uint8 b (off + 2) 0x00;
  Bytes.set_uint8 b (off + 3) ((i lsr 16) land 0xFF);
  Bytes.set_uint8 b (off + 4) ((i lsr 8) land 0xFF);
  Bytes.set_uint8 b (off + 5) (i land 0xFF)

let set16 b off v = Bytes.set_uint16_be b off (v land 0xFFFF)

(* Two 16-bit stores: [Bytes.set_int32_be] takes a boxed [int32]. *)
let set32 b off v =
  set16 b off (v lsr 16);
  set16 b (off + 2) v

let set24 b off v =
  Bytes.set_uint8 b off ((v lsr 16) land 0xFF);
  set16 b (off + 1) v

let get32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

(* One's-complement 16-bit sum over [len] bytes ([len] even here: IP and
   TCP headers are 4-byte multiples). *)
let ones_sum init b ~off ~len =
  let sum = ref init in
  let i = ref 0 in
  while !i < len do
    sum := !sum + Bytes.get_uint16_be b (off + !i);
    i := !i + 2
  done;
  !sum

let fold_checksum sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot !s land 0xFFFF

(* TCP checksum as if the [payload] bytes were all zero: the capture
   layer never materializes payload (frames are snapped at the header),
   so zero-fill is the only deterministic choice, and [of_wire] verifies
   against the same convention.  The payload still contributes through
   the pseudo-header length.  The pseudo-header's addresses are read from
   the IPv4 header just before the segment; its zero byte and protocol
   sum to 6.  [tcp_sum] is the unfolded sum, checksum field included. *)
let tcp_sum b ~tcp_off ~tcp_len ~payload =
  let pseudo =
    Bytes.get_uint16_be b (tcp_off - 8)
    + Bytes.get_uint16_be b (tcp_off - 6)
    + Bytes.get_uint16_be b (tcp_off - 4)
    + Bytes.get_uint16_be b (tcp_off - 2)
    + 6
    + ((tcp_len + payload) land 0xFFFF)
  in
  ones_sum pseudo b ~off:tcp_off ~len:tcp_len

let max_wire_bytes = base_header + max_tcp_option_bytes

(* The frame's length: headers plus the options padded to a 32-bit
   boundary, so the data offset is expressible (the model's
   [option_bytes] accounting stays unpadded, exactly like an skb's
   truesize vs. wire bytes). *)
let wire_length t =
  let opts = pad4 (plain_option_bytes t + int_shim_bytes t) in
  if opts > max_tcp_option_bytes then
    invalid_arg "Packet.to_wire: options exceed the 40-byte TCP option space";
  if 40 + opts + t.payload > 0xFFFF then
    invalid_arg "Packet.to_wire: frame exceeds the 65535-byte IPv4 total length";
  base_header + opts

let rec write_sack b pos = function
  | [] -> pos
  | (s, e) :: rest ->
    set32 b pos s;
    set32 b (pos + 4) e;
    write_sack b (pos + 8) rest

(* Returns the position after the last option written. *)
let rec write_options b pos = function
  | [] -> pos
  | o :: rest ->
    let pos =
      match o with
      | Mss v ->
        Bytes.set_uint8 b pos 2;
        Bytes.set_uint8 b (pos + 1) 4;
        set16 b (pos + 2) v;
        pos + 4
      | Window_scale s ->
        Bytes.set_uint8 b pos 3;
        Bytes.set_uint8 b (pos + 1) 3;
        Bytes.set_uint8 b (pos + 2) (s land 0xFF);
        pos + 3
      | Pack { total_bytes; marked_bytes } ->
        Bytes.set_uint8 b pos pack_option_kind;
        Bytes.set_uint8 b (pos + 1) 8;
        set24 b (pos + 2) total_bytes;
        set24 b (pos + 5) marked_bytes;
        pos + 8
      | Sack blocks ->
        Bytes.set_uint8 b pos 5;
        Bytes.set_uint8 b (pos + 1) (option_bytes o);
        write_sack b (pos + 2) blocks
    in
    write_options b pos rest

(* [int_stack] is newest-first and the wire oldest-first, so the head
   fills the last slot. *)
let rec write_hops b pos slot = function
  | [] -> ()
  | (h : Int_meta.hop) :: older ->
    let p = pos + (slot * Int_meta.hop_wire_bytes) in
    Bytes.set_uint8 b p (h.hop_id land 0xFF);
    Bytes.set_uint8 b (p + 1) (h.port land 0xFF);
    set32 b (p + 2) (Int_meta.wire_sojourn_ns h);
    set16 b (p + 6) (Int_meta.wire_qbytes h);
    set16 b (p + 8) (Int_meta.wire_svc h);
    write_hops b pos (slot - 1) older

let write_wire t b ~off =
  let len = wire_length t in
  let tcp_len = len - 34 in
  Bytes.fill b off len '\000';
  (* Ethernet *)
  set_mac b off t.key.Flow_key.dst_ip;
  set_mac b (off + 6) t.key.Flow_key.src_ip;
  set16 b (off + 12) 0x0800;
  (* IPv4 *)
  Bytes.set_uint8 b (off + 14) 0x45;
  Bytes.set_uint8 b (off + 15) (ecn_bits t.ecn);
  set16 b (off + 16) (20 + tcp_len + t.payload);
  set16 b (off + 18) t.id;
  set16 b (off + 20) 0x4000 (* DF *);
  Bytes.set_uint8 b (off + 22) 64;
  Bytes.set_uint8 b (off + 23) 6;
  set32 b (off + 26) (ip_addr t.key.Flow_key.src_ip);
  set32 b (off + 30) (ip_addr t.key.Flow_key.dst_ip);
  set16 b (off + 24) (fold_checksum (ones_sum 0 b ~off:(off + 14) ~len:20));
  (* TCP *)
  set16 b (off + 34) t.key.Flow_key.src_port;
  set16 b (off + 36) t.key.Flow_key.dst_port;
  set32 b (off + 38) t.seq;
  set32 b (off + 42) t.ack;
  (* Data offset; the low reserved bit carries AC/DC's [vm_ect] (§3.2's
     "reserved bit in the TCP header"). *)
  Bytes.set_uint8 b (off + 46) (((tcp_len / 4) lsl 4) lor if t.vm_ect then 1 else 0);
  Bytes.set_uint8 b (off + 47)
    ((if t.cwr then 0x80 else 0)
    lor (if t.ece then 0x40 else 0)
    lor (if t.has_ack then 0x10 else 0)
    lor (if t.rst then 0x04 else 0)
    lor (if t.syn then 0x02 else 0)
    lor if t.fin then 0x01 else 0);
  set16 b (off + 48) t.rwnd_field;
  let pos = write_options b (off + 54) t.options in
  (* The INT shim rides after the regular options (notably after PACK on
     AC/DC ACKs): kind, length, count byte (bit 7 = exceeded), then the
     hops oldest-first in their quantized wire form.  The zero fill above
     is the end-of-option-list padding. *)
  if t.int_stack != [] || t.int_exceeded then begin
    let n = List.length t.int_stack in
    Bytes.set_uint8 b pos Int_meta.option_kind;
    Bytes.set_uint8 b (pos + 1) (Int_meta.shim_wire_bytes ~hops:n);
    Bytes.set_uint8 b (pos + 2) ((if t.int_exceeded then 0x80 else 0) lor (n land 0x7F));
    write_hops b (pos + 3) (n - 1) t.int_stack
  end;
  set16 b (off + 50) (fold_checksum (tcp_sum b ~tcp_off:(off + 34) ~tcp_len ~payload:t.payload));
  len

let to_wire t =
  let b = Bytes.create (wire_length t) in
  ignore (write_wire t b ~off:0 : int);
  Bytes.unsafe_to_string b

exception Wire of string

(* Returns the plain options plus the INT stack (newest-first, matching
   the model's [int_stack]) and the exceeded flag. *)
let decode_options b ~off ~len =
  let stop = off + len in
  let int_stack = ref [] in
  let int_exceeded = ref false in
  let int_seen = ref false in
  let rec loop acc pos =
    if pos >= stop then List.rev acc
    else
      match Bytes.get_uint8 b pos with
      | 0 -> List.rev acc (* end of option list: rest is padding *)
      | 1 -> loop acc (pos + 1) (* no-op *)
      | kind ->
        if pos + 2 > stop then raise (Wire "truncated TCP option");
        let olen = Bytes.get_uint8 b (pos + 1) in
        if olen < 2 || pos + olen > stop then raise (Wire "bad TCP option length");
        if kind = Int_meta.option_kind then begin
          if !int_seen then raise (Wire "duplicate INT option");
          int_seen := true;
          let count_byte = if olen >= 3 then Bytes.get_uint8 b (pos + 2) else 0 in
          let n = count_byte land 0x7F in
          if olen <> Int_meta.shim_wire_bytes ~hops:n then
            raise (Wire "bad INT option length");
          int_exceeded := count_byte land 0x80 <> 0;
          for i = 0 to n - 1 do
            let p = pos + 3 + (i * Int_meta.hop_wire_bytes) in
            (* Wire hops are already quantized: sojourn lives in
               [egress_ns] with a zero ingress and the other fields are
               whole carrier units, so re-encoding is the identity. *)
            int_stack :=
              {
                Int_meta.hop_id = Bytes.get_uint8 b p;
                port = Bytes.get_uint8 b (p + 1);
                ingress_ns = 0;
                egress_ns = get32 b (p + 2);
                qbytes = Bytes.get_uint16_be b (p + 6) * Int_meta.qbytes_unit;
                svc_bps = Bytes.get_uint16_be b (p + 8) * Int_meta.svc_unit;
              }
              :: !int_stack
          done;
          loop acc (pos + olen)
        end
        else
          let opt =
            if kind = 2 then begin
              if olen <> 4 then raise (Wire "bad MSS option length");
              Mss (Bytes.get_uint16_be b (pos + 2))
            end
            else if kind = 3 then begin
              if olen <> 3 then raise (Wire "bad window-scale option length");
              Window_scale (Bytes.get_uint8 b (pos + 2))
            end
            else if kind = 5 then begin
              if olen < 10 || (olen - 2) mod 8 <> 0 then raise (Wire "bad SACK option length");
              let blocks =
                List.init
                  ((olen - 2) / 8)
                  (fun i -> (get32 b (pos + 2 + (8 * i)), get32 b (pos + 6 + (8 * i))))
              in
              Sack blocks
            end
            else if kind = pack_option_kind then begin
              if olen <> 8 then raise (Wire "bad PACK option length");
              let get24 p = (Bytes.get_uint8 b p lsl 16) lor Bytes.get_uint16_be b (p + 1) in
              Pack { total_bytes = get24 (pos + 2); marked_bytes = get24 (pos + 5) }
            end
            else raise (Wire (Printf.sprintf "unknown TCP option kind %d" kind))
          in
          loop (opt :: acc) (pos + olen)
  in
  let options = loop [] off in
  (options, !int_stack, !int_exceeded)

let of_wire s =
  try
    (* [b] aliases [s]: it is only ever read. *)
    let b = Bytes.unsafe_of_string s in
    if String.length s < 54 then raise (Wire "frame shorter than minimal headers");
    if Bytes.get_uint16_be b 12 <> 0x0800 then raise (Wire "not an IPv4 ethertype");
    if Bytes.get_uint8 b 14 <> 0x45 then raise (Wire "not IPv4 without IP options");
    if Bytes.get_uint8 b 23 <> 6 then raise (Wire "not TCP");
    if fold_checksum (ones_sum 0 b ~off:14 ~len:20) <> 0 then
      raise (Wire "IPv4 header checksum mismatch");
    let ip_total = Bytes.get_uint16_be b 16 in
    let tcp_len = 4 * (Bytes.get_uint8 b 46 lsr 4) in
    if tcp_len < 20 then raise (Wire "TCP data offset below 5 words");
    if String.length s < 34 + tcp_len then raise (Wire "frame truncated inside TCP header");
    let payload = ip_total - 20 - tcp_len in
    if payload < 0 then raise (Wire "IP total length below header length");
    (* The sum less the stored field is the sum [to_wire] folded with the
       field zeroed.  (Folding the sum with the field in, which must give
       0, would also accept 0xFFFF in place of a 0x0000 checksum.) *)
    let stored = Bytes.get_uint16_be b 50 in
    if fold_checksum (tcp_sum b ~tcp_off:34 ~tcp_len ~payload - stored) <> stored then
      raise (Wire "TCP checksum mismatch");
    let key =
      Flow_key.make
        ~src_ip:(get32 b 26 land 0xFFFFFF)
        ~dst_ip:(get32 b 30 land 0xFFFFFF)
        ~src_port:(Bytes.get_uint16_be b 34)
        ~dst_port:(Bytes.get_uint16_be b 36)
    in
    let flags = Bytes.get_uint8 b 47 in
    let options, int_stack, int_exceeded = decode_options b ~off:54 ~len:(tcp_len - 20) in
    Ok
      {
        (* The wire carries the low 16 bits of the simulator id in the
           IPv4 identification field; decoding must not mint fresh ids. *)
        id = Bytes.get_uint16_be b 18;
        key;
        seq = get32 b 38;
        ack = get32 b 42;
        syn = flags land 0x02 <> 0;
        fin = flags land 0x01 <> 0;
        rst = flags land 0x04 <> 0;
        has_ack = flags land 0x10 <> 0;
        ece = flags land 0x40 <> 0;
        cwr = flags land 0x80 <> 0;
        ecn = ecn_of_bits (Bytes.get_uint8 b 15 land 0x3);
        vm_ect = Bytes.get_uint8 b 46 land 0x1 <> 0;
        rwnd_field = Bytes.get_uint16_be b 48;
        options;
        int_stack;
        int_exceeded;
        payload;
        sent_at = Eventsim.Time_ns.zero;
      }
  with Wire msg -> Error msg

let pp_ecn fmt = function
  | Not_ect -> Format.pp_print_string fmt "-"
  | Ect0 -> Format.pp_print_string fmt "ECT0"
  | Ect1 -> Format.pp_print_string fmt "ECT1"
  | Ce -> Format.pp_print_string fmt "CE"

let pp fmt t =
  Format.fprintf fmt "#%d %a seq=%d ack=%d%s%s%s%s len=%d ecn=%a rwnd=%d" t.id Flow_key.pp
    t.key t.seq t.ack
    (if t.syn then " SYN" else "")
    (if t.fin then " FIN" else "")
    (if t.has_ack then " ACK" else "")
    (if t.ece then " ECE" else "")
    t.payload pp_ecn t.ecn t.rwnd_field
