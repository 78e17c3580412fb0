type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of t_float
  | String of string
  | List of t list
  | Obj of (string * t) list

and t_float = float

(* Length of the valid UTF-8 sequence starting at [i], or 0 if the bytes
   there are not one (continuation byte, overlong encoding, surrogate
   codepoint, or value above U+10FFFF). *)
let utf8_seq_len s i =
  let n = String.length s in
  let b0 = Char.code s.[i] in
  let cont j = j < n && Char.code s.[j] land 0xC0 = 0x80 in
  if b0 < 0x80 then 1
  else if b0 < 0xC2 then 0 (* stray continuation, or C0/C1 overlong lead *)
  else if b0 < 0xE0 then if cont (i + 1) then 2 else 0
  else if b0 < 0xF0 then
    if cont (i + 1) && cont (i + 2) then begin
      let b1 = Char.code s.[i + 1] in
      if (b0 = 0xE0 && b1 < 0xA0) (* overlong *)
         || (b0 = 0xED && b1 >= 0xA0) (* UTF-16 surrogate range *) then 0
      else 3
    end
    else 0
  else if b0 < 0xF5 then
    if cont (i + 1) && cont (i + 2) && cont (i + 3) then begin
      let b1 = Char.code s.[i + 1] in
      if (b0 = 0xF0 && b1 < 0x90) (* overlong *)
         || (b0 = 0xF4 && b1 >= 0x90) (* above U+10FFFF *) then 0
      else 4
    end
    else 0
  else 0

let add_escaped buf s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    (match c with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | c when Char.code c < 0x20 ->
      Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    | c when Char.code c < 0x80 -> Buffer.add_char buf c
    | _ -> (
      (* Non-ASCII: pass valid UTF-8 through untouched; anything else
         becomes U+FFFD so the emitted document is always valid UTF-8. *)
      match utf8_seq_len s !i with
      | 0 -> Buffer.add_string buf "\xef\xbf\xbd"
      | len ->
        Buffer.add_substring buf s !i len;
        i := !i + (len - 1)));
    incr i
  done

let add_string buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

(* Digits of [n <= 0], most significant first.  Working on the
   non-positive side covers [min_int], whose negation overflows. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

let add_float buf f =
  if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
  else Buffer.add_string buf "null"

(* [indent < 0] means compact: no newlines, no spaces after separators. *)
let rec write buf ~indent ~level = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s -> add_string buf s
  | List items ->
    write_seq buf ~indent ~level ~opening:'[' ~closing:']' items (fun buf ~indent ~level item ->
        write buf ~indent ~level item)
  | Obj fields ->
    write_seq buf ~indent ~level ~opening:'{' ~closing:'}' fields
      (fun buf ~indent ~level (k, v) ->
        Buffer.add_char buf '"';
        add_escaped buf k;
        Buffer.add_string buf (if indent < 0 then "\":" else "\": ");
        write buf ~indent ~level v)

and write_seq : 'a.
    Buffer.t ->
    indent:int ->
    level:int ->
    opening:char ->
    closing:char ->
    'a list ->
    (Buffer.t -> indent:int -> level:int -> 'a -> unit) ->
    unit =
 fun buf ~indent ~level ~opening ~closing items write_item ->
  Buffer.add_char buf opening;
  if items <> [] then begin
    let level = level + 1 in
    let newline () =
      if indent >= 0 then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (indent * level) ' ')
      end
    in
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        newline ();
        write_item buf ~indent ~level item)
      items;
    if indent >= 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (indent * (level - 1)) ' ')
    end
  end;
  Buffer.add_char buf closing

let to_string json =
  let buf = Buffer.create 256 in
  write buf ~indent:(-1) ~level:0 json;
  Buffer.contents buf

let to_string_pretty json =
  let buf = Buffer.create 1024 in
  write buf ~indent:2 ~level:0 json;
  Buffer.contents buf

let to_channel oc json =
  output_string oc (to_string_pretty json);
  output_char oc '\n'

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

exception Parse of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let literal lit v =
    let len = String.length lit in
    if !pos + len <= n && String.sub s !pos len = lit then begin
      pos := !pos + len;
      v
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" lit)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    (* Caller consumed the opening quote. *)
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
        incr pos;
        Buffer.contents buf
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char buf '"'; incr pos
        | '\\' -> Buffer.add_char buf '\\'; incr pos
        | '/' -> Buffer.add_char buf '/'; incr pos
        | 'b' -> Buffer.add_char buf '\b'; incr pos
        | 'f' -> Buffer.add_char buf '\012'; incr pos
        | 'n' -> Buffer.add_char buf '\n'; incr pos
        | 'r' -> Buffer.add_char buf '\r'; incr pos
        | 't' -> Buffer.add_char buf '\t'; incr pos
        | 'u' ->
          incr pos;
          let cp = hex4 () in
          let cp =
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              (* High surrogate: a low surrogate must follow. *)
              if !pos + 2 > n || s.[!pos] <> '\\' || s.[!pos + 1] <> 'u' then
                fail "high surrogate not followed by \\u";
              pos := !pos + 2;
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then fail "invalid low surrogate";
              0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then fail "unpaired low surrogate"
            else cp
          in
          add_utf8 buf cp
        | _ -> fail "invalid escape character");
        loop ()
      | c when Char.code c < 0x20 -> fail "unescaped control character in string"
      | c ->
        Buffer.add_char buf c;
        incr pos;
        loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let is_digit () = match peek () with Some '0' .. '9' -> true | _ -> false in
    if not (is_digit ()) then fail "invalid number";
    while is_digit () do incr pos done;
    let fractional = ref false in
    if peek () = Some '.' then begin
      fractional := true;
      incr pos;
      if not (is_digit ()) then fail "digit expected after '.'";
      while is_digit () do incr pos done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      fractional := true;
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      if not (is_digit ()) then fail "digit expected in exponent";
      while is_digit () do incr pos done
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !fractional then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' ->
      incr pos;
      String (parse_string ())
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elems (v :: acc)
          | Some ']' ->
            incr pos;
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elems []
      end
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          if peek () <> Some '"' then fail "expected string key";
          incr pos;
          let k = parse_string () in
          skip_ws ();
          if peek () <> Some ':' then fail "expected ':'";
          incr pos;
          (k, parse_value ())
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            fields (kv :: acc)
          | Some '}' ->
            incr pos;
            Obj (List.rev (kv :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg
  | exception Failure msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
