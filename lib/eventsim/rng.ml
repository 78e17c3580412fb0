(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   record field would box a fresh Int64 on every draw.  [mix] and [next]
   are inlined into the drawing functions so the intermediate values stay
   in registers. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] next t =
  let state = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 state;
  mix state

let bits64 t = next t

let split t = of_state (next t)

let int t bound =
  assert (bound > 0);
  (* Rejection-free modulo is fine for simulation workloads; masking keeps
     the value non-negative after the 64->63 bit truncation. *)
  let v = Int64.to_int (next t) land max_int in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  (* 53 random bits mapped to [0,1). *)
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
