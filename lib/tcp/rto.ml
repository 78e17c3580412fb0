module Time_ns = Eventsim.Time_ns

(* Ceiling on the RTO, backoff included. *)
let max_rto = Time_ns.sec 4.0

type t = {
  min_rto : Time_ns.t;
  mutable srtt : float; (* ns *)
  mutable rttvar : float;
  mutable have_sample : bool;
  mutable backoff_factor : int;
  mutable samples : int;
  mutable backoffs : int;
}

let create ?(min_rto = Time_ns.ms 10) () =
  {
    min_rto;
    srtt = 0.0;
    rttvar = 0.0;
    have_sample = false;
    backoff_factor = 1;
    samples = 0;
    backoffs = 0;
  }

let observe t sample =
  t.samples <- t.samples + 1;
  let r = float_of_int sample in
  if t.have_sample then begin
    (* RFC 6298 gains: beta = 1/4, alpha = 1/8. *)
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. r));
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. r)
  end
  else begin
    t.srtt <- r;
    t.rttvar <- r /. 2.0;
    t.have_sample <- true
  end

let timeout t =
  let base =
    if t.have_sample then int_of_float (t.srtt +. Float.max 1.0 (4.0 *. t.rttvar))
    else Time_ns.sec 1.0 (* RFC 6298 initial RTO; the paper's settings cut in fast *)
  in
  Time_ns.min max_rto (Time_ns.max t.min_rto base * t.backoff_factor)

let backoff t =
  t.backoffs <- t.backoffs + 1;
  if t.backoff_factor < 64 then t.backoff_factor <- t.backoff_factor * 2

let reset_backoff t = t.backoff_factor <- 1

let srtt t = if t.have_sample then Some (int_of_float t.srtt) else None

let samples t = t.samples

let backoffs t = t.backoffs
