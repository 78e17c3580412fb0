module Time_ns = Eventsim.Time_ns

let c = 0.4
let beta = 0.7

(* All floats, so the record is stored flat and the per-ACK updates write
   unboxed; the epoch start lives apart. *)
type state = {
  mutable w_max : float; (* MSS units *)
  mutable k : float; (* seconds *)
  mutable origin : float;
  mutable tcp_epoch_cwnd : float;
  mutable acked_since_epoch : float; (* MSS units, for the Reno estimate *)
}

let make () =
  let s =
    { w_max = 0.0; k = 0.0; origin = 0.0; tcp_epoch_cwnd = 0.0; acked_since_epoch = 0.0 }
  in
  let epoch_start = ref None in
  let reset_epoch () = epoch_start := None in
  let on_ack view ~acked ~rtt:_ ~ce_marked:_ =
    let mss = float_of_int view.Cc.mss in
    let cwnd = view.Cc.get_cwnd () in
    if cwnd < view.Cc.get_ssthresh () then Cc.reno_increase view ~acked
    else begin
      let cwnd_mss = float_of_int cwnd /. mss in
      (match !epoch_start with
      | Some _ -> ()
      | None ->
        epoch_start := Some (view.Cc.now ());
        if s.w_max > cwnd_mss then begin
          s.k <- Float.cbrt (s.w_max *. (1.0 -. beta) /. c);
          s.origin <- s.w_max
        end
        else begin
          s.k <- 0.0;
          s.origin <- cwnd_mss
        end;
        s.tcp_epoch_cwnd <- cwnd_mss;
        s.acked_since_epoch <- 0.0);
      s.acked_since_epoch <- s.acked_since_epoch +. (float_of_int acked /. mss);
      let start = match !epoch_start with Some t -> t | None -> assert false in
      (* [Time_ns.to_sec] written out: a float returned from another
         library is boxed, and this runs on every ACK in congestion
         avoidance. *)
      let t = float_of_int (Time_ns.diff (view.Cc.now ()) start) /. 1e9 in
      let dt = t -. s.k in
      let target = s.origin +. (c *. dt *. dt *. dt) in
      (* Reno-friendliness: estimated window a standard AIMD flow with the
         same loss history would have (RFC 8312 §4.2). *)
      let w_est =
        (s.w_max *. beta)
        +. (3.0 *. (1.0 -. beta) /. (1.0 +. beta) *. s.acked_since_epoch /. cwnd_mss)
        |> Float.max s.tcp_epoch_cwnd
      in
      let target = Float.max target w_est in
      let next =
        if target > cwnd_mss then cwnd_mss +. ((target -. cwnd_mss) /. cwnd_mss)
        else cwnd_mss +. (0.01 /. cwnd_mss)
      in
      view.Cc.set_cwnd (Cc.clamp_cwnd view (int_of_float (next *. mss)))
    end
  in
  let on_congestion view (_ : Cc.congestion) =
    let mss = float_of_int view.Cc.mss in
    let cwnd_mss = float_of_int (view.Cc.get_cwnd ()) /. mss in
    reset_epoch ();
    (* Fast convergence: release bandwidth faster when a flow is shrinking. *)
    if cwnd_mss < s.w_max then s.w_max <- cwnd_mss *. (2.0 -. beta) /. 2.0
    else s.w_max <- cwnd_mss;
    let target = Cc.clamp_cwnd view (int_of_float (cwnd_mss *. beta *. mss)) in
    view.Cc.set_ssthresh target;
    view.Cc.set_cwnd target
  in
  let on_rto (_ : Cc.view) =
    reset_epoch ();
    s.w_max <- 0.0
  in
  { Cc.name = "cubic"; per_ack_ecn = false; on_ack; on_congestion; on_rto }

let factory = make
