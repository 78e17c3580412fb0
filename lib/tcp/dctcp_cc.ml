(* EWMA gain, as in the paper, Linux and RFC 8257. *)
let g = 1.0 /. 16.0

type state = {
  mutable alpha : float;
  mutable window_start_cwnd : int; (* bytes of cwnd when the window opened *)
  mutable acked_total : int; (* bytes acked this window *)
  mutable acked_marked : int; (* bytes acked with ECE this window *)
  mutable cut_this_window : bool;
}

let factory () =
  let s =
    {
      alpha = 1.0;
      (* Linux seeds alpha at 1 so a mark early in life cuts hard. *)
      window_start_cwnd = 0;
      acked_total = 0;
      acked_marked = 0;
      cut_this_window = false;
    }
  in
  let open_window view =
    s.window_start_cwnd <- view.Cc.get_cwnd ();
    s.acked_total <- 0;
    s.acked_marked <- 0;
    s.cut_this_window <- false
  in
  let cut view =
    if not s.cut_this_window then begin
      s.cut_this_window <- true;
      let cwnd = view.Cc.get_cwnd () in
      let target =
        Cc.clamp_cwnd view (int_of_float (float_of_int cwnd *. (1.0 -. (s.alpha /. 2.0))))
      in
      view.Cc.set_ssthresh target;
      view.Cc.set_cwnd target
    end
  in
  let end_window view =
    let fraction =
      if s.acked_total = 0 then 0.0
      else float_of_int s.acked_marked /. float_of_int s.acked_total
    in
    s.alpha <- ((1.0 -. g) *. s.alpha) +. (g *. fraction);
    if s.acked_marked > 0 then cut view;
    open_window view
  in
  let on_ack view ~acked ~rtt:_ ~ce_marked =
    if s.window_start_cwnd = 0 then open_window view;
    s.acked_total <- s.acked_total + acked;
    if ce_marked then s.acked_marked <- s.acked_marked + acked;
    (* A window's worth of data has been acknowledged: roughly one RTT. *)
    if s.acked_total >= s.window_start_cwnd then end_window view
    else if not ce_marked then Cc.reno_increase view ~acked
  in
  let on_congestion view = function
    | Cc.Ecn -> cut view
    | Cc.Dup_acks ->
      (* Linux DCTCP uses the alpha-scaled cut for loss as well. *)
      s.cut_this_window <- false;
      cut view
  in
  let on_rto (_ : Cc.view) =
    s.alpha <- 1.0;
    s.window_start_cwnd <- 0
  in
  { Cc.name = "dctcp"; per_ack_ecn = true; on_ack; on_congestion; on_rto }
