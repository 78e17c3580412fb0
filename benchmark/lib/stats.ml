(* Order statistics over a run's repetitions. *)

let median = function
  | [] -> nan
  | values ->
    let s = Dcstats.Samples.create () in
    List.iter (Dcstats.Samples.add s) values;
    Dcstats.Samples.median s

(* First and third quartile by Python's [statistics.quantiles(data, n=4)]
   (the "exclusive" method, unlike [Dcstats.Samples.percentile]), so the
   ledger's spreads read the same as the tools that judge it. *)
let quartiles values =
  let a = Array.of_list (List.sort compare values) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
