module Summary = Dcstats.Summary
module Histogram = Dcstats.Histogram
module Samples = Dcstats.Samples
module Fairness = Dcstats.Fairness
module Ewma = Dcstats.Ewma
module Meter = Dcstats.Meter

let feps = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)

let test_summary_basic () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Summary.count s);
  feps "mean" 5.0 (Summary.mean s);
  Alcotest.(check (float 1e-6)) "stddev (sample)" (sqrt (32.0 /. 7.0)) (Summary.stddev s);
  feps "min" 2.0 (Summary.min s);
  feps "max" 9.0 (Summary.max s)

let test_summary_empty () =
  let s = Summary.create () in
  check_bool "mean is nan" true (Float.is_nan (Summary.mean s));
  feps "variance 0" 0.0 (Summary.variance s)

let test_summary_merge () =
  let a = Summary.create () and b = Summary.create () and whole = Summary.create () in
  let xs = [ 1.0; 2.0; 3.0 ] and ys = [ 10.0; 20.0; 30.0; 40.0 ] in
  List.iter (Summary.add a) xs;
  List.iter (Summary.add b) ys;
  List.iter (Summary.add whole) (xs @ ys);
  let merged = Summary.merge a b in
  Alcotest.(check int) "count" (Summary.count whole) (Summary.count merged);
  Alcotest.(check (float 1e-9)) "mean" (Summary.mean whole) (Summary.mean merged);
  Alcotest.(check (float 1e-6)) "variance" (Summary.variance whole) (Summary.variance merged)

let prop_summary_matches_naive =
  QCheck.Test.make ~name:"Welford mean/variance match the naive formulas" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Summary.create () in
      List.iter (Summary.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs /. (n -. 1.0)
      in
      Float.abs (Summary.mean s -. mean) < 1e-6 && Float.abs (Summary.variance s -. var) < 1e-4)

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)

let test_samples_percentiles () =
  let s = Samples.create () in
  List.iter (Samples.add s) (List.init 101 float_of_int);
  feps "p0" 0.0 (Samples.percentile s 0.0);
  feps "p50" 50.0 (Samples.percentile s 50.0);
  feps "p100" 100.0 (Samples.percentile s 100.0);
  feps "p25" 25.0 (Samples.percentile s 25.0);
  feps "median" 50.0 (Samples.median s);
  feps "min" 0.0 (Samples.min s);
  feps "max" 100.0 (Samples.max s);
  feps "mean" 50.0 (Samples.mean s)

let test_samples_interpolation () =
  let s = Samples.create () in
  List.iter (Samples.add s) [ 0.0; 10.0 ];
  feps "p50 interpolates" 5.0 (Samples.percentile s 50.0);
  feps "p75 interpolates" 7.5 (Samples.percentile s 75.0)

let test_samples_errors () =
  let s = Samples.create () in
  check_bool "empty raises" true
    (try
       ignore (Samples.percentile s 50.0);
       false
     with Invalid_argument _ -> true);
  Samples.add s 1.0;
  check_bool "rank out of range raises" true
    (try
       ignore (Samples.percentile s 101.0);
       false
     with Invalid_argument _ -> true)

let test_samples_cache_invalidation () =
  let s = Samples.create () in
  Samples.add s 5.0;
  feps "single" 5.0 (Samples.percentile s 50.0);
  Samples.add s 1.0;
  (* The sorted cache must be rebuilt after the insert. *)
  feps "updated median" 3.0 (Samples.percentile s 50.0);
  feps "updated min" 1.0 (Samples.min s)

let test_samples_cdf () =
  let s = Samples.create () in
  List.iter (Samples.add s) (List.init 11 float_of_int);
  let cdf = Samples.cdf ~points:10 s in
  Alcotest.(check int) "points+1 entries" 11 (List.length cdf);
  let v0, f0 = List.hd cdf in
  feps "starts at min" 0.0 v0;
  feps "fraction 0" 0.0 f0;
  let vn, fn = List.nth cdf 10 in
  feps "ends at max" 10.0 vn;
  feps "fraction 1" 1.0 fn

let prop_cdf_monotone =
  QCheck.Test.make ~name:"CDF values and fractions are nondecreasing" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (float_bound_exclusive 100.0))
    (fun xs ->
      let s = Samples.create () in
      List.iter (Samples.add s) xs;
      let cdf = Samples.cdf ~points:37 s in
      let rec monotone = function
        | (v1, f1) :: ((v2, f2) :: _ as rest) -> v1 <= v2 && f1 <= f2 && monotone rest
        | [ _ ] | [] -> true
      in
      monotone cdf)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentiles lie within [min, max]" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 100) (float_bound_exclusive 1000.0))
        (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let s = Samples.create () in
      List.iter (Samples.add s) xs;
      let v = Samples.percentile s p in
      v >= Samples.min s -. 1e-9 && v <= Samples.max s +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Fairness                                                            *)

let test_fairness_known_values () =
  feps "equal shares" 1.0 (Fairness.index [| 3.0; 3.0; 3.0 |]);
  feps "one hog" 0.25 (Fairness.index [| 1.0; 0.0; 0.0; 0.0 |]);
  feps "all zero defined as fair" 1.0 (Fairness.index [| 0.0; 0.0 |]);
  check_bool "empty raises" true
    (try
       ignore (Fairness.index [||]);
       false
     with Invalid_argument _ -> true)

let prop_fairness_bounds =
  QCheck.Test.make ~name:"Jain index in [1/n, 1]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 30) (float_bound_exclusive 100.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let idx = Fairness.index arr in
      let n = float_of_int (Array.length arr) in
      idx >= (1.0 /. n) -. 1e-9 && idx <= 1.0 +. 1e-9)

let prop_fairness_scale_invariant =
  QCheck.Test.make ~name:"Jain index invariant under scaling" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20) (float_range 0.1 100.0))
        (float_range 0.5 10.0))
    (fun (xs, k) ->
      let arr = Array.of_list xs in
      let scaled = Array.map (fun x -> x *. k) arr in
      Float.abs (Fairness.index arr -. Fairness.index scaled) < 1e-9)

(* ------------------------------------------------------------------ *)
(* EWMA                                                                *)

let test_ewma_seeding () =
  let e = Ewma.create ~gain:0.5 in
  Ewma.update e 10.0;
  feps "first sample seeds" 10.0 (Ewma.value e);
  Ewma.update e 0.0;
  feps "second sample blends" 5.0 (Ewma.value e)

let test_ewma_seeded () =
  (* DCTCP form: alpha <- (1-g) alpha + g * F with alpha0 = 1. *)
  let e = Ewma.create_seeded ~gain:(1.0 /. 16.0) ~init:1.0 in
  Ewma.update e 0.0;
  feps "decays by (1-g)" (15.0 /. 16.0) (Ewma.value e)

let test_ewma_converges () =
  let e = Ewma.create_seeded ~gain:0.25 ~init:0.0 in
  for _ = 1 to 100 do
    Ewma.update e 8.0
  done;
  check_bool "converges to input" true (Float.abs (Ewma.value e -. 8.0) < 1e-6)

let test_ewma_bad_gain () =
  check_bool "gain 0 rejected" true
    (try
       ignore (Ewma.create ~gain:0.0);
       false
     with Invalid_argument _ -> true);
  check_bool "gain > 1 rejected" true
    (try
       ignore (Ewma.create ~gain:1.5);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Meter                                                               *)

let test_throughput_meter () =
  let m = Meter.Throughput.create () in
  Meter.Throughput.add_bytes m 1_250_000_000;
  (* 1.25 GB in one second = 10 Gb/s *)
  feps "gbps" 10.0 (Meter.Throughput.gbps m ~over:(Eventsim.Time_ns.sec 1.0));
  Meter.Throughput.reset m;
  Alcotest.(check int) "reset" 0 (Meter.Throughput.bytes m)

let test_series_moving_average () =
  let s = Meter.Series.create () in
  List.iter (fun (t, v) -> Meter.Series.record s ~time:t v) [ (0, 1.0); (10, 3.0); (20, 5.0) ];
  let avg = Meter.Series.moving_average s ~window:100 in
  let _, last = List.nth avg 2 in
  feps "trailing average" 3.0 last;
  Alcotest.(check int) "length" 3 (Meter.Series.length s)

let test_series_windowed_rate () =
  let s = Meter.Series.create () in
  (* 1250 bytes in each of two 1-us bins = 10 Gb/s. *)
  Meter.Series.record s ~time:100 1250.0;
  Meter.Series.record s ~time:1_100 1250.0;
  let rates = Meter.Series.windowed_rate s ~bin:1_000 ~until:2_000 in
  (match rates with
  | (_, r1) :: (_, r2) :: _ ->
    feps "bin 1 rate" 10.0 r1;
    feps "bin 2 rate" 10.0 r2
  | _ -> Alcotest.fail "expected two bins")

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)

let test_histogram_basic () =
  let h = Histogram.create ~min_value:0.001 ~decades:6 () in
  List.iter (Histogram.add h) [ 0.01; 0.01; 0.1; 1.0; 10.0 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  check_bool "median near 0.1" true
    (Histogram.quantile h 0.5 >= 0.05 && Histogram.quantile h 0.5 <= 0.2);
  check_bool "p99 near 10" true (Histogram.quantile h 0.99 >= 5.0);
  Alcotest.(check int) "no underflow" 0 (Histogram.underflow h)

let test_histogram_tails () =
  let h = Histogram.create ~min_value:1.0 ~decades:2 () in
  Histogram.add h 0.5;
  Histogram.add h 1e9;
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 1 (Histogram.overflow h);
  Alcotest.(check int) "both counted" 2 (Histogram.count h)

let test_histogram_errors () =
  check_bool "empty quantile raises" true
    (try
       ignore (Histogram.quantile (Histogram.create ~min_value:1.0 ~decades:1 ()) 0.5);
       false
     with Invalid_argument _ -> true);
  check_bool "bad min raises" true
    (try
       ignore (Histogram.create ~min_value:0.0 ~decades:1 ());
       false
     with Invalid_argument _ -> true)

let prop_histogram_quantile_vs_samples =
  QCheck.Test.make ~name:"histogram quantile within a bucket of exact percentile" ~count:100
    QCheck.(list_of_size Gen.(int_range 10 300) (float_range 0.001 999.0))
    (fun xs ->
      let h = Histogram.create ~buckets_per_decade:20 ~min_value:0.001 ~decades:6 () in
      List.iter (Histogram.add h) xs;
      (* The contract in histogram.mli: the upper edge of the bucket that
         holds the rank-floor(n*q) sample [x], so within [x, x * 10^(1/20)]
         (one 20-per-decade bucket) up to float rounding.  An interpolated
         median would not do: it can sit anywhere between two order
         statistics a bucket or more apart. *)
      let sorted = Array.of_list (List.sort compare xs) in
      let x = sorted.(int_of_float (float_of_int (Array.length sorted) *. 0.5)) in
      let hq = Histogram.quantile h 0.5 and eps = 1e-9 in
      hq >= x *. (1.0 -. eps) && hq <= x *. (10.0 ** (1.0 /. 20.0)) *. (1.0 +. eps))

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_summary_matches_naive;
      prop_cdf_monotone;
      prop_percentile_bounds;
      prop_fairness_bounds;
      prop_fairness_scale_invariant;
      prop_histogram_quantile_vs_samples;
    ]

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "basic moments" `Quick test_summary_basic;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "merge" `Quick test_summary_merge;
        ] );
      ( "samples",
        [
          Alcotest.test_case "percentiles" `Quick test_samples_percentiles;
          Alcotest.test_case "interpolation" `Quick test_samples_interpolation;
          Alcotest.test_case "errors" `Quick test_samples_errors;
          Alcotest.test_case "cache invalidation" `Quick test_samples_cache_invalidation;
          Alcotest.test_case "cdf" `Quick test_samples_cdf;
        ] );
      ( "fairness",
        [ Alcotest.test_case "known values" `Quick test_fairness_known_values ] );
      ( "ewma",
        [
          Alcotest.test_case "seeding" `Quick test_ewma_seeding;
          Alcotest.test_case "dctcp form" `Quick test_ewma_seeded;
          Alcotest.test_case "convergence" `Quick test_ewma_converges;
          Alcotest.test_case "gain validation" `Quick test_ewma_bad_gain;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "tails" `Quick test_histogram_tails;
          Alcotest.test_case "errors" `Quick test_histogram_errors;
        ] );
      ( "meter",
        [
          Alcotest.test_case "throughput" `Quick test_throughput_meter;
          Alcotest.test_case "series moving average" `Quick test_series_moving_average;
          Alcotest.test_case "series windowed rate" `Quick test_series_windowed_rate;
        ] );
      ("properties", qtests);
    ]
