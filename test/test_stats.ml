module Samples = Dcstats.Samples
module Fairness = Dcstats.Fairness

let feps = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

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

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_percentile_bounds; prop_fairness_bounds; prop_fairness_scale_invariant ]

let () =
  Alcotest.run "stats"
    [
      ( "samples",
        [
          Alcotest.test_case "percentiles" `Quick test_samples_percentiles;
          Alcotest.test_case "interpolation" `Quick test_samples_interpolation;
          Alcotest.test_case "errors" `Quick test_samples_errors;
          Alcotest.test_case "cache invalidation" `Quick test_samples_cache_invalidation;
        ] );
      ( "fairness",
        [ Alcotest.test_case "known values" `Quick test_fairness_known_values ] );
      ("properties", qtests);
    ]
