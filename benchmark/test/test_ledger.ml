(* The benchmark's own checks, on every workload at 1/50 of its length. *)

open Ledger
module Json = Obs.Json

let scale = 50

let outcome ?(traced = false) ?(seed = 1) w =
  let o = Sim.build ~traced (Inputs.generate ~scale w ~seed) () in
  Alcotest.(check (list string)) (Inputs.name w ^ " invariants") [] o.violations;
  o

let each_workload f () = List.iter f Inputs.all

let same_seed_same_digest =
  each_workload (fun w ->
      Alcotest.(check string) (Inputs.name w) (outcome w).digest (outcome w).digest)

let seed_changes_churn () =
  let a = outcome Inputs.Churn_web ~seed:1 and b = outcome Inputs.Churn_web ~seed:2 in
  Alcotest.(check bool) "churn-web digests differ" true (a.digest <> b.digest)

let traced_matches_untraced =
  each_workload (fun w ->
      let untraced = outcome w and traced = outcome ~traced:true w in
      Alcotest.(check string) (Inputs.name w) untraced.digest traced.digest;
      let calls name =
        (List.find (fun (l : Spans.layer_stats) -> l.name = name) traced.layers).calls
      in
      Alcotest.(check bool) "switch spans recorded" true (calls "netsim.switch" > 0);
      Alcotest.(check bool)
        "acdc spans only where AC/DC runs" (w <> Inputs.Dumbbell_cubic_1500)
        (calls "acdc.sender" > 0))

let empty_spans_allocate_nothing () =
  Spans.reset ~pending:Spans.no_pending;
  let before = Gc.minor_words () in
  for _ = 1 to 1_000_000 do
    Spans.leave (Spans.enter Spans.switch)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words" 0.0 words

(* Every metric BENCHMARK.json names appears, with its unit, in the result
   line of the matching mode. *)
let result_has_every_metric () =
  let spec =
    let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
    match Json.of_string text with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let rep traced =
    { Rep.setup_ns = 1; rss_kb = 1; outcome = outcome ~traced Inputs.Dumbbell_acdc }
    |> Rep.to_json |> Rep.of_json
  in
  let untraced = [ rep false ] and traced = [ rep true ] in
  let check section metrics =
    let line = Report.result_line ~correct:true ~attempted:1 ~failed:0 metrics in
    let emitted =
      match Json.of_string line with
      | Ok j -> ( match Json.member "metrics" j with Some m -> m | None -> Alcotest.fail line)
      | Error e -> Alcotest.fail e
    in
    match Json.member section spec with
    | Some (Json.List ms) ->
      List.iter
        (fun m ->
          let name = Rep.string m "name" in
          match Json.member name emitted with
          | Some v -> Alcotest.(check string) name (Rep.string m "unit") (Rep.string v "unit")
          | None -> Alcotest.failf "%s: %s is not reported" section name)
        ms
    | _ -> Alcotest.failf "BENCHMARK.json has no %s list" section
  in
  check "end_to_end" (Report.end_to_end ~setups:[ 0.001 ] untraced);
  check "per_layer" (Report.per_layer ~untraced ~traced)

let () =
  Alcotest.run "ledger"
    [
      ( "benchmark",
        [
          Alcotest.test_case "same seed, same digest" `Quick same_seed_same_digest;
          Alcotest.test_case "another seed changes churn-web" `Quick seed_changes_churn;
          Alcotest.test_case "traced wiring reproduces the digest" `Quick traced_matches_untraced;
          Alcotest.test_case "empty spans allocate nothing" `Quick empty_spans_allocate_nothing;
          Alcotest.test_case "results carry every benchmark metric" `Quick
            result_has_every_metric;
        ] );
    ]
