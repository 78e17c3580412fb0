(* The fuzz harness itself: scenario determinism, invariant runs, and the
   directed adversarial policing check. *)

module Fuzz = Experiments.Fuzz_harness
module Impair = Netsim.Impair
module Time_ns = Eventsim.Time_ns

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A fixed-seed batch must violate nothing — these exact seeds are also
   exercised by the CI fuzz job, so a regression fails here first. *)
let test_seeded_batch_holds () =
  List.iter
    (fun seed ->
      let o = Fuzz.run_seed seed in
      List.iter
        (fun v ->
          Alcotest.failf "seed %d violated %s: %s" seed v.Fuzz.invariant v.Fuzz.detail)
        o.Fuzz.violations;
      check_int
        (Printf.sprintf "seed %d completes every message" seed)
        o.Fuzz.expected o.Fuzz.completed)
    [ 1; 2; 3; 4; 5 ]

(* Satellite: a fixed-seed fuzz report is byte-identical across two
   invocations, impairments included (seed 1 samples an impaired
   parking lot). *)
let test_report_determinism () =
  let render () =
    Obs.Json.to_string (Obs.Report.to_json (Fuzz.report_of_outcomes (Fuzz.run ~count:2 ~seed:1)))
  in
  let first = render () in
  let second = render () in
  check_bool "byte-identical across invocations" true (String.equal first second);
  (* The report must carry the replay handle. *)
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "report names the root seed" true (contains first "\"root_seed\":1")

(* One trace of a fuzz batch names each packet once: ids carry on from one
   scenario to the next, so `trace_query validate` can check the batch. *)
let test_batch_ids_unique () =
  let seen = Hashtbl.create 4096 and repeats = ref 0 in
  let tracer =
    Obs.Trace.jsonl ~write:(fun line ->
        match Result.bind (Obs.Json.of_string line) Obs.Trace.event_of_json with
        | Ok (_, Obs.Trace.Created { pkt; _ }) ->
          if Hashtbl.mem seen pkt then incr repeats else Hashtbl.add seen pkt ()
        | Ok _ | Error _ -> ())
  in
  Obs.Runtime.set_tracer tracer;
  Fun.protect
    ~finally:(fun () -> Obs.Runtime.set_tracer Obs.Trace.null)
    (fun () -> ignore (Fuzz.run ~count:2 ~seed:1));
  check_bool "packets traced" true (Hashtbl.length seen > 0);
  check_int "no created id repeats across the batch" 0 !repeats

(* Scenario sampling is a pure function of the seed. *)
let test_scenario_determinism () =
  let a = Fuzz.scenario_of_seed ~seed:7 and b = Fuzz.scenario_of_seed ~seed:7 in
  check_bool "same seed, same scenario" true (a = b);
  let c = Fuzz.scenario_of_seed ~seed:8 in
  check_bool "different seed, different scenario" true (a <> c)

(* Randomized cheater scenarios must actually exercise §3.3, not just
   configure it: scanning the sampled cheaters in seed order, one of the
   early ones has a workload big enough for the aggressive window to
   outrun enforced + slack and be dropped (seed 14 at the time of
   writing).  All of them must stay violation-free regardless. *)
let test_sampled_cheater_is_policed () =
  let rec scan seed =
    if seed > 50 then Alcotest.fail "no policed cheater scenario sampled in [1,50]"
    else
      let s = Fuzz.scenario_of_seed ~seed in
      if not s.Fuzz.misbehaving then scan (seed + 1)
      else begin
        let o = Fuzz.run_scenario s in
        check_bool
          (Printf.sprintf "seed %d violation-free" seed)
          true (o.Fuzz.violations = []);
        if o.Fuzz.policer_drops = 0 then scan (seed + 1)
      end
  in
  scan 1

(* The acceptance criterion for the adversarial check: the cheater is
   measurably policed (nonzero drops, bounded queues) while conforming
   flows keep goodput within 10% of their cheater-free baseline. *)
let adversarial_asserts r =
  check_bool "policer drops nonzero" true (r.Fuzz.adv_policer_drops > 0);
  check_bool "queues bounded well below the 9 MB buffer" true
    (r.Fuzz.max_queue_bytes < 2_000_000);
  check_bool "cheater held below its fair share" true (r.Fuzz.cheater_gbps < 2.0);
  List.iter2
    (fun base contested ->
      check_bool
        (Printf.sprintf "honest flow keeps >= 90%% of baseline (%.2f vs %.2f Gb/s)"
           contested base)
        true
        (contested >= 0.9 *. base))
    r.Fuzz.baseline_gbps r.Fuzz.contested_gbps

let test_adversarial_clean () = adversarial_asserts (Fuzz.adversarial ())

let test_adversarial_impaired () =
  let impair =
    {
      Impair.clean with
      Impair.loss = 0.001;
      reorder = 0.02;
      reorder_delay = Time_ns.us 30;
    }
  in
  adversarial_asserts (Fuzz.adversarial ~impair ~seed:3 ())

let () =
  Alcotest.run "fuzz"
    [
      ( "determinism",
        [
          Alcotest.test_case "scenario sampling" `Quick test_scenario_determinism;
          Alcotest.test_case "report bytes" `Quick test_report_determinism;
          Alcotest.test_case "batch packet ids unique" `Quick test_batch_ids_unique;
        ] );
      ( "invariants",
        [ Alcotest.test_case "seeded batch holds" `Slow test_seeded_batch_holds ] );
      ( "policing",
        [
          Alcotest.test_case "sampled cheater is policed" `Slow test_sampled_cheater_is_policed;
          Alcotest.test_case "adversarial clean fabric" `Slow test_adversarial_clean;
          Alcotest.test_case "adversarial impaired fabric" `Slow test_adversarial_impaired;
        ] );
    ]
