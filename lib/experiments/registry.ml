(* The registry is the unit of scheduling for everything above it (the
   CLI and the experiment farm): ids must be stable and unique because
   farm cache keys are derived from them. *)

type entry = { id : string; title : string; config : Obs.Json.t; run : Obs.Report.t -> unit }

(* Reverse registration order. *)
let registered : entry list ref = ref []

let register ?(config = Obs.Json.Obj []) ~id ~title run =
  if List.exists (fun e -> String.equal e.id id) !registered then
    invalid_arg (Printf.sprintf "Experiments.Registry.register: duplicate experiment id %S" id);
  registered := { id; title; config; run } :: !registered

let all () = List.rev !registered
let find id = List.find_opt (fun e -> String.equal e.id id) !registered
let ids () = List.map (fun e -> e.id) (all ())

(* Registry-level parameter overrides go into [config] so content-addressed
   cache keys distinguish variants of one figure; each experiment's
   scaled-down defaults live in its own module and are covered by the code
   fingerprint instead. *)
let mtu n = Obs.Json.Obj [ ("mtu", Obs.Json.Int n) ]

let () =
  register ~id:"fig1" ~title:"heterogeneous congestion controls are unfair" (fun _ ->
      Fig_motivation.Fig1.(print (run ())));
  register ~id:"fig2" ~title:"rate-limited CUBIC still fills buffers" (fun _ ->
      Fig_motivation.Fig2.(print (run ())));
  register ~id:"fig6" ~config:(mtu 9000) ~title:"RWND clamping == CWND clamping (9KB MTU)"
    (fun _ -> Fig_micro.Fig6.(print (run ())));
  register ~id:"fig6-1500" ~config:(mtu 1500)
    ~title:"RWND clamping == CWND clamping (1.5KB MTU)" (fun _ ->
      Fig_micro.Fig6.(print (run ~mtu:1500 ())));
  register ~id:"fig8" ~title:"dumbbell RTT CDFs (CUBIC / DCTCP / AC/DC)" (fun _ ->
      Fig_micro.Fig8.(print (run ())));
  register ~id:"parking-lot" ~title:"multi-bottleneck parking-lot microbenchmark" (fun _ ->
      Fig_micro.Fig8.(print (run_parking_lot ())));
  register ~id:"fig9" ~title:"AC/DC RWND tracks DCTCP CWND" (fun _ ->
      Fig_micro.Fig9.(print (run ())));
  register ~id:"fig10" ~title:"AC/DC RWND is the limiting window under CUBIC" (fun _ ->
      Fig_micro.Fig10.(print (run ())));
  register ~id:"fig11-12" ~title:"vSwitch datapath cost with and without AC/DC" Fig_cpu.run;
  register ~id:"table1" ~config:(mtu 9000) ~title:"AC/DC under six host stacks (9KB MTU)"
    (fun _ -> Fig_micro.Table1.(print (run ())));
  register ~id:"table1-1500" ~config:(mtu 1500)
    ~title:"AC/DC under six host stacks (1.5KB MTU)" (fun _ ->
      Fig_micro.Table1.(print (run ~mtu:1500 ())));
  register ~id:"fig13" ~title:"QoS via priority-based congestion control" (fun _ ->
      Fig_fairness.Fig13.(print (run ())));
  register ~id:"fig14" ~title:"convergence as flows join and leave" (fun _ ->
      Fig_fairness.Fig14.(print (run ())));
  register ~id:"fig15" ~title:"ECN coexistence with and without AC/DC" (fun _ ->
      Fig_fairness.Fig15.(print (run ())));
  register ~id:"fig17" ~title:"heterogeneous stacks under AC/DC vs all-DCTCP" (fun _ ->
      Fig_fairness.Fig17.(print (run ())));
  register ~id:"fig18" ~title:"incast throughput, fairness, RTT, drops" (fun _ ->
      Fig_macro.Incast.(print (run ())));
  register ~id:"fig20" ~title:"RTT with almost every port congested" (fun _ ->
      Fig_macro.Fig20.(print (run ())));
  register ~id:"fig21" ~title:"concurrent stride FCTs" (fun _ ->
      Fig_macro.Stride.(print (run ())));
  register ~id:"fig22" ~title:"shuffle FCTs" (fun _ -> Fig_macro.Shuffle.(print (run ())));
  register ~id:"ext-load-sweep"
    ~title:"open-loop load sweep with connection churn (extension)" (fun _ ->
      Fig_load_sweep.Load_sweep.(print (run ())));
  register ~id:"ext-any-cc"
    ~title:"any congestion control enforced from the vSwitch (extension)" (fun _ ->
      Fig_anycc.Any_cc.(print (run ())));
  register ~id:"sec23-multipath" ~title:"ECMP collisions on a leaf-spine fabric (extension)"
    (fun _ -> Fig_multipath.Ecmp.(print (run ())));
  register ~id:"ext-int-hops"
    ~title:"per-hop latency attribution via in-band telemetry (extension)" (fun _ ->
      Fig_int.Int_hops.(print (run ())));
  register ~id:"ext-attrib"
    ~title:"causal FCT attribution: enforced vs native stacks (extension)" (fun _ ->
      Fig_attrib.Attrib_fig.(print (run ())));
  register ~id:"ext-adversarial"
    ~title:"RWND-ignoring stack is policed, honest flows unharmed (extension)" (fun _ ->
      Harness.print_header "ext-adversarial" "a cheating stack under AC/DC policing (3.3)";
      Fuzz_harness.(print_adversarial (adversarial ())));
  register ~id:"fig23" ~title:"web-search / data-mining mice FCTs" (fun _ ->
      Fig_macro.Traces.(print (run ())));
  register ~id:"ablation-fack" ~title:"PACK piggy-backing vs dedicated FACKs (ablation)"
    (fun _ -> Ablation.fack ());
  register ~id:"ablation-floor" ~title:"enforced-window floor in large incast (ablation)"
    (fun _ -> Ablation.window_floor ());
  register ~id:"smoke" ~title:"CI smoke run: 5-pair AC/DC dumbbell with INT + attribution"
    Smoke.run
