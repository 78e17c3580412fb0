(* The experiment farm: content-addressed keys, cache hit/miss behavior,
   deterministic merges independent of worker count, and gc. *)

module Json = Obs.Json
module Scenario = Farm.Scenario
module Cache = Farm.Cache
module Service = Farm.Service

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fp = "deadbeefdeadbeefdeadbeefdeadbeef"

(* A scenario whose "simulation" is a shell one-liner writing a fixed
   report artifact — hermetic stand-in for acdc_expt.exe, so the farm
   machinery is testable in milliseconds. *)
let fake ?(kind = "test") ?(seed = 0) ?(config = Json.Obj []) ?(sleep = 0.0) ~id ~value () =
  {
    Scenario.id;
    kind;
    seed;
    config;
    argv =
      (fun ~report ~dir:_ ->
        [
          "/bin/sh";
          "-c";
          Printf.sprintf "sleep %g; printf '%%s' '{\"schema\":\"test/1\",\"scalars\":{\"v\":%d}}' > %s"
            sleep value report;
        ]);
  }

let fresh_root =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let root =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "acdc-farm-test-%d-%d" (Unix.getpid ()) !counter)
    in
    Cache.rm_rf root;
    root

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)

let test_key_stable_under_field_reorder () =
  let a =
    fake ~id:"s" ~value:0
      ~config:(Json.Obj [ ("mtu", Json.Int 9000); ("pairs", Json.Int 5) ])
      ()
  in
  let b =
    fake ~id:"s" ~value:0
      ~config:(Json.Obj [ ("pairs", Json.Int 5); ("mtu", Json.Int 9000) ])
      ()
  in
  check_string "reordered fields hash identically"
    (Scenario.key ~fingerprint:fp a)
    (Scenario.key ~fingerprint:fp b);
  (* ... including nested objects *)
  let nest fields = Json.Obj [ ("impair", Json.Obj fields) ] in
  let c = fake ~id:"s" ~value:0 ~config:(nest [ ("loss", Json.Float 0.01); ("dup", Json.Float 0.0) ]) () in
  let d = fake ~id:"s" ~value:0 ~config:(nest [ ("dup", Json.Float 0.0); ("loss", Json.Float 0.01) ]) () in
  check_string "nested reorder too" (Scenario.key ~fingerprint:fp c) (Scenario.key ~fingerprint:fp d)

let test_key_sensitivity () =
  let base = fake ~id:"s" ~value:0 ~config:(Json.Obj [ ("mtu", Json.Int 9000) ]) () in
  let key = Scenario.key ~fingerprint:fp base in
  let differs what other = check_bool what false (String.equal key (Scenario.key ~fingerprint:fp other)) in
  differs "seed changes the key" { base with Scenario.seed = 1 };
  differs "config value changes the key"
    { base with Scenario.config = Json.Obj [ ("mtu", Json.Int 1500) ] };
  differs "id changes the key" { base with Scenario.id = "other" };
  differs "arguments change the key"
    {
      base with
      Scenario.argv = (fun ~report ~dir -> base.Scenario.argv ~report ~dir @ [ "--int" ]);
    };
  check_bool "fingerprint changes the key" false
    (String.equal key (Scenario.key ~fingerprint:"0000" base))

(* ------------------------------------------------------------------ *)
(* Hit/miss behavior                                                   *)

let test_hit_miss () =
  let root = fresh_root () in
  let s = fake ~id:"one" ~value:7 ~config:(Json.Obj [ ("x", Json.Int 1) ]) () in
  let r1 = Service.run ~root ~fingerprint:fp [ s ] in
  check_int "first run executes" 1 r1.Service.executed;
  check_int "first run has no hits" 0 r1.Service.hits;
  let r2 = Service.run ~root ~fingerprint:fp [ s ] in
  check_int "second run is a full hit" 1 r2.Service.hits;
  check_int "second run executes nothing" 0 r2.Service.executed;
  (* same id, different seed -> miss; the old entry stays *)
  let r3 = Service.run ~root ~fingerprint:fp [ { s with Scenario.seed = 9 } ] in
  check_int "seed change re-runs" 1 r3.Service.executed;
  (* same id/seed, different config -> miss *)
  let r4 =
    Service.run ~root ~fingerprint:fp
      [ { s with Scenario.config = Json.Obj [ ("x", Json.Int 2) ] } ]
  in
  check_int "config change re-runs" 1 r4.Service.executed;
  (* different code fingerprint -> miss *)
  let r5 = Service.run ~root ~fingerprint:"feedfacefeedfacefeedfacefeedface" [ s ] in
  check_int "fingerprint change re-runs" 1 r5.Service.executed;
  check_int "all variants now cached" 4 (List.length (Cache.list root));
  Cache.rm_rf root

let test_failure_not_cached () =
  let root = fresh_root () in
  let bad =
    {
      (fake ~id:"boom" ~value:0 ()) with
      Scenario.argv = (fun ~report:_ ~dir:_ -> [ "/bin/sh"; "-c"; "exit 3" ]);
    }
  in
  let r = Service.run ~root ~fingerprint:fp [ bad ] in
  check_int "failure reported" 1 (List.length r.Service.failures);
  (match r.Service.failures with
  | [ f ] ->
    check_string "failure names the scenario" "boom" f.Service.id;
    check_int "exit code surfaced" 3 f.Service.exit_code
  | _ -> Alcotest.fail "expected exactly one failure");
  check_int "nothing cached" 0 (List.length (Cache.list root));
  let r2 = Service.run ~root ~fingerprint:fp [ bad ] in
  check_int "failed scenario re-runs" 1 r2.Service.executed;
  Cache.rm_rf root

(* ------------------------------------------------------------------ *)
(* Deterministic merge                                                 *)

let scramble_scenarios () =
  (* ids deliberately not in submission order; sleeps scramble completion
     order under -j 4 *)
  [
    fake ~id:"zeta" ~value:1 ~sleep:0.08 ();
    fake ~id:"alpha" ~value:2 ~sleep:0.02 ();
    fake ~id:"mid" ~value:3 ~sleep:0.05 ();
    fake ~id:"beta" ~value:4 ();
    fake ~id:"omega" ~value:5 ~sleep:0.03 ();
    fake ~id:"kappa" ~value:6 ~sleep:0.01 ();
  ]

let test_merge_independent_of_worker_count () =
  let root1 = fresh_root () and root4 = fresh_root () in
  let r1 = Service.run ~jobs:1 ~root:root1 ~fingerprint:fp (scramble_scenarios ()) in
  let r4 = Service.run ~jobs:4 ~root:root4 ~fingerprint:fp (scramble_scenarios ()) in
  check_int "j1 ran all" 6 r1.Service.executed;
  check_int "j4 ran all" 6 r4.Service.executed;
  let c1 = read_file r1.Service.corpus_path and c4 = read_file r4.Service.corpus_path in
  check_string "-j 1 and -j 4 corpora are byte-identical" c1 c4;
  (* a fully-cached re-run reproduces the same bytes *)
  let r4' = Service.run ~jobs:4 ~root:root4 ~fingerprint:fp (scramble_scenarios ()) in
  check_int "re-run is 100% hits" 6 r4'.Service.hits;
  check_int "re-run executes nothing" 0 r4'.Service.executed;
  check_string "re-run corpus byte-identical" c4 (read_file r4'.Service.corpus_path);
  (* and the merge is id-sorted regardless of submission order *)
  (match Obs.Report.read_file ~path:r4.Service.corpus_path with
  | Error e -> Alcotest.fail e
  | Ok json -> (
    match Json.member "scenarios" json with
    | Some (Json.List entries) ->
      let ids =
        List.filter_map
          (fun e -> match Json.member "id" e with Some (Json.String s) -> Some s | _ -> None)
          entries
      in
      Alcotest.(check (list string))
        "id-sorted merge"
        [ "alpha"; "beta"; "kappa"; "mid"; "omega"; "zeta" ]
        ids
    | _ -> Alcotest.fail "corpus has no scenarios list"));
  Cache.rm_rf root1;
  Cache.rm_rf root4

(* ------------------------------------------------------------------ *)
(* gc                                                                  *)

let test_gc_removes_only_orphans () =
  let root = fresh_root () in
  let live_s = fake ~id:"live" ~value:1 () in
  ignore (Service.run ~root ~fingerprint:fp [ live_s ]);
  (* plant an orphan: a valid entry no current scenario refers to *)
  let orphan_key = "0123456789abcdef0123456789abcdef" in
  let src = Filename.concat root "orphan-src" in
  Cache.mkdir_p src;
  Out_channel.with_open_bin (Filename.concat src "report.json") (fun oc ->
      output_string oc "{\"schema\":\"test/1\"}");
  Out_channel.with_open_bin (Filename.concat src "meta.json") (fun oc ->
      output_string oc "{\"schema\":\"acdc-farm-meta/1\"}");
  Cache.store root ~key:orphan_key ~src;
  check_int "two entries before gc" 2 (List.length (Cache.list root));
  let live_key = Scenario.key ~fingerprint:fp live_s in
  let removed = Cache.gc root ~live:[ live_key ] in
  Alcotest.(check (list string)) "only the orphan went" [ orphan_key ] removed;
  check_bool "live entry survived" true (Cache.find root ~key:live_key <> None);
  check_int "one entry after gc" 1 (List.length (Cache.list root));
  Cache.rm_rf root

(* ------------------------------------------------------------------ *)
(* Registry invariants the farm depends on                             *)

let test_registry_ids_unique () =
  let ids = Experiments.Registry.ids () in
  check_int "no duplicate registry ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let test_registry_collision_checked () =
  Experiments.Registry.register ~id:"test-farm-unique" ~title:"scratch" (fun () -> ());
  Alcotest.check_raises "duplicate id rejected at registration"
    (Invalid_argument
       "Experiments.Registry.register: duplicate experiment id \"test-farm-unique\"")
    (fun () ->
      Experiments.Registry.register ~id:"test-farm-unique" ~title:"shadow" (fun () -> ()));
  (* the original registration is intact, not shadowed *)
  match Experiments.Registry.find "test-farm-unique" with
  | Some e -> check_string "original survives" "scratch" e.Experiments.Registry.title
  | None -> Alcotest.fail "registered entry vanished"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "farm"
    [
      ( "keys",
        [
          Alcotest.test_case "stable under field reordering" `Quick
            test_key_stable_under_field_reorder;
          Alcotest.test_case "sensitive to seed/config/id/code" `Quick test_key_sensitivity;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss behavior" `Quick test_hit_miss;
          Alcotest.test_case "failures are not cached" `Quick test_failure_not_cached;
          Alcotest.test_case "gc removes only orphans" `Quick test_gc_removes_only_orphans;
        ] );
      ( "merge",
        [
          Alcotest.test_case "byte-identical at -j 1 and -j 4" `Quick
            test_merge_independent_of_worker_count;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids unique" `Quick test_registry_ids_unique;
          Alcotest.test_case "collision-checked registration" `Quick
            test_registry_collision_checked;
        ] );
    ]
