(* The performance ledger's runner.

     run.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
             [--traced] [--out FILE]

   For each workload it generates the inputs from the seed, then runs
   fresh child processes (this executable, [child] mode) one at a time
   until [--seconds] have passed: untraced repetitions, short set-up
   probes, and with [--trace 1] traced repetitions interleaved with the
   untraced ones.  It prints every metric with its median, quartiles and
   sample count, the digest of the simulated outcome, and as its last
   line one JSON object with the medians. *)

open Ledger
module Json = Obs.Json

let reference_file = "benchmark/reference.json"
let child_timeout_s = 60.0

let now_s () = float_of_int (Spans.clock_ns ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* Child mode: inputs on stdin, one JSON line on stdout.               *)

let peak_rss_kb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" Option.some
         | _ -> None)
  |> Option.value ~default:0

let child ~phase ~spawned_at =
  let inputs = Inputs.of_string (In_channel.input_all stdin) in
  let go = Sim.build ~traced:(phase = "traced") inputs in
  let json =
    if phase = "setup" then Json.Obj [ ("setup_ns", Json.Int (Spans.clock_ns () - spawned_at)) ]
    else
      let outcome = go () in
      Rep.to_json
        { Rep.setup_ns = outcome.run_start_ns - spawned_at; outcome; rss_kb = peak_rss_kb () }
  in
  print_endline (Json.to_string json)

(* ------------------------------------------------------------------ *)
(* Spawning repetitions                                                *)

(* Children measure the simulator as built, whatever the caller's shell
   exports: runtime and scheduler knobs are dropped. *)
let child_env =
  lazy
    (Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not
             (List.exists
                (fun p -> String.starts_with ~prefix:(p ^ "=") kv)
                [ "OCAMLRUNPARAM"; "CAMLRUNPARAM"; "ACDC_SCHED" ]))
    |> Array.of_list)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Run one child to completion; [None] if it crashed, hung or printed no
   result. *)
let spawn ~phase payload =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let spawned_at = Spans.clock_ns () in
  let pid =
    Unix.create_process_env exe
      [| exe; "child"; phase; string_of_int spawned_at |]
      (Lazy.force child_env) in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  (try write_all in_w payload 0 with Unix.Unix_error _ -> ());
  Unix.close in_w;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let deadline = now_s () +. child_timeout_s in
  let rec read () =
    let left = deadline -. now_s () in
    if left <= 0.0 then false
    else
      match Unix.select [ out_r ] [] [] left with
      | [], _, _ -> false
      | _ ->
        let n = Unix.read out_r chunk 0 (Bytes.length chunk) in
        if n = 0 then true
        else begin
          Buffer.add_subbytes buf chunk 0 n;
          read ()
        end
  in
  let finished = read () in
  if not finished then Unix.kill pid Sys.sigkill;
  Unix.close out_r;
  let _, status = Unix.waitpid [] pid in
  match (finished, status) with
  | true, Unix.WEXITED 0 -> (
    match Json.of_string (String.trim (Buffer.contents buf)) with
    | Ok json -> Some json
    | Error _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)

type result = {
  workload : Inputs.workload;
  seed : int;
  started : float;  (** Unix time *)
  attempted : int;
  failed : int;
  correct : bool;
  digest : string;
  reference : string option;
  metrics : Report.metric list;
}

let reference () =
  match Json.of_string (In_channel.with_open_text reference_file In_channel.input_all) with
  | Ok json -> json
  | Error e -> failwith (reference_file ^ ": " ^ e)
  | exception Sys_error _ -> Json.Obj []

let default_seed () = match Json.member "seed" (reference ()) with Some (Json.Int s) -> s | _ -> 1

let reference_digest workload ~seed =
  let json = reference () in
  match (Json.member "seed" json, Json.member "digests" json) with
  | Some (Json.Int s), Some digests when s = seed -> (
    match Json.member (Inputs.name workload) digests with
    | Some (Json.String d) -> Some d
    | _ -> None)
  | _ -> None

let majority digests =
  List.fold_left
    (fun (best, n) d ->
      let c = List.length (List.filter (( = ) d) digests) in
      if c > n then (d, c) else (best, n))
    ("", 0) digests
  |> fst

let measure ~trace ~seconds ~seed workload =
  let payload = Inputs.to_string (Inputs.generate workload ~seed) in
  let started = Unix.gettimeofday () and start = now_s () in
  let attempted = ref 0 and crashed = ref 0 in
  let setups = ref [] and reps = ref [] in
  let run phase =
    incr attempted;
    let t0 = now_s () in
    match spawn ~phase payload with
    | None -> incr crashed
    | Some json -> (
      try
        if phase = "setup" then
          setups := (float_of_int (Rep.int json "setup_ns") /. 1e9) :: !setups
        else begin
          let rep = Rep.of_json json in
          setups := Rep.setup_s rep :: !setups;
          reps := (phase, rep, now_s () -. t0) :: !reps
        end
      with Failure _ -> incr crashed)
  in
  (* A cycle is one untraced repetition plus either two set-up probes or
     one traced repetition; cycles repeat until the next would overrun. *)
  let cycle () =
    if trace then begin
      run "untraced";
      run "traced"
    end
    else begin
      run "setup";
      run "setup";
      run "untraced"
    end
  in
  let cycle_s = ref [] in
  while List.length !cycle_s < 3 || now_s () -. start +. Stats.median !cycle_s <= seconds do
    let t0 = now_s () in
    cycle ();
    cycle_s := (now_s () -. t0) :: !cycle_s
  done;
  let reps = List.rev !reps in
  let digest = majority (List.map (fun (_, r, _) -> r.Rep.outcome.digest) reps) in
  let median_s phase =
    Stats.median (List.filter_map (fun (p, _, s) -> if p = phase then Some s else None) reps)
  in
  let bad (phase, (r : Rep.t), s) =
    r.outcome.violations <> [] || r.outcome.digest <> digest || s > 3.0 *. median_s phase
  in
  List.iter
    (fun (phase, (r : Rep.t), _) ->
      List.iter (Printf.eprintf "%s %s: %s\n" (Inputs.name workload) phase) r.outcome.violations)
    reps;
  let good phase =
    List.filter_map (fun ((p, r, _) as x) -> if p = phase && not (bad x) then Some r else None) reps
  in
  let correct =
    reps <> []
    && List.for_all
         (fun (_, (r : Rep.t), _) -> r.outcome.violations = [] && r.outcome.digest = digest)
         reps
  in
  let metrics =
    if trace then
      let untraced = good "untraced" and traced = good "traced" in
      let n = min (List.length untraced) (List.length traced) in
      Report.per_layer ~untraced:(List.filteri (fun i _ -> i < n) untraced)
        ~traced:(List.filteri (fun i _ -> i < n) traced)
    else Report.end_to_end ~setups:(List.rev !setups) (good "untraced")
  in
  {
    workload;
    seed;
    started;
    attempted = !attempted;
    failed = !crashed + List.length (List.filter bad reps);
    correct;
    digest;
    reference = reference_digest workload ~seed;
    metrics;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let print_result r =
  let digest_note =
    match r.reference with
    | None -> "no reference for this seed"
    | Some d when d = r.digest -> "matches reference"
    | Some d -> "digest_changed (reference " ^ d ^ ")"
  in
  Printf.printf "== %s  seed %d  %d children, %d failed  digest %s (%s)\n" (Inputs.name r.workload)
    r.seed r.attempted r.failed r.digest digest_note;
  Printf.printf "  %-36s %-13s %14s %14s %14s %4s\n" "metric" "unit" "median" "q1" "q3" "n";
  List.iter
    (fun (m : Report.metric) ->
      let q1, q3 = Stats.quartiles m.samples in
      Printf.printf "  %-36s %-13s %14.6g %14.6g %14.6g %4d\n" m.name m.unit (Report.value m) q1 q3
        (List.length m.samples))
    r.metrics;
  Printf.printf "  %-36s %-13s %14.6g\n%!" "runs_failed" "fraction"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))

let to_json ~trace ~seconds r =
  let metric (m : Report.metric) =
    let q1, q3 = Stats.quartiles m.samples in
    ( m.name,
      Json.Obj
        [
          ("value", Json.Float (Report.value m));
          ("unit", Json.String m.unit);
          ("q1", Json.Float q1);
          ("q3", Json.Float q3);
          ("n", Json.Int (List.length m.samples));
        ] )
  in
  Json.Obj
    [
      ("workload", Json.String (Inputs.name r.workload));
      ("seed", Json.Int r.seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("started_unix", Json.Float r.started);
      ("digest", Json.String r.digest);
      ("reference_digest", match r.reference with Some d -> Json.String d | None -> Json.Null);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj (List.map metric r.metrics));
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage () =
  prerr_endline
    "usage: run.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--out \
     FILE]";
  exit 2

let main args =
  let workload = ref "all" and seed = ref None and seconds = ref 30.0 in
  let trace = ref false and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      if !seed = None then usage ();
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      parse rest
    | "--traced" :: rest ->
      trace := true;
      parse rest
    | "--out" :: f :: rest ->
      out := Some f;
      parse rest
    | _ -> usage ()
  in
  parse args;
  let workloads =
    if !workload = "all" then Inputs.all
    else match Inputs.of_name !workload with Some w -> [ w ] | None -> usage ()
  in
  let seed = match !seed with Some s -> s | None -> default_seed () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let results =
    List.map
      (fun w ->
        let r = measure ~trace:!trace ~seconds:!seconds ~seed w in
        print_result r;
        r)
      workloads
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          let runs = List.map (to_json ~trace:!trace ~seconds:!seconds) results in
          Json.to_channel oc (Json.Obj [ ("runs", Json.List runs) ])))
    !out;
  let metrics =
    match results with
    | [ r ] -> r.metrics
    | _ ->
      List.concat_map
        (fun r ->
          List.map
            (fun (m : Report.metric) -> { m with name = Inputs.name r.workload ^ "." ^ m.name })
            r.metrics)
        results
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  print_endline
    (Report.result_line
       ~correct:(List.for_all (fun r -> r.correct) results)
       ~attempted:(sum (fun r -> r.attempted))
       ~failed:(sum (fun r -> r.failed))
       metrics)

let () =
  match Array.to_list Sys.argv with
  | _ :: "child" :: phase :: spawned_at :: _ -> child ~phase ~spawned_at:(int_of_string spawned_at)
  | _ :: args -> main args
  | [] -> usage ()
