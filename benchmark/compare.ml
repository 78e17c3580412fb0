(* Compare two sets of ledger results, workload by workload and metric by
   metric.

     compare.exe [--spec BENCHMARK.json] PARENT_DIR CHANGE_DIR

   Each directory holds result files written by [run.exe --out] (searched
   recursively).  Runs of the two sets are paired by workload and seed.
   For every end-to-end metric of the spec, a pairing is

   - improved: at least 10 pairs, run alternately (each side first in
     about half the pairs), the change better in at least 9 of 10 pairs,
     and the medians further apart than the parent's quartile distance;
   - regressed: the change's median worse than the parent's by more than
     the metric's bound, with the parent's spread within that bound (or
     every change run worse than every parent run);
   - unresolved: the parent's spread is wider than the bound, or too few
     pairs to tell;
   - unchanged otherwise.

   A change with more failed repetitions than its parent regresses too.
   The exit code is 1 if anything regressed. *)

open Ledger
module Json = Obs.Json

type run = {
  workload : string;
  seed : int;
  started : float;
  failed : int;
  digest : string;
  values : (string * float) list;
}

let rec files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f -> files (Filename.concat path f))
  else if Filename.check_suffix path ".json" then [ path ]
  else []

let read_json path =
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

(* Untraced runs only: traced runs carry per-layer metrics. *)
let runs dir =
  files dir
  |> List.concat_map (fun path ->
         match Json.member "runs" (read_json path) with
         | Some (Json.List runs) -> runs
         | _ -> [])
  |> List.filter (fun r -> Json.member "trace" r = Some (Json.Bool false))
  |> List.map (fun r ->
         let values =
           match Json.member "metrics" r with
           | Some (Json.Obj ms) -> List.map (fun (name, m) -> (name, Rep.float m "value")) ms
           | _ -> []
         in
         {
           workload = Rep.string r "workload";
           seed = Rep.int r "seed";
           started = Rep.float r "started_unix";
           failed = Rep.int r "failed";
           digest = Rep.string r "digest";
           values;
         })

type spec = { name : string; lower_is_better : bool; bound : float }

let spec path =
  match Json.member "end_to_end" (read_json path) with
  | Some (Json.List ms) ->
    List.map
      (fun m ->
        {
          name = Rep.string m "name";
          lower_is_better = Rep.string m "better" = "lower";
          bound = Rep.float m "bound";
        })
      ms
  | _ -> failwith (path ^ ": no end_to_end metrics")

(* Pair the runs of one workload by seed, in start order within a seed. *)
let pairs parent change =
  let by_seed runs seed =
    List.filter (fun r -> r.seed = seed) runs
    |> List.sort (fun a b -> compare a.started b.started)
  in
  let seeds = List.sort_uniq compare (List.map (fun r -> r.seed) parent) in
  List.concat_map
    (fun seed ->
      let a = by_seed parent seed and b = by_seed change seed in
      let n = min (List.length a) (List.length b) in
      List.combine (List.filteri (fun i _ -> i < n) a) (List.filteri (fun i _ -> i < n) b))
    seeds

let verdict m ps =
  let value r = List.assoc m.name r.values in
  let a = List.map (fun (p, _) -> value p) ps and b = List.map (fun (_, c) -> value c) ps in
  let ma = Stats.median a and mb = Stats.median b in
  let q1, q3 = Stats.quartiles a in
  let better x y = if m.lower_is_better then x < y else x > y in
  let n = List.length ps in
  let wins = List.length (List.filter (fun (p, c) -> better (value c) (value p)) ps) in
  let change_first = List.length (List.filter (fun (p, c) -> c.started < p.started) ps) in
  let alternated = abs ((2 * change_first) - n) <= max 1 (n / 5) in
  let worse = (if m.lower_is_better then mb -. ma else ma -. mb) /. Float.abs ma in
  let spread = (q3 -. q1) /. Float.abs ma in
  let all_worse = List.for_all (fun x -> List.for_all (fun y -> better y x) a) b in
  let all_better = List.for_all (fun x -> List.for_all (fun y -> better x y) a) b in
  let v =
    if n = 0 then "unresolved"
    else if n >= 10 && 10 * wins >= 9 * n && Float.abs (mb -. ma) > q3 -. q1 && alternated
    then "improved"
    else if worse > m.bound && (spread <= m.bound || all_worse) then "regressed"
    else if n < 10 || (spread > m.bound && not all_better) then "unresolved"
    else "unchanged"
  in
  (v, ma, mb, spread, wins, n)

let main spec_path parent_dir change_dir =
  let spec = spec spec_path in
  let parent = runs parent_dir and change = runs change_dir in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) parent) in
  let regressed = ref false in
  Printf.printf "%-24s %-18s %14s %14s %9s %8s %7s  %s\n" "workload" "metric" "parent" "change"
    "change%" "spread" "wins" "verdict";
  List.iter
    (fun w ->
      let of_w = List.filter (fun r -> r.workload = w) in
      let ps = pairs (of_w parent) (of_w change) in
      List.iter
        (fun m ->
          let v, ma, mb, spread, wins, n = verdict m ps in
          if v = "regressed" then regressed := true;
          Printf.printf "%-24s %-18s %14.6g %14.6g %+8.2f%% %7.2f%% %3d/%-3d  %s\n" w m.name ma mb
            (100.0 *. (mb -. ma) /. Float.abs ma)
            (100.0 *. spread) wins n v)
        spec;
      let failed side = List.fold_left (fun acc (p, c) -> acc + (side (p, c)).failed) 0 ps in
      if failed snd > failed fst then begin
        regressed := true;
        Printf.printf "%-24s %-18s %14d %14d  regressed\n" w "runs_failed" (failed fst) (failed snd)
      end;
      let changed = List.filter (fun (p, c) -> p.digest <> c.digest) ps in
      if changed <> [] then
        Printf.printf "%-24s digest changed on %d of %d seeds\n" w (List.length changed)
          (List.length ps))
    workloads;
  exit (if !regressed then 1 else 0)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--spec"; spec; a; b ] -> main spec a b
  | [ a; b ] -> main "BENCHMARK.json" a b
  | _ ->
    prerr_endline "usage: compare.exe [--spec BENCHMARK.json] PARENT_DIR CHANGE_DIR";
    exit 2
