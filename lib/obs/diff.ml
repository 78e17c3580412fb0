type direction = Higher_is_worse | Lower_is_worse | Drift | Ignore

type rule = { key : string; tol : float; dir : direction }

let default_rules =
  [
    (* Microbenchmark and simulator-throughput fields: these carry real
       wall-clock noise, so the tolerances are loose; CI loosens them
       further on shared runners via --tol. *)
    { key = "ns_per_op"; tol = 0.15; dir = Higher_is_worse };
    { key = "events_per_sec"; tol = 0.15; dir = Lower_is_worse };
    { key = "wall_s"; tol = 0.50; dir = Higher_is_worse };
    (* Latency-style percentile summaries from Report.add_samples. *)
    { key = "p50"; tol = 0.25; dir = Higher_is_worse };
    { key = "p95"; tol = 0.25; dir = Higher_is_worse };
    { key = "p99"; tol = 0.25; dir = Higher_is_worse };
    { key = "p99.9"; tol = 0.35; dir = Higher_is_worse };
    { key = "mean"; tol = 0.25; dir = Higher_is_worse };
    { key = "max"; tol = 0.50; dir = Higher_is_worse };
    (* Throughput scalars the harness reports. *)
    { key = "goodput_gbps"; tol = 0.10; dir = Lower_is_worse };
    { key = "aggregate_goodput_gbps"; tol = 0.10; dir = Lower_is_worse };
    (* Profile section: per-site wall-clock accumulators are pure noise
       across machines — never compared.  Counts and allocation words are
       deterministic and fall through to the Drift default. *)
    { key = "total_ns"; tol = 0.0; dir = Ignore };
    { key = "max_ns"; tol = 0.0; dir = Ignore };
    (* Hot-path cost baselines (wall-noisy; direction-aware). *)
    { key = "ns_per_event"; tol = 0.35; dir = Higher_is_worse };
    { key = "ns_per_packet"; tol = 0.35; dir = Higher_is_worse };
    { key = "minor_words_per_packet"; tol = 0.10; dir = Higher_is_worse };
    (* The absolute event-engine row from the bench smoke run: wheel churn
       at 4096 pending events. *)
    { key = "sched_wheel_ns_per_op"; tol = 0.60; dir = Higher_is_worse };
  ]

type severity = Regression | Warning | Info

type finding = { path : string; severity : severity; message : string }

type outcome = { findings : finding list; compared : int; regressions : int; warnings : int }

let leaf_name path =
  match String.rindex_opt path '.' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let number = function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None

(* Pair list elements by "id"/"name" when both sides carry one, so a
   reordered scenario list still lines up. *)
let element_key json =
  match json with
  | Json.Obj _ -> (
    match (Json.member "id" json, Json.member "name" json) with
    | Some (Json.String s), _ -> Some s
    | _, Some (Json.String s) -> Some s
    | _ -> None)
  | _ -> None

let diff ?(rules = default_rules) ?(default_tol = 0.15) ~base ~current () =
  let findings = ref [] in
  let compared = ref 0 in
  let regressions = ref 0 in
  let warnings = ref 0 in
  let add path severity message =
    (match severity with
    | Regression -> incr regressions
    | Warning -> incr warnings
    | Info -> ());
    findings := { path; severity; message } :: !findings
  in
  let rule_for path =
    let name = leaf_name path in
    match List.find_opt (fun r -> String.equal r.key name) rules with
    | Some r -> r
    | None -> { key = name; tol = default_tol; dir = Drift }
  in
  let numeric path b c =
    let rule = rule_for path in
    if rule.dir <> Ignore then begin
      incr compared;
      let delta = (c -. b) /. Float.max (Float.abs b) 1e-12 in
      let describe verb =
        Printf.sprintf "%s %+.1f%% (%.6g -> %.6g, tol %.0f%%)" verb (100.0 *. delta) b c
          (100.0 *. rule.tol)
      in
      if b = 0.0 && c = 0.0 then ()
      else
        match rule.dir with
        | Ignore -> ()
        | Higher_is_worse when delta > rule.tol -> add path Regression (describe "regressed")
        | Lower_is_worse when delta < -.rule.tol -> add path Regression (describe "regressed")
        | Higher_is_worse when delta < -.rule.tol -> add path Info (describe "improved")
        | Lower_is_worse when delta > rule.tol -> add path Info (describe "improved")
        | Drift when Float.abs delta > rule.tol -> add path Warning (describe "drifted")
        | Higher_is_worse | Lower_is_worse | Drift -> ()
    end
  in
  let join path key = if path = "" then key else path ^ "." ^ key in
  let rec walk path b c =
    match (number b, number c) with
    | Some nb, Some nc -> numeric path nb nc
    | _ -> (
      match (b, c) with
      | Json.Obj bf, Json.Obj cf ->
        List.iter
          (fun (k, bv) ->
            match List.assoc_opt k cf with
            | Some cv -> walk (join path k) bv cv
            (* Symmetric with "new in current": retiring or renaming a
               report key is a schema evolution, not a regression — it
               must not hard-fail the CI gate. *)
            | None -> add (join path k) Info "missing from current")
          bf;
        List.iter
          (fun (k, _) ->
            if List.assoc_opt k bf = None then add (join path k) Info "new in current")
          cf
      | Json.List bl, Json.List cl ->
        let keyed l = List.filter_map (fun e -> element_key e |> Option.map (fun k -> (k, e))) l in
        let bk = keyed bl and ck = keyed cl in
        if List.length bk = List.length bl && List.length ck = List.length cl then begin
          List.iter
            (fun (k, bv) ->
              let sub = Printf.sprintf "%s[%s]" path k in
              match List.assoc_opt k ck with
              | Some cv -> walk sub bv cv
              | None -> add sub Info "missing from current")
            bk;
          List.iter
            (fun (k, _) ->
              if List.assoc_opt k bk = None then
                add (Printf.sprintf "%s[%s]" path k) Info "new in current")
            ck
        end
        else begin
          if List.length bl <> List.length cl then
            add path Warning
              (Printf.sprintf "list length changed (%d -> %d)" (List.length bl)
                 (List.length cl));
          List.iteri
            (fun i bv ->
              match List.nth_opt cl i with
              | Some cv -> walk (Printf.sprintf "%s[%d]" path i) bv cv
              | None -> ())
            bl
        end
      | Json.String bs, Json.String cs ->
        if not (String.equal bs cs) then
          add path Warning (Printf.sprintf "changed (%S -> %S)" bs cs)
      | Json.Bool bb, Json.Bool cb ->
        if bb <> cb then add path Warning (Printf.sprintf "changed (%b -> %b)" bb cb)
      | Json.Null, Json.Null -> ()
      | Json.Null, _ ->
        (* A section the baseline binary didn't emit (e.g. [metrics] or
           [profile] before they existed): informational, like a new key. *)
        add path Info "new in current"
      | _ -> add path Warning "type changed")
  in
  walk "" base current;
  {
    findings = List.rev !findings;
    compared = !compared;
    regressions = !regressions;
    warnings = !warnings;
  }

let parse_rule s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "%S: expected key=tolerance" s)
  | Some i -> (
    let key = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    let tol_s, dir_s =
      match String.index_opt rest ':' with
      | None -> (rest, None)
      | Some j ->
        (String.sub rest 0 j, Some (String.sub rest (j + 1) (String.length rest - j - 1)))
    in
    match float_of_string_opt tol_s with
    | None -> Error (Printf.sprintf "%S: tolerance %S is not a number" s tol_s)
    | Some tol -> (
      let dir =
        match dir_s with
        | None -> (
          (* Keep the built-in direction for known keys; Drift otherwise. *)
          match List.find_opt (fun r -> String.equal r.key key) default_rules with
          | Some r -> Ok r.dir
          | None -> Ok Drift)
        | Some "higher" -> Ok Higher_is_worse
        | Some "lower" -> Ok Lower_is_worse
        | Some "drift" -> Ok Drift
        | Some "ignore" -> Ok Ignore
        | Some d -> Error (Printf.sprintf "%S: unknown direction %S" s d)
      in
      match dir with Error _ as e -> e | Ok dir -> Ok { key; tol; dir }))

let pp_outcome fmt outcome =
  let by_severity sev = List.filter (fun f -> f.severity = sev) outcome.findings in
  let section label = function
    | [] -> ()
    | fs ->
      Format.fprintf fmt "%s:@." label;
      List.iter (fun f -> Format.fprintf fmt "  %-48s %s@." f.path f.message) fs
  in
  section "REGRESSIONS" (by_severity Regression);
  section "warnings" (by_severity Warning);
  section "info" (by_severity Info);
  Format.fprintf fmt "%d numeric field(s) compared, %d regression(s), %d warning(s)@."
    outcome.compared outcome.regressions outcome.warnings
