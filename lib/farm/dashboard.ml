(* The palette here is the validated reference instance from the design
   method this dashboard follows: categorical slot 1 (blue) for the single
   series each trajectory chart carries, the reserved status palette
   (always icon + label, never color alone) for pass/fail state, and the
   chart chrome/ink roles for everything textual.  Light and dark are both
   explicit steps of the same ramps, swapped via CSS custom properties. *)

type row = {
  id : string;
  kind : string;
  seed : int;
  key : string;
  cached : bool;
  wall_s : float option;
  report : Obs.Json.t option;
}

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let short_key k = if String.length k > 12 then String.sub k 0 12 else k

let number = function
  | Obs.Json.Int i -> Some (float_of_int i)
  | Obs.Json.Float f -> Some f
  | _ -> None

let ( >>= ) v f = Option.bind v f

let scalar report name =
  Obs.Json.member "scalars" report >>= Obs.Json.member name >>= number

let fmt_g v =
  if Float.is_integer v && Float.abs v < 1e9 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

(* ------------------------------------------------------------------ *)
(* Charts: one series per chart (categorical slot 1), thin marks, 2px
   line, >=8px hover targets, recessive grid, selective direct label on
   the last point, nearest-point tooltip via the shared script below.    *)

let chart ~cid ~title ~unit_label points =
  let buf = Buffer.create 1024 in
  let w, h = (620, 170) in
  let ml, mr, mt, mb = (52, 16, 14, 26) in
  let iw, ih = (w - ml - mr, h - mt - mb) in
  let n = List.length points in
  let values = List.map snd points in
  let vmin = List.fold_left Float.min infinity values in
  let vmax = List.fold_left Float.max neg_infinity values in
  let pad = if vmax -. vmin < 1e-12 then Float.max (Float.abs vmax) 1.0 *. 0.1 else (vmax -. vmin) *. 0.12 in
  let vmin, vmax = (vmin -. pad, vmax +. pad) in
  let x i = float_of_int ml +. (float_of_int iw *. if n <= 1 then 0.5 else float_of_int i /. float_of_int (n - 1)) in
  let y v = float_of_int mt +. (float_of_int ih *. (1.0 -. ((v -. vmin) /. (vmax -. vmin)))) in
  Buffer.add_string buf
    (Printf.sprintf "<figure class=\"chart\"><figcaption>%s <span class=\"unit\">%s</span></figcaption>\n"
       (esc title) (esc unit_label));
  Buffer.add_string buf
    (Printf.sprintf
       "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"%s\" data-chart=\"%s\">\n"
       w h w h (esc title) (esc cid));
  (* recessive grid: three hairlines with y-axis tick labels *)
  List.iter
    (fun frac ->
      let v = vmin +. ((vmax -. vmin) *. frac) in
      let yy = y v in
      Buffer.add_string buf
        (Printf.sprintf
           "<line class=\"grid\" x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\"/><text class=\"tick\" x=\"%d\" y=\"%.1f\">%s</text>\n"
           ml yy (w - mr) yy (ml - 6) (yy +. 3.5) (esc (fmt_g v))))
    [ 0.08; 0.5; 0.92 ];
  (* the series: 2px line + round data points *)
  if n > 1 then begin
    let pts =
      String.concat " "
        (List.mapi (fun i (_, v) -> Printf.sprintf "%.1f,%.1f" (x i) (y v)) points)
    in
    Buffer.add_string buf
      (Printf.sprintf "<polyline class=\"series\" fill=\"none\" points=\"%s\"/>\n" pts)
  end;
  List.iteri
    (fun i (label, v) ->
      Buffer.add_string buf
        (Printf.sprintf
           "<circle class=\"pt\" cx=\"%.1f\" cy=\"%.1f\" r=\"4\" data-label=\"%s\" data-value=\"%s\"/>\n"
           (x i) (y v) (esc label)
           (esc (String.trim (fmt_g v ^ " " ^ unit_label)))))
    points;
  (* selective direct label: last point only *)
  (match List.rev points with
  | (_, v) :: _ when n > 0 ->
    let i = n - 1 in
    Buffer.add_string buf
      (Printf.sprintf "<text class=\"dlabel\" x=\"%.1f\" y=\"%.1f\">%s</text>\n"
         (Float.min (x i) (float_of_int (w - mr - 30)))
         (Float.max (y v -. 8.0) 11.0)
         (esc (fmt_g v)))
  | _ -> ());
  (* x labels: first and last run *)
  (match (points, List.rev points) with
  | (first, _) :: _, (last, _) :: _ ->
    Buffer.add_string buf
      (Printf.sprintf "<text class=\"tick xtick\" x=\"%d\" y=\"%d\">%s</text>\n" ml (h - 8)
         (esc first));
    if n > 1 then
      Buffer.add_string buf
        (Printf.sprintf
           "<text class=\"tick xtick end\" x=\"%d\" y=\"%d\">%s</text>\n" (w - mr) (h - 8)
           (esc last))
  | _ -> ());
  Buffer.add_string buf "</svg></figure>\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

let stat_tile ~label ~value ~sub =
  Printf.sprintf
    "<div class=\"tile\"><div class=\"value\">%s</div><div class=\"label\">%s</div><div class=\"sub\">%s</div></div>\n"
    (esc value) (esc label) (esc sub)

let status_chip ~ok ~label =
  Printf.sprintf "<span class=\"chip %s\">%s %s</span>"
    (if ok then "good" else "critical")
    (if ok then "&#10003;" else "&#10007;")
    (esc label)

let css =
  {css|
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink);
  --page: #f9f9f7; --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e;
  --muted: #898781; --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --good: #0ca30c; --warning: #fab219; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  body {
    --page: #0d0d0d; --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; color: var(--ink); }
.meta { color: var(--ink-2); font-size: 13px; margin-bottom: 18px; }
.meta code { background: var(--surface); border: 1px solid var(--border);
  border-radius: 4px; padding: 1px 5px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 120px; }
.tile .value { font-size: 26px; font-weight: 600; }
.tile .label { font-size: 12px; color: var(--ink-2); margin-top: 2px; }
.tile .sub { font-size: 11px; color: var(--muted); margin-top: 2px; }
.chip { display: inline-block; border-radius: 5px; padding: 2px 8px;
  font-size: 12px; border: 1px solid var(--border); background: var(--surface); }
.chip.good { color: var(--good); }
.chip.critical { color: var(--critical); }
.chip.warning { color: var(--warning); }
.fuzz-grid { display: flex; flex-wrap: wrap; gap: 6px; }
.swatch { display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 4px; }
.charts { display: flex; flex-wrap: wrap; gap: 18px; }
.chart { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 12px; margin: 0; }
.chart figcaption { font-size: 13px; color: var(--ink); margin-bottom: 4px; }
.chart .unit { color: var(--muted); font-size: 11px; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .series { stroke: var(--series-1); stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round; }
svg .pt { fill: var(--series-1); stroke: var(--surface); stroke-width: 2; }
svg .pt:hover { r: 6; }
svg .tick { fill: var(--muted); font-size: 10px; text-anchor: end;
  font-variant-numeric: tabular-nums; }
svg .xtick { text-anchor: start; }
svg .xtick.end { text-anchor: end; }
svg .dlabel { fill: var(--ink-2); font-size: 11px;
  font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; width: 100%; background: var(--surface);
  border: 1px solid var(--border); border-radius: 8px; font-size: 13px; }
th, td { text-align: left; padding: 6px 10px; border-top: 1px solid var(--grid); }
th { color: var(--ink-2); font-weight: 600; border-top: none; }
td.num { font-variant-numeric: tabular-nums; text-align: right; }
td code, .mono { font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
  font-size: 12px; color: var(--ink-2); }
#tt { position: absolute; display: none; pointer-events: none;
  background: var(--surface); color: var(--ink); border: 1px solid var(--border);
  border-radius: 6px; padding: 5px 8px; font-size: 12px;
  box-shadow: 0 2px 8px rgba(0,0,0,0.12); z-index: 10; }
#tt .l { color: var(--ink-2); }
|css}

let tooltip_js =
  {js|
const tt = document.getElementById('tt');
document.querySelectorAll('.pt').forEach(pt => {
  pt.addEventListener('mouseenter', () => {
    tt.innerHTML = '<span class="l">' + pt.dataset.label + '</span><br>' + pt.dataset.value;
    tt.style.display = 'block';
    const r = pt.getBoundingClientRect();
    tt.style.left = (window.scrollX + r.left + 10) + 'px';
    tt.style.top = (window.scrollY + r.top - 34) + 'px';
  });
  pt.addEventListener('mouseleave', () => { tt.style.display = 'none'; });
});
|js}

(* Categorical palette for the attribution stacked bars: one fixed slot
   per stall state, so the same state keeps the same color across
   scenarios and runs.  Enforced-RWND gets categorical slot 1 (blue) —
   it is the series the whole dashboard exists to show. *)
let attrib_states =
  [
    ("handshake", "#898781");
    ("app_limited", "#b5a642");
    ("cwnd_limited", "#d03b3b");
    ("rwnd_limited_native", "#e08b3c");
    ("rwnd_limited_enforced", "#2a78d6");
    ("rto_recovery", "#8d4bd0");
    ("in_flight", "#0ca30c");
  ]

let attrib_bar ~aria fracs =
  let total = List.fold_left (fun acc (_, _, v) -> acc +. v) 0.0 fracs in
  if total <= 0.0 then "<span class=\"mono\">&mdash;</span>"
  else begin
    let bw = 420.0 and bh = 16 in
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf
         "<svg viewBox=\"0 0 420 %d\" width=\"420\" height=\"%d\" role=\"img\" aria-label=\"%s\">"
         bh bh (esc aria));
    let x = ref 0.0 in
    List.iter
      (fun (state, color, v) ->
        let w = bw *. v /. total in
        if w > 0.25 then
          Buffer.add_string buf
            (Printf.sprintf
               "<rect x=\"%.1f\" y=\"0\" width=\"%.1f\" height=\"%d\" fill=\"%s\"><title>%s \
                %.1f%%</title></rect>"
               !x w bh color (esc state)
               (100.0 *. v /. total));
        x := !x +. w)
      fracs;
    Buffer.add_string buf "</svg>";
    Buffer.contents buf
  end

let history_series history =
  (* label each run by its short fingerprint, in recorded (oldest-first)
     order; one chart per scalar key, in first-appearance order *)
  let runs =
    List.map
      (fun run ->
        let label =
          match Obs.Json.member "fingerprint" run with
          | Some (Obs.Json.String f) -> short_key f
          | _ -> "?"
        in
        let scalars =
          match Obs.Json.member "scalars" run with
          | Some (Obs.Json.Obj fields) -> fields
          | _ -> []
        in
        (label, scalars))
      history
  in
  let keys =
    List.fold_left
      (fun acc (_, scalars) ->
        List.fold_left
          (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
          acc scalars)
      [] runs
  in
  List.map
    (fun key ->
      ( key,
        List.filter_map
          (fun (label, scalars) -> List.assoc_opt key scalars >>= number >>= fun v -> Some (label, v))
          runs ))
    keys

let render ~fingerprint ~rows ~history ~gate =
  let buf = Buffer.create 16384 in
  let add = Buffer.add_string buf in
  add "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n";
  add "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n";
  add "<title>AC/DC experiment farm</title>\n<style>";
  add css;
  add "</style>\n</head>\n<body>\n<div id=\"tt\"></div>\n";
  add "<h1>AC/DC experiment farm</h1>\n";
  add
    (Printf.sprintf
       "<div class=\"meta\">code fingerprint <code>%s</code> &middot; %s</div>\n"
       (esc (short_key fingerprint))
       (esc (Gate.describe gate)));
  (* ---- headline tiles ---- *)
  let cached = List.filter (fun r -> r.cached) rows in
  let figures = List.filter (fun r -> r.kind = "figure") rows in
  let fuzz = List.filter (fun r -> r.kind = "fuzz") rows in
  let fuzz_bad =
    List.filter
      (fun r ->
        match r.report >>= fun rep -> scalar rep "violations" with
        | Some v -> v > 0.0
        | None -> not r.cached)
      fuzz
  in
  let wall_total =
    List.fold_left (fun acc r -> acc +. Option.value r.wall_s ~default:0.0) 0.0 rows
  in
  add "<div class=\"tiles\">\n";
  add
    (stat_tile ~label:"scenarios cached"
       ~value:(Printf.sprintf "%d/%d" (List.length cached) (List.length rows))
       ~sub:"under current fingerprint");
  add
    (stat_tile ~label:"figures" ~value:(string_of_int (List.length figures)) ~sub:"paper + extensions");
  add
    (stat_tile ~label:"fuzz scenarios"
       ~value:(string_of_int (List.length fuzz))
       ~sub:
         (if fuzz_bad = [] then "all invariants held"
          else Printf.sprintf "%d failing" (List.length fuzz_bad)));
  add
    (stat_tile ~label:"cached compute" ~value:(Printf.sprintf "%.0f s" wall_total)
       ~sub:"wall time represented by cache");
  add
    (stat_tile ~label:"trajectory points"
       ~value:(string_of_int (List.length history))
       ~sub:"one per code fingerprint");
  add "</div>\n";
  (* ---- fuzz status ---- *)
  if fuzz <> [] then begin
    add "<h2>Fuzz status</h2>\n<div class=\"fuzz-grid\">\n";
    List.iter
      (fun r ->
        let ok =
          r.cached
          &&
          match r.report >>= fun rep -> scalar rep "violations" with
          | Some v -> v = 0.0
          | None -> true
        in
        let label = if r.cached then r.id else r.id ^ " (not run)" in
        add (status_chip ~ok ~label);
        add "\n")
      fuzz;
    add "</div>\n"
  end;
  (* ---- bench trajectory ---- *)
  let series = history_series history in
  let series = List.filter (fun (_, pts) -> pts <> []) series in
  if series <> [] then begin
    add "<h2>Bench trajectory across runs</h2>\n<div class=\"charts\">\n";
    let unit_of = function
      | "wall_s_total" -> "s"
      | "smoke_goodput_gbps" -> "Gbps"
      | "smoke_probe_rtt_ms_p50" -> "ms"
      | _ -> ""
    in
    List.iter
      (fun (key, pts) -> add (chart ~cid:key ~title:key ~unit_label:(unit_of key) pts))
      series;
    add "</div>\n"
  end;
  (* ---- profile panel: scenarios whose report carries a profile section *)
  let profiled =
    List.filter_map
      (fun r ->
        match r.report >>= Obs.Json.member "profile" with
        | Some p -> (
          match Obs.Json.member "sites" p with
          | Some (Obs.Json.Obj sites) -> Some (r, p, sites)
          | _ -> None)
        | None -> None)
      rows
  in
  if profiled <> [] then begin
    add "<h2>Profile: where simulated runs spend their time</h2>\n<table>\n";
    add
      "<tr><th>scenario</th><th>top layers by time</th><th>top layers by \
       allocation</th><th>events/s</th><th>max pending</th></tr>\n";
    List.iter
      (fun (r, p, sites) ->
        let field name site = Option.value (Obs.Json.member name site >>= number) ~default:0.0 in
        let top3 metric =
          let weighted =
            List.filter_map
              (fun (name, site) ->
                let v = field metric site in
                if v > 0.0 then Some (name, v) else None)
              sites
          in
          let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 weighted in
          List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) weighted
          |> List.filteri (fun i _ -> i < 3)
          |> List.map (fun (name, v) ->
                 Printf.sprintf "%s&nbsp;%.0f%%" (esc name) (100.0 *. v /. Float.max total 1e-9))
          |> String.concat ", "
        in
        let gauge name =
          match Obs.Json.member "gauges" p >>= Obs.Json.member name >>= number with
          | Some v -> fmt_g v
          | None -> "&mdash;"
        in
        add
          (Printf.sprintf
             "<tr><td>%s</td><td class=\"mono\">%s</td><td class=\"mono\">%s</td><td \
              class=\"num\">%s</td><td class=\"num\">%s</td></tr>\n"
             (esc r.id) (top3 "total_ns") (top3 "minor_words") (gauge "events_per_sec")
             (gauge "pending_max")))
      profiled;
    add "</table>\n"
  end;
  (* ---- hop latency panel: scenarios whose report carries an INT section *)
  let with_int =
    List.filter_map
      (fun r ->
        match r.report >>= Obs.Json.member "int" with
        | Some section -> Some (r, section)
        | None -> None)
      rows
  in
  if with_int <> [] then begin
    add "<h2>Hop latency: in-band telemetry</h2>\n<table>\n";
    add
      "<tr><th>scenario</th><th>stamped pkts</th><th>hop samples</th><th>path sojourn p50 \
       (&micro;s)</th><th>p99 (&micro;s)</th><th>max (&micro;s)</th><th>worst hop (by p99 \
       sojourn)</th></tr>\n";
    List.iter
      (fun (r, section) ->
        let int_field name = Option.value (Obs.Json.member name section >>= number) ~default:0.0 in
        let path name =
          match Obs.Json.member "path_sojourn_ns" section >>= Obs.Json.member name >>= number with
          | Some v -> Printf.sprintf "%.1f" (v /. 1000.0)
          | None -> "&mdash;"
        in
        let worst =
          match Obs.Json.member "per_hop" section with
          | Some (Obs.Json.Obj hops) ->
            List.filter_map
              (fun (label, hop) ->
                Obs.Json.member "sojourn_ns" hop >>= Obs.Json.member "p99" >>= number
                >>= fun p99 -> Some (label, p99))
              hops
            |> List.fold_left
                 (fun acc (label, p99) ->
                   match acc with
                   | Some (_, best) when best >= p99 -> acc
                   | _ -> Some (label, p99))
                 None
            |> Option.map (fun (label, p99) ->
                   Printf.sprintf "<code>%s</code> %.1f&nbsp;&micro;s" (esc label)
                     (p99 /. 1000.0))
            |> Option.value ~default:"&mdash;"
          | _ -> "&mdash;"
        in
        add
          (Printf.sprintf
             "<tr><td>%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td \
              class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td>%s</td></tr>\n"
             (esc r.id)
             (fmt_g (int_field "packets"))
             (fmt_g (int_field "hops"))
             (path "p50") (path "p99") (path "max") worst))
      with_int;
    add "</table>\n"
  end;
  (* ---- attribution panel: scenarios whose report says why flows were slow *)
  let with_attrib =
    List.filter_map
      (fun r ->
        match r.report >>= Obs.Json.member "fct_attrib" with
        | Some section -> Some (r, section)
        | None -> None)
      rows
  in
  if with_attrib <> [] then begin
    add "<h2>Why flows were slow: causal FCT attribution</h2>\n";
    add "<div class=\"meta\">";
    List.iter
      (fun (state, color) ->
        add
          (Printf.sprintf
             "<span class=\"swatch\" style=\"background:%s\"></span>%s&nbsp;&nbsp; " color
             (esc state)))
      attrib_states;
    add "</div>\n<table>\n";
    add "<tr><th>scenario</th><th>flows</th><th>completed</th><th>time share per stall state</th></tr>\n";
    List.iter
      (fun (r, section) ->
        let count name =
          match Obs.Json.member name section >>= number with
          | Some v -> fmt_g v
          | None -> "&mdash;"
        in
        (* Sum each state's nanoseconds across every per-flow row (live
           rows included), so saturating benchmark flows still show where
           their lifetime went. *)
        let sums = Hashtbl.create 8 in
        (match Obs.Json.member "rows" section with
        | Some (Obs.Json.List flow_rows) ->
          List.iter
            (fun row ->
              List.iter
                (fun (state, _) ->
                  match Obs.Json.member (state ^ "_ns") row >>= number with
                  | Some v ->
                    Hashtbl.replace sums state
                      (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums state))
                  | None -> ())
                attrib_states)
            flow_rows
        | _ -> ());
        let fracs =
          List.map
            (fun (state, color) ->
              (state, color, Option.value ~default:0.0 (Hashtbl.find_opt sums state)))
            attrib_states
        in
        add
          (Printf.sprintf
             "<tr><td>%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td>%s</td></tr>\n"
             (esc r.id) (count "flows") (count "completed")
             (attrib_bar ~aria:("FCT attribution for " ^ r.id) fracs)))
      with_attrib;
    add "</table>\n"
  end;
  (* ---- per-scenario provenance table ---- *)
  add "<h2>Scenario corpus</h2>\n<table>\n";
  add
    "<tr><th>id</th><th>kind</th><th>seed</th><th>goodput (Gbps)</th><th>wall</th><th>cache key</th><th>status</th></tr>\n";
  List.iter
    (fun r ->
      let goodput =
        match r.report >>= fun rep -> scalar rep "aggregate_goodput_gbps" with
        | Some v -> fmt_g v
        | None -> "&mdash;"
      in
      let wall =
        match r.wall_s with Some w -> Printf.sprintf "%.1f s" w | None -> "&mdash;"
      in
      add
        (Printf.sprintf
           "<tr><td>%s</td><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td><code>%s</code></td><td>%s</td></tr>\n"
           (esc r.id) (esc r.kind) r.seed goodput wall
           (esc (short_key r.key))
           (status_chip ~ok:r.cached ~label:(if r.cached then "cached" else "missing"))))
    rows;
  add "</table>\n";
  add "<script>";
  add tooltip_js;
  add "</script>\n</body>\n</html>\n";
  Buffer.contents buf

let write ~path ~fingerprint ~rows ~history ~gate =
  let oc = open_out path in
  output_string oc (render ~fingerprint ~rows ~history ~gate);
  close_out oc
