module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns

type channel = {
  ch_name : string;
  ch_unit : string;
  budget : int;
  mutable times : int array;
  mutable values : float array;
  mutable n : int;
  mutable stride : int;  (* accept one offered point per [stride]; power of two *)
  mutable offered : int;
  mutable last_t : Time_ns.t;
  mutable last_v : float;
  mutable has_last : bool;
}

type probe_handle = { mutable active : bool }

type t = {
  engine : Engine.t;
  default_budget : int;
  mutable chans : channel list; (* reverse registration order *)
  mutable probes : probe_handle list;
}

let create ?(default_budget = 8192) engine =
  let default_budget = Stdlib.max 16 default_budget in
  let default_budget = if default_budget land 1 = 1 then default_budget + 1 else default_budget in
  { engine; default_budget; chans = []; probes = [] }

let engine t = t.engine

let name ch = ch.ch_name
let unit_label ch = ch.ch_unit
let length ch = ch.n
let recorded ch = ch.offered
let stride ch = ch.stride
let last ch = if ch.has_last then Some (ch.last_t, ch.last_v) else None

let find t name = List.find_opt (fun ch -> String.equal ch.ch_name name) t.chans

let channel t ?budget ?(unit_label = "") name =
  match find t name with
  | Some ch -> ch
  | None ->
    let budget =
      match budget with
      | None -> t.default_budget
      | Some b ->
        let b = Stdlib.max 16 b in
        if b land 1 = 1 then b + 1 else b
    in
    let ch =
      {
        ch_name = name;
        ch_unit = unit_label;
        budget;
        times = [||];
        values = [||];
        n = 0;
        stride = 1;
        offered = 0;
        last_t = Time_ns.zero;
        last_v = 0.0;
        has_last = false;
      }
    in
    t.chans <- ch :: t.chans;
    ch

(* Drop every other stored point (keeping index 0) and double the
   acceptance stride.  Stored points sit at offered indices
   {0, s, 2s, ...}; keeping the even stored indices leaves multiples of
   2s, and because the budget is even the next accepted offered index
   (budget * s) is itself a multiple of 2s — the kept grid stays uniform. *)
let decimate ch =
  let kept = (ch.n + 1) / 2 in
  for i = 1 to kept - 1 do
    ch.times.(i) <- ch.times.(2 * i);
    ch.values.(i) <- ch.values.(2 * i)
  done;
  ch.n <- kept;
  ch.stride <- 2 * ch.stride

let record ch ~now v =
  if ch.has_last && now < ch.last_t then
    invalid_arg
      (Format.asprintf "Timeseries.record %s: time %a before last point %a" ch.ch_name Time_ns.pp
         now Time_ns.pp ch.last_t);
  ch.last_t <- now;
  ch.last_v <- v;
  ch.has_last <- true;
  if ch.offered land (ch.stride - 1) = 0 then begin
    if ch.n = ch.budget then decimate ch;
    if ch.n = Array.length ch.times then begin
      let cap = Stdlib.min ch.budget (Stdlib.max 64 (2 * ch.n)) in
      let times = Array.make cap 0 and values = Array.make cap 0.0 in
      Array.blit ch.times 0 times 0 ch.n;
      Array.blit ch.values 0 values 0 ch.n;
      ch.times <- times;
      ch.values <- values
    end;
    ch.times.(ch.n) <- now;
    ch.values.(ch.n) <- v;
    ch.n <- ch.n + 1
  end;
  ch.offered <- ch.offered + 1

let points ch =
  let stored = List.init ch.n (fun i -> (ch.times.(i), ch.values.(i))) in
  if ch.has_last && (ch.n = 0 || ch.last_t > ch.times.(ch.n - 1)) then
    stored @ [ (ch.last_t, ch.last_v) ]
  else stored

let binned_rate ch ~bin ~until =
  if bin <= 0 then invalid_arg "Timeseries.binned_rate: bin must be positive";
  let pts = Array.of_list (points ch) in
  (* Last cumulative value strictly before [time]; 0 before the first
     point.  Strict, so an increment recorded exactly at a bin edge t is
     attributed to bin [t / bin] — the same convention as the exact
     per-increment [windowed_rate] that test/test_report.ml holds this
     function to. *)
  let level_at =
    let cursor = ref 0 in
    fun time ->
      while !cursor < Array.length pts && fst pts.(!cursor) < time do
        incr cursor
      done;
      if !cursor = 0 then 0.0 else snd pts.(!cursor - 1)
  in
  let bins = ((until + bin - 1) / bin) + 1 in
  let secs = Time_ns.to_sec bin in
  List.init bins (fun i ->
      let lo = level_at (i * bin) in
      let hi = level_at ((i + 1) * bin) in
      (Time_ns.to_sec ((i + 1) * bin), (hi -. lo) *. 8.0 /. secs /. 1e9))

let channels t = List.rev t.chans

let probe t ?budget ?unit_label ~name ~interval ?until f =
  if interval <= 0 then invalid_arg "Timeseries.probe: interval must be positive";
  let ch = channel t ?budget ?unit_label name in
  let handle = { active = true } in
  t.probes <- handle :: t.probes;
  let rec tick () =
    if handle.active then begin
      let now = Engine.now t.engine in
      match until with
      | Some u when now > u -> handle.active <- false
      | _ ->
        (match f () with Some v -> record ch ~now v | None -> ());
        Engine.schedule_after t.engine ~delay:interval tick
    end
  in
  Engine.schedule_after t.engine ~delay:Time_ns.zero tick;
  ch

let stop t = List.iter (fun p -> p.active <- false) t.probes

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let float_repr v =
  if Float.is_finite v then Printf.sprintf "%.12g" v
  else if Float.is_nan v then "nan"
  else if v > 0.0 then "inf"
  else "-inf"

let to_csv ch =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "# channel %s unit %s recorded %d stride %d\n" ch.ch_name
       (if ch.ch_unit = "" then "-" else ch.ch_unit)
       ch.offered ch.stride);
  Buffer.add_string buf "time_ns,value\n";
  List.iter
    (fun (time, v) -> Buffer.add_string buf (Printf.sprintf "%d,%s\n" time (float_repr v)))
    (points ch);
  Buffer.contents buf

let channel_to_json ch =
  Json.Obj
    [
      ("channel", Json.String ch.ch_name);
      ("unit", Json.String ch.ch_unit);
      ("recorded", Json.Int ch.offered);
      ("stride", Json.Int ch.stride);
      ( "points",
        Json.List
          (List.map (fun (time, v) -> Json.List [ Json.Int time; Json.Float v ]) (points ch))
      );
    ]

let to_json t = Json.List (List.map channel_to_json (channels t))

let sanitize_name name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c | _ -> '_')
    name

let write_csv_dir t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  if not (Sys.is_directory dir) then raise (Sys_error (dir ^ ": not a directory"));
  List.iter
    (fun ch ->
      let path = Filename.concat dir (sanitize_name ch.ch_name ^ ".csv") in
      let oc = open_out path in
      output_string oc (to_csv ch);
      close_out oc)
    (channels t)
