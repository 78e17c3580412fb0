type counter = { c_name : string; mutable c : int }

type gauge = { g_name : string; mutable g : int }

type instrument = Counter of counter | Gauge of gauge

type t = { mutable instruments : instrument list (* reverse registration order *) }

let create () = { instruments = [] }

let counter t name =
  let c = { c_name = name; c = 0 } in
  t.instruments <- Counter c :: t.instruments;
  c

let gauge t name =
  let g = { g_name = name; g = 0 } in
  t.instruments <- Gauge g :: t.instruments;
  g

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c

let set g v = g.g <- v
let set_max g v = if v > g.g then g.g <- v
let gauge_value g = g.g

type scope = { reg : t; prefix : string }

let scope t prefix = { reg = t; prefix }
let sub s name = { s with prefix = s.prefix ^ "." ^ name }
let scope_counter s name = counter s.reg (s.prefix ^ "." ^ name)
let scope_gauge s name = gauge s.reg (s.prefix ^ "." ^ name)

let merge ~combine pairs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt tbl name with
      | None -> Hashtbl.replace tbl name v
      | Some prev -> Hashtbl.replace tbl name (combine prev v))
    pairs;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t =
  List.filter_map
    (function Counter c -> Some (c.c_name, c.c) | Gauge _ -> None)
    t.instruments
  |> merge ~combine:( + )

let gauges t =
  List.filter_map
    (function Gauge g -> Some (g.g_name, g.g) | Counter _ -> None)
    t.instruments
  |> merge ~combine:Stdlib.max

let find t name =
  match List.assoc_opt name (counters t) with
  | Some _ as v -> v
  | None -> List.assoc_opt name (gauges t)

let to_json t =
  let fields pairs = List.map (fun (name, v) -> (name, Json.Int v)) pairs in
  Json.Obj
    [ ("counters", Json.Obj (fields (counters t))); ("gauges", Json.Obj (fields (gauges t))) ]

let reset_all t =
  List.iter
    (function Counter c -> c.c <- 0 | Gauge g -> g.g <- 0)
    t.instruments;
  t.instruments <- []
