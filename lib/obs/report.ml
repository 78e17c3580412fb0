type t = {
  schema : string;
  id : string;
  mutable config : (string * Json.t) list; (* reverse order *)
  mutable scalars : (string * Json.t) list;
  mutable percentiles : (string * Json.t) list;
  mutable metrics : Json.t option;
  mutable profile : Json.t option;
  mutable int_section : Json.t option;
  mutable fct_attrib : Json.t option;
  mutable timeseries : Timeseries.t list;
}

let create ?(schema = "acdc-report/1") ~id () =
  {
    schema;
    id;
    config = [];
    scalars = [];
    percentiles = [];
    metrics = None;
    profile = None;
    int_section = None;
    fct_attrib = None;
    timeseries = [];
  }

let add_config t key v = t.config <- (key, v) :: t.config
let add_scalar t key v = t.scalars <- (key, Json.Float v) :: t.scalars
let add_int t key v = t.scalars <- (key, Json.Int v) :: t.scalars

let summary ?(unit_label = "") samples =
  let count = Dcstats.Samples.count samples in
  let body =
    if count = 0 then []
    else
      let p q = (Printf.sprintf "p%g" q, Json.Float (Dcstats.Samples.percentile samples q)) in
      [
        ("mean", Json.Float (Dcstats.Samples.mean samples));
        ("min", Json.Float (Dcstats.Samples.min samples));
        p 50.0;
        p 95.0;
        p 99.0;
        p 99.9;
        ("max", Json.Float (Dcstats.Samples.max samples));
      ]
  in
  Json.Obj
    (("count", Json.Int count)
    :: (if unit_label = "" then body else ("unit", Json.String unit_label) :: body))

let add_samples t ~name ?unit_label samples =
  t.percentiles <- (name, summary ?unit_label samples) :: t.percentiles

let set_metrics t registry = t.metrics <- Some (Metrics.to_json registry)

let set_profile t p = t.profile <- Some p

let set_int t j = t.int_section <- Some j

let set_fct_attrib t j = t.fct_attrib <- Some j

let embed_timeseries t ts = t.timeseries <- ts :: t.timeseries

let timeseries_json ts = Json.Obj [ ("embedded", Timeseries.to_json ts) ]

let to_json t =
  let fields =
    [
      ("schema", Json.String t.schema);
      ("id", Json.String t.id);
      ("config", Json.Obj (List.rev t.config));
      ("scalars", Json.Obj (List.rev t.scalars));
      ("percentiles", Json.Obj (List.rev t.percentiles));
      ("metrics", Option.value t.metrics ~default:Json.Null);
      ("timeseries", Json.List (List.rev_map timeseries_json t.timeseries));
    ]
  in
  (* [profile], [int] and [fct_attrib] are optional and appended after
     the fixed sections so runs without them stay byte-identical to the
     earlier schema. *)
  let fields =
    match t.profile with None -> fields | Some p -> fields @ [ ("profile", p) ]
  in
  let fields =
    match t.int_section with None -> fields | Some j -> fields @ [ ("int", j) ]
  in
  Json.Obj
    (match t.fct_attrib with
    | None -> fields
    | Some j -> fields @ [ ("fct_attrib", j) ])

let write t ~path =
  let oc = open_out path in
  Json.to_channel oc (to_json t);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Corpus reading and merging — the farm's view of many reports.       *)

let read_file ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match Json.of_string contents with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok json -> (
      match Json.member "schema" json with
      | Some (Json.String _) -> Ok json
      | Some _ -> Error (Printf.sprintf "%s: non-string \"schema\" field" path)
      | None -> Error (Printf.sprintf "%s: missing \"schema\" field" path)))

let merge_corpus ?(schema = "acdc-corpus/1") ?(extra = []) entries =
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) entries
  in
  let entry (id, body) =
    let fields =
      match body with
      | Json.Obj fields -> List.filter (fun (k, _) -> k <> "id") fields
      | other -> [ ("body", other) ]
    in
    Json.Obj (("id", Json.String id) :: fields)
  in
  Json.Obj
    ((("schema", Json.String schema) :: extra)
    @ [ ("scenarios", Json.List (List.map entry sorted)) ])
