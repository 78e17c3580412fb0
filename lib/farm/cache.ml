type entry = { key : string; meta : Obs.Json.t }

let cache_dir root = Filename.concat root "cache"
let entry_dir root key = Filename.concat (cache_dir root) key
let report_path root key = Filename.concat (entry_dir root key) "report.json"
let meta_path root key = Filename.concat (entry_dir root key) "meta.json"

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let find root ~key =
  if Sys.file_exists (report_path root key) then
    match Obs.Report.read_file ~path:(meta_path root key) with
    | Ok meta -> Some { key; meta }
    | Error _ -> None
  else None

let store root ~key ~src =
  mkdir_p (cache_dir root);
  let dst = entry_dir root key in
  if Sys.file_exists dst then rm_rf src else Sys.rename src dst

let keys root =
  let dir = cache_dir root in
  if Sys.file_exists dir && Sys.is_directory dir then
    List.sort String.compare (Array.to_list (Sys.readdir dir))
  else []

let list root = List.filter_map (fun key -> find root ~key) (keys root)

let gc root ~live =
  let dead = List.filter (fun key -> not (List.mem key live)) (keys root) in
  List.iter (fun key -> rm_rf (entry_dir root key)) dead;
  dead
