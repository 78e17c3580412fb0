let check_output ~flag kind path =
  let error why = Error (Printf.sprintf "%s %s: %s" flag path why) in
  let dir = Filename.dirname path in
  if Sys.file_exists path then
    if Sys.is_directory path = (kind = `Dir) then Ok ()
    else error (if kind = `Dir then "is not a directory" else "is a directory")
  else if not (Sys.file_exists dir) then error ("no directory " ^ dir)
  else if not (Sys.is_directory dir) then error (dir ^ " is not a directory")
  else Ok ()

let the_metrics = Metrics.create ()

let the_tracer = ref Trace.null

let trace_file = ref None

let metrics () = the_metrics

let tracer () = !the_tracer

let set_tracer t = the_tracer := t

let close_trace () =
  (match !trace_file with
  | Some oc ->
    flush oc;
    close_out oc;
    trace_file := None
  | None -> ());
  the_tracer := Trace.null

let trace_to_file path =
  close_trace ();
  let oc = open_out path in
  trace_file := Some oc;
  the_tracer := Trace.jsonl_channel oc

let reset_metrics () = Metrics.reset_all the_metrics

let the_pcap = ref Pcap.null

let pcap_file = ref None

let pcap () = !the_pcap

let set_pcap p = the_pcap := p

let close_pcap () =
  (match !pcap_file with
  | Some oc ->
    flush oc;
    close_out oc;
    pcap_file := None
  | None -> ());
  the_pcap := Pcap.null

let pcap_to_file path =
  close_pcap ();
  let oc = open_out_bin path in
  pcap_file := Some oc;
  the_pcap := Pcap.create ~format:(Pcap.format_of_path path) ~write:(output_string oc)

let folded_out = ref None

let profile_to ?folded () =
  Prof.reset ();
  folded_out := folded;
  Prof.set_enabled true

let profiling () = Prof.enabled ()

let close_profile () =
  (match !folded_out with
  | Some path when Prof.touched () -> Prof.write_folded ~path
  | Some _ | None -> ());
  folded_out := None;
  Prof.set_enabled false

let the_int_sink = Int_sink.create ()

let int_sink () = the_int_sink

let reset_int_sink () = Int_sink.reset the_int_sink

let the_attrib = Attrib.create ()

let attrib () = the_attrib

let reset_attrib () = Attrib.reset the_attrib

let timeseries_sink = ref None

let set_timeseries_sink ~dir = timeseries_sink := Some dir

let clear_timeseries_sink () = timeseries_sink := None

let export_timeseries ts =
  match !timeseries_sink with
  | None -> ()
  | Some dir -> Timeseries.write_csv_dir ts ~dir
