(* The four benchmark workloads and the inputs they are built from.

   Inputs are generated from the seed by the parent run.exe and handed
   to the simulator as plain data (start offsets, connection arrivals):
   the simulator never sees the seed itself. *)

module Rng = Eventsim.Rng
module Time_ns = Eventsim.Time_ns

type workload = Dumbbell_acdc | Dumbbell_cubic_1500 | Churn_web | Dumbbell_acdc_observed

let all = [ Dumbbell_acdc; Dumbbell_cubic_1500; Churn_web; Dumbbell_acdc_observed ]

let name = function
  | Dumbbell_acdc -> "dumbbell-acdc"
  | Dumbbell_cubic_1500 -> "dumbbell-cubic-1500"
  | Churn_web -> "churn-web"
  | Dumbbell_acdc_observed -> "dumbbell-acdc-observed"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Simulated run length.  Each is sized so that one repetition takes about
   half a second of host time on a 2.1 GHz Xeon container, so a 30-second
   run holds dozens of repetitions and its medians ride out the host's
   bursts of slowness. *)
let base_duration = function
  | Dumbbell_acdc -> Time_ns.ms 700
  | Dumbbell_cubic_1500 -> Time_ns.ms 150
  | Churn_web -> Time_ns.ms 200
  | Dumbbell_acdc_observed -> Time_ns.ms 70

let pairs = 5
let churn_hosts = 9
let churn_load = 0.6
let churn_dist = Workload.Dist.web_search

type arrival = { at : Time_ns.t; src : int; dst : int; bytes : int }

type t = {
  workload : workload;
  duration : Time_ns.t;
      (** dumbbells: the simulated run; churn-web: the arrival window (the
          run goes on until every flow completes) *)
  starts : Time_ns.t array;  (** dumbbells: when pair [i] opens its connection *)
  arrivals : arrival array;  (** churn-web: open-loop connections, by time *)
}

(* Dumbbell pairs open their connections within 20 us of each other
   (about one round trip), so the seed moves where the flows sit relative
   to each other without changing the load or how the flows share it.

   Churn-web is [Workload.Open_loop]'s model drawn up front: each host
   opens connections to uniformly chosen other hosts at Poisson times, at
   [churn_load] of its link rate on average, with web-search sizes.  So
   that every seed does the same work, the flow count is the expected
   one, the arrival times are that many uniform draws over the window (a
   Poisson process given its count), and the sizes are one fixed sample
   of the distribution that the seed deals out to the arrivals. *)
let generate ?(scale = 1) workload ~seed =
  let duration = base_duration workload / scale in
  let rng = Rng.create ~seed in
  match workload with
  | Churn_web ->
    let link_bps = float_of_int Fabric.Params.default.Fabric.Params.link_rate_bps in
    let mean_gap_s = Workload.Dist.mean_bytes churn_dist *. 8.0 /. (churn_load *. link_bps) in
    let per_host = max 1 (Float.to_int (Float.round (Time_ns.to_sec duration /. mean_gap_s))) in
    let sizes =
      let sample = Rng.create ~seed:0 in
      Array.init (churn_hosts * per_host) (fun _ -> Workload.Dist.sample churn_dist sample)
    in
    Rng.shuffle rng sizes;
    let arrivals =
      Array.concat
        (List.init churn_hosts (fun src ->
             let host_rng = Rng.split rng in
             let times = Array.init per_host (fun _ -> Rng.int host_rng duration) in
             Array.sort compare times;
             Array.mapi
               (fun k at ->
                 let dst = (src + 1 + Rng.int host_rng (churn_hosts - 1)) mod churn_hosts in
                 { at; src; dst; bytes = sizes.((src * per_host) + k) })
               times))
    in
    Array.stable_sort (fun a b -> compare (a.at, a.src) (b.at, b.src)) arrivals;
    { workload; duration; starts = [||]; arrivals }
  | Dumbbell_acdc | Dumbbell_cubic_1500 | Dumbbell_acdc_observed ->
    let starts = Array.init pairs (fun _ -> Rng.int rng (Time_ns.us 20)) in
    { workload; duration; starts; arrivals = [||] }

(* A line-oriented text form, written to a child's stdin. *)
let to_string t =
  let b = Buffer.create 4096 in
  Printf.bprintf b "workload %s\nduration %d\n" (name t.workload) t.duration;
  Array.iter (Printf.bprintf b "start %d\n") t.starts;
  Array.iter (fun a -> Printf.bprintf b "flow %d %d %d %d\n" a.at a.src a.dst a.bytes) t.arrivals;
  Buffer.contents b

let of_string s =
  let workload = ref None and duration = ref 0 in
  let starts = ref [] and arrivals = ref [] in
  String.split_on_char '\n' s
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | [ "workload"; w ] -> workload := of_name w
         | [ "duration"; d ] -> duration := int_of_string d
         | [ "start"; at ] -> starts := int_of_string at :: !starts
         | [ "flow"; at; src; dst; bytes ] ->
           arrivals :=
             {
               at = int_of_string at;
               src = int_of_string src;
               dst = int_of_string dst;
               bytes = int_of_string bytes;
             }
             :: !arrivals
         | [ "" ] -> ()
         | _ -> failwith ("malformed input line: " ^ line));
  match !workload with
  | None -> failwith "input names no known workload"
  | Some workload ->
    {
      workload;
      duration = !duration;
      starts = Array.of_list (List.rev !starts);
      arrivals = Array.of_list (List.rev !arrivals);
    }
