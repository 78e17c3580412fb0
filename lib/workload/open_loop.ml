module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns

type t = {
  mutable running : bool;
  mutable started : int;
  mutable completed : int;
}

let mice_cutoff = 10_240

(* Arrivals are seeded: every run offers the same flows. *)
let seed = 17

let start ~net ~config ~dist ~load ~fct_ms ~mice_fct_ms () =
  assert (load > 0.0 && load < 1.0);
  let engine = net.Fabric.Topology.engine in
  let hosts = net.Fabric.Topology.hosts in
  let n = Array.length hosts in
  assert (n >= 2);
  let link_rate = float_of_int net.Fabric.Topology.params.Fabric.Params.link_rate_bps in
  let mean_interarrival_s = Dist.mean_bytes dist *. 8.0 /. (load *. link_rate) in
  let t = { running = true; started = 0; completed = 0 } in
  let master = Eventsim.Rng.create ~seed in
  Array.iteri
    (fun i src ->
      let rng = Eventsim.Rng.split master in
      let rec arrival () =
        if t.running then begin
          let delay =
            Time_ns.sec (Eventsim.Rng.exponential rng ~mean:mean_interarrival_s)
          in
          Engine.schedule_after engine ~delay (fun () ->
              if t.running then begin
                let dst = hosts.((i + 1 + Eventsim.Rng.int rng (n - 1)) mod n) in
                let bytes = Dist.sample dist rng in
                let conn = Fabric.Conn.establish ~src ~dst ~config () in
                t.started <- t.started + 1;
                Fabric.Conn.send_message conn ~bytes ~on_complete:(fun fct ->
                    t.completed <- t.completed + 1;
                    let ms = Time_ns.to_ms fct in
                    Dcstats.Samples.add fct_ms ms;
                    if bytes < mice_cutoff then Dcstats.Samples.add mice_fct_ms ms;
                    Fabric.Conn.teardown conn ~after:(Time_ns.ms 20));
                arrival ()
              end)
        end
      in
      arrival ())
    hosts;
  t

let flows_started t = t.started
let flows_completed t = t.completed
let stop t = t.running <- false
