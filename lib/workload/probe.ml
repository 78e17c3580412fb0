module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns

type t = {
  conn : Fabric.Conn.t;
  samples : Dcstats.Samples.t;
  mutable running : bool;
}

let interval = Time_ns.ms 1
let size = 1000

let start ~src ~dst ?config ?(warmup = Time_ns.ms 100) () =
  let engine = Fabric.Host.engine src in
  let conn = Fabric.Conn.establish ~src ~dst ?config () in
  let t = { conn; samples = Dcstats.Samples.create (); running = true } in
  let start_time = Engine.now engine in
  (* sockperf measures application-level latency: message submission to
     acknowledgement, retransmissions included — which is what makes the
     paper's CUBIC-under-WRED RTTs "extremely high" (Fig. 16). *)
  let rec tick () =
    if t.running then begin
      Fabric.Conn.send_message conn ~bytes:size ~on_complete:(fun fct ->
          if Time_ns.diff (Engine.now engine) start_time >= warmup then
            Dcstats.Samples.add t.samples (Time_ns.to_ms fct));
      Engine.schedule_after engine ~delay:interval tick
    end
  in
  Fabric.Conn.on_established conn tick;
  t

let samples_ms t = t.samples
let conn t = t.conn
let stop t = t.running <- false
