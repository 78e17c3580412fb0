(* Engine = virtual clock + the timing wheel, whose pooled cells are the
   events.

   A cell holds its due time, a handler and the handler's two arguments.
   Closures ([schedule]) and cancellable timers ([timer_after]) are two
   more handlers, so dispatch has one shape: read the cell into locals,
   release it to the pool, then call the handler — which is free to
   schedule into the cell it just vacated.  A handler that raises loses
   nothing: its cell is already back in the pool. *)

type timer = { mutable live : bool; action : unit -> unit }

type t = { mutable clock : Time_ns.t; queue : Timing_wheel.t; mutable fired : int }

(* Events fired across every engine in the process: the denominator of the
   bench's events/sec figure, which spans many short-lived engines. *)
let all_fired = ref 0

let create () = { clock = Time_ns.zero; queue = Timing_wheel.create (); fired = 0 }

let now t = t.clock

let check_future t at =
  if at < t.clock then
    invalid_arg
      (Format.asprintf "Engine.schedule: time %a is before now %a" Time_ns.pp at Time_ns.pp
         t.clock)

type ('a, 'b) handler = 'a -> 'b -> unit

let handler f = f

let schedule_static t ~at h x y =
  check_future t at;
  Timing_wheel.push t.queue ~time:at h x y

let schedule_static_after t ~delay h x y =
  schedule_static t ~at:(Time_ns.add t.clock delay) h x y

let call f () = f ()

let schedule t ~at f = schedule_static t ~at call f ()

let schedule_after t ~delay f = schedule t ~at:(Time_ns.add t.clock delay) f

(* Liveness rides in the handle, not the cell, so a cancelled timer stays
   dead whatever its recycled cell carries next. *)
let fire_timer timer () =
  if timer.live then begin
    timer.live <- false;
    timer.action ()
  end

let timer_after t ~delay action =
  let timer = { live = true; action } in
  schedule_static t ~at:(Time_ns.add t.clock delay) fire_timer timer ();
  timer

let cancel timer = timer.live <- false

let timer_pending timer = timer.live

let dispatch t (c : Timing_wheel.cell) =
  let h = c.c_fn and a = c.c_a and b = c.c_b in
  t.clock <- c.c_time;
  Timing_wheel.release t.queue c;
  t.fired <- t.fired + 1;
  incr all_fired;
  if !Profcore.on then begin
    (* The try keeps the span stack balanced when a handler raises (tests
       do), unwinding any frames an aborted inner span left behind. *)
    Profcore.note_pending (Timing_wheel.length t.queue);
    let tok = Profcore.enter Profcore.Site.eventsim_engine in
    (try h a b
     with e ->
       Profcore.leave tok;
       raise e);
    Profcore.leave tok
  end
  else h a b

let rec drain t ~limit =
  let c = Timing_wheel.pop_until t.queue ~limit in
  if c != Timing_wheel.nil then begin
    dispatch t c;
    drain t ~limit
  end

let step t =
  let c = Timing_wheel.pop_until t.queue ~limit:max_int in
  if c == Timing_wheel.nil then false
  else begin
    dispatch t c;
    true
  end

(* Boundary rule (see the .mli): an event at exactly [limit] fires —
   extraction is bounded by [time <= limit] — and the clock finishes at
   [limit] exactly, whether or not the queue drained early. *)
let run ?until t =
  match until with
  | None -> drain t ~limit:max_int
  | Some limit ->
    drain t ~limit;
    t.clock <- Time_ns.max t.clock limit

let pending_events t = Timing_wheel.length t.queue

let free_events t = Timing_wheel.free_cells t.queue

let events_processed t = t.fired

let total_events_processed () = !all_fired
