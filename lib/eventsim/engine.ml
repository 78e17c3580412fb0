(* Engine = virtual clock + event queue + a pool of flat event records.

   Events are mutable records recycled through a per-engine free list: the
   timing wheel hands back the record itself (never a [Some]/tuple), its
   [at] field carries the timestamp, and dispatch reads the payload into
   locals and returns the record to the pool *before* invoking the
   callback — so the callback's own scheduling reuses it immediately.  A
   callback that raises leaks its one record to the GC; the pool stays
   consistent.

   Three event kinds share the record: closures ([schedule]), cancellable
   timers ([timer_after]: liveness rides in the separate handle so a
   recycled record can't resurrect a cancelled timer), and static-site
   handlers ([schedule_static]: a pre-registered code pointer plus two
   universally-typed argument slots — the zero-allocation path for txq
   tx-complete, link delivery and friends). *)

type timer = { mutable live : bool; action : unit -> unit }

let nop () = ()
let nop2 (_ : Obj.t) (_ : Obj.t) = ()
let dead_timer = { live = false; action = nop }

(* kind: 0 = closure, 1 = timer, 2 = static handler. *)
type event = {
  mutable at : Time_ns.t;
  mutable kind : int;
  mutable fn : unit -> unit;
  mutable tmr : timer;
  mutable h : Obj.t -> Obj.t -> unit;
  mutable a : Obj.t;
  mutable b : Obj.t;
  mutable free_next : event; (* free-list link; [nil_event] = end *)
}

let rec nil_event =
  {
    at = 0;
    kind = 0;
    fn = nop;
    tmr = dead_timer;
    h = nop2;
    a = Obj.repr 0;
    b = Obj.repr 0;
    free_next = nil_event;
  }

type t = {
  mutable clock : Time_ns.t;
  queue : event Timing_wheel.t;
  mutable fired : int;
  mutable free : event;
  mutable free_count : int;
}

(* Events fired across every engine in the process: the denominator of the
   bench's events/sec figure, which spans many short-lived engines. *)
let all_fired = ref 0

let create () =
  {
    clock = Time_ns.zero;
    queue = Timing_wheel.create ();
    fired = 0;
    free = nil_event;
    free_count = 0;
  }

let now t = t.clock

let alloc t =
  let ev = t.free in
  if ev == nil_event then
    {
      at = 0;
      kind = 0;
      fn = nop;
      tmr = dead_timer;
      h = nop2;
      a = Obj.repr 0;
      b = Obj.repr 0;
      free_next = nil_event;
    }
  else begin
    t.free <- ev.free_next;
    t.free_count <- t.free_count - 1;
    ev.free_next <- nil_event;
    ev
  end

let recycle t ev =
  ev.fn <- nop;
  ev.tmr <- dead_timer;
  ev.h <- nop2;
  ev.a <- Obj.repr 0;
  ev.b <- Obj.repr 0;
  ev.free_next <- t.free;
  t.free <- ev;
  t.free_count <- t.free_count + 1

let push t ~at ev =
  ev.at <- at;
  Timing_wheel.push t.queue ~time:at ev

let check_future t at =
  if at < t.clock then
    invalid_arg
      (Format.asprintf "Engine.schedule: time %a is before now %a" Time_ns.pp at Time_ns.pp
         t.clock)

let schedule t ~at f =
  check_future t at;
  let ev = alloc t in
  ev.kind <- 0;
  ev.fn <- f;
  push t ~at ev

let schedule_after t ~delay f = schedule t ~at:(Time_ns.add t.clock delay) f

type ('a, 'b) handler = Obj.t -> Obj.t -> unit

let handler (f : 'a -> 'b -> unit) : ('a, 'b) handler = Obj.magic f

let schedule_static (type a b) t ~at (h : (a, b) handler) (x : a) (y : b) =
  check_future t at;
  let ev = alloc t in
  ev.kind <- 2;
  ev.h <- h;
  ev.a <- Obj.repr x;
  ev.b <- Obj.repr y;
  push t ~at ev

let schedule_static_after t ~delay h x y =
  schedule_static t ~at:(Time_ns.add t.clock delay) h x y

let timer_after t ~delay action =
  let at = Time_ns.add t.clock delay in
  check_future t at;
  let timer = { live = true; action } in
  let ev = alloc t in
  ev.kind <- 1;
  ev.tmr <- timer;
  push t ~at ev;
  timer

let cancel timer = timer.live <- false

let timer_pending timer = timer.live

(* Read the payload into locals and recycle *first*: the callback is then
   free to schedule into the record it just vacated. *)
let fire t ev =
  match ev.kind with
  | 0 ->
    let f = ev.fn in
    recycle t ev;
    f ()
  | 1 ->
    let tmr = ev.tmr in
    recycle t ev;
    if tmr.live then begin
      tmr.live <- false;
      tmr.action ()
    end
  | _ ->
    let h = ev.h and a = ev.a and b = ev.b in
    recycle t ev;
    h a b

let dispatch t ev =
  t.clock <- ev.at;
  t.fired <- t.fired + 1;
  incr all_fired;
  if !Profcore.on then begin
    (* The try keeps the span stack balanced when a callback raises (tests
       do), unwinding any frames an aborted inner span left behind. *)
    Profcore.note_pending (Timing_wheel.length t.queue);
    let tok = Profcore.enter Profcore.Site.eventsim_engine in
    (try fire t ev
     with e ->
       Profcore.leave tok;
       raise e);
    Profcore.leave tok
  end
  else fire t ev

let step t =
  let ev = Timing_wheel.pop_or t.queue ~none:nil_event in
  if ev == nil_event then false
  else begin
    dispatch t ev;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    (* Boundary rule (see the .mli): an event at exactly [limit] fires —
       extraction is bounded by [time <= limit] — and the clock finishes
       at [limit] exactly, whether or not the queue drained early. *)
    let continue = ref true in
    while !continue do
      let ev = Timing_wheel.pop_until_or t.queue ~limit ~none:nil_event in
      if ev == nil_event then begin
        t.clock <- Time_ns.max t.clock limit;
        continue := false
      end
      else dispatch t ev
    done

let pending_events t = Timing_wheel.length t.queue

let free_events t = t.free_count

let events_processed t = t.fired

let total_events_processed () = !all_fired
