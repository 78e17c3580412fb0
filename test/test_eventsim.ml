module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Timing_wheel = Eventsim.Timing_wheel
module Rng = Eventsim.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Time                                                                *)

let test_time_units () =
  check_int "us" 1_000 (Time_ns.us 1);
  check_int "ms" 1_000_000 (Time_ns.ms 1);
  check_int "sec" 1_500_000_000 (Time_ns.sec 1.5);
  Alcotest.(check (float 1e-9)) "to_sec" 0.25 (Time_ns.to_sec (Time_ns.ms 250));
  Alcotest.(check (float 1e-9)) "to_ms" 2.5 (Time_ns.to_ms (Time_ns.us 2500))

let test_time_arith () =
  check_int "add" 30 (Time_ns.add 10 20);
  check_int "diff" 15 (Time_ns.diff 40 25);
  check_int "min" 10 (Time_ns.min 10 20);
  check_int "max" 20 (Time_ns.max 10 20)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let drain h =
  let rec loop acc =
    match Event_heap.pop h with None -> List.rev acc | Some (_, v) -> loop (v :: acc)
  in
  loop []

let test_heap_ordering () =
  let h = Event_heap.create () in
  List.iter (fun t -> Event_heap.push h ~time:t t) [ 5; 1; 9; 3; 7; 2; 8 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain h)

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  List.iter (fun v -> Event_heap.push h ~time:42 v) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "insertion order preserved" [ 1; 2; 3; 4; 5 ] (drain h)

let test_heap_peek_and_length () =
  let h = Event_heap.create () in
  check_bool "empty" true (Event_heap.is_empty h);
  Event_heap.push h ~time:10 "a";
  Event_heap.push h ~time:5 "b";
  check_int "length" 2 (Event_heap.length h);
  Alcotest.(check (option int)) "peek" (Some 5) (Event_heap.peek_time h);
  Event_heap.clear h;
  check_bool "cleared" true (Event_heap.is_empty h)

let test_heap_growth () =
  let h = Event_heap.create () in
  for i = 999 downto 0 do
    Event_heap.push h ~time:i i
  done;
  let rec check last n =
    match Event_heap.pop h with
    | None -> n
    | Some (t, v) ->
      Alcotest.(check int) "time=value" t v;
      check_bool "monotone" true (t >= last);
      check t (n + 1)
  in
  check_int "all popped" 1000 (check min_int 0)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Event_heap.create () in
      List.iter (fun t -> Event_heap.push h ~time:t t) times;
      let rec ordered last =
        match Event_heap.pop h with
        | None -> true
        | Some (t, _) -> t >= last && ordered t
      in
      ordered min_int)

(* ------------------------------------------------------------------ *)
(* Timing wheel                                                        *)

(* 32^7 ns: timestamps differing from the wheel position by at least this
   much land in the overflow list. *)
let horizon = 1 lsl 35

(* The wheel queues handler cells; these tests queue ints.  [wpush] files
   an int as a cell whose handler records it, and [wpop_until] fires a
   popped cell the way the engine does (read, release, call the handler)
   and returns its time and int. *)
let recorded = ref 0
let record v () = recorded := v
let wpush w ~time v = Timing_wheel.push w ~time record v ()

let wpop_until w ~limit =
  let c = Timing_wheel.pop_until w ~limit in
  if c == Timing_wheel.nil then None
  else begin
    let time = c.c_time and h = c.c_fn and a = c.c_a and b = c.c_b in
    Timing_wheel.release w c;
    h a b;
    Some (time, !recorded)
  end

let wpop w = wpop_until w ~limit:max_int

let drain_wheel w =
  let rec loop acc = match wpop w with None -> List.rev acc | Some (_, v) -> loop (v :: acc) in
  loop []

let test_wheel_ordering () =
  let w = Timing_wheel.create () in
  List.iter (fun t -> wpush w ~time:t t) [ 5; 1; 9; 3; 7; 2; 8 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain_wheel w)

let test_wheel_fifo_ties () =
  let w = Timing_wheel.create () in
  List.iter (fun v -> wpush w ~time:42 v) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "insertion order preserved" [ 1; 2; 3; 4; 5 ] (drain_wheel w)

(* Timestamps straddling every level boundary: slot 0 vs 31 of level 0, the
   first instants of levels 1..6, and offsets inside coarse slots that only
   sort correctly if the cascade re-files them. *)
let test_wheel_cascade_boundaries () =
  let times =
    [ 0; 31; 32; 33; 1023; 1024; 1055; 32768; 32769; 1 lsl 20; (1 lsl 20) + 7;
      1 lsl 25; (1 lsl 25) + 1; 1 lsl 30; (1 lsl 30) + (1 lsl 5); horizon - 1 ]
  in
  let w = Timing_wheel.create () in
  List.iter (fun t -> wpush w ~time:t t) (List.rev times);
  Alcotest.(check (list int)) "cascades preserve order" times (drain_wheel w)

let test_wheel_overflow () =
  let w = Timing_wheel.create () in
  (* Mix in-horizon and far-future events; the far ones must park in the
     overflow list and still come out in global time order. *)
  let far = [ horizon + 5; 3 * horizon; (2 * horizon) + 17; horizon ] in
  let near = [ 10; 999; 123_456 ] in
  List.iter (fun t -> wpush w ~time:t t) (far @ near);
  check_bool "overflow populated" true (Timing_wheel.overflow_length w > 0);
  Alcotest.(check (list int))
    "global order across the horizon"
    (List.sort compare (far @ near))
    (drain_wheel w)

let test_wheel_push_past_rejected () =
  let w = Timing_wheel.create () in
  wpush w ~time:100 100;
  (match wpop w with
  | Some (100, _) -> ()
  | _ -> Alcotest.fail "expected pop at 100");
  let raised =
    try
      wpush w ~time:50 50;
      false
    with Invalid_argument _ -> true
  in
  check_bool "pushing before the wheel position raises" true raised;
  (* The current position itself is still legal (same-instant schedule). *)
  wpush w ~time:100 101;
  Alcotest.(check (option (pair int int))) "same instant ok" (Some (100, 101)) (wpop w)

let test_wheel_pop_until () =
  let w = Timing_wheel.create () in
  List.iter (fun t -> wpush w ~time:t t) [ 10; 20; 30 ];
  Alcotest.(check (option (pair int int))) "within limit" (Some (10, 10))
    (wpop_until w ~limit:25);
  Alcotest.(check (option (pair int int))) "at limit inclusive" (Some (20, 20))
    (wpop_until w ~limit:20);
  Alcotest.(check (option (pair int int))) "beyond limit stays" None
    (wpop_until w ~limit:25);
  check_int "remaining" 1 (Timing_wheel.length w);
  (* A bounded pop must not advance the position past schedulable times:
     scheduling at an instant between the limit and the remaining event
     must still be legal. *)
  wpush w ~time:26 26;
  Alcotest.(check (list int)) "later insert honored" [ 26; 30 ] (drain_wheel w)

let test_wheel_pool_reclaim () =
  let w = Timing_wheel.create () in
  for i = 1 to 1_000 do
    wpush w ~time:i i
  done;
  check_int "no free cells while full" 0 (Timing_wheel.free_cells w);
  ignore (drain_wheel w);
  check_int "all cells reclaimed" 1_000 (Timing_wheel.free_cells w);
  for i = 1_001 to 2_000 do
    wpush w ~time:i i
  done;
  check_int "reused, not reallocated" 0 (Timing_wheel.free_cells w)

(* Structure-level differential: identical interleaved push/pop/pop_until
   scripts against the binary heap, which is the ordering oracle.  Pushes
   are anchored at the latest extracted time so both structures accept
   them (the wheel cannot travel backwards). *)
let prop_wheel_matches_heap =
  let op_gen =
    QCheck.(
      oneof
        [
          (* small deltas exercise level 0/1 *)
          map (fun d -> `Push d) (int_bound 100);
          (* large deltas exercise cascades *)
          map (fun d -> `Push (d * 9_973)) (int_bound 10_000);
          (* beyond-horizon deltas exercise overflow + migration *)
          map (fun d -> `Push (horizon + d)) (int_bound 1_000);
          map (fun () -> `Pop) unit;
          map (fun d -> `Pop_until d) (int_bound 5_000);
        ])
  in
  QCheck.Test.make ~name:"timing wheel matches heap on random scripts" ~count:500
    QCheck.(list_of_size Gen.(1 -- 200) op_gen)
    (fun ops ->
      let h = Event_heap.create () in
      let w = Timing_wheel.create () in
      let anchor = ref 0 in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Push d ->
            let time = !anchor + d in
            let v = !next in
            incr next;
            Event_heap.push h ~time v;
            wpush w ~time v
          | `Pop ->
            let a = Event_heap.pop h and b = wpop w in
            if a <> b then ok := false;
            (match a with Some (t, _) -> anchor := t | None -> ())
          | `Pop_until d ->
            let limit = !anchor + d in
            let a = Event_heap.pop_until h ~limit and b = wpop_until w ~limit in
            if a <> b then ok := false;
            (* Mirror the engine contract: after a bounded extraction the
               clock stands at the limit (cascades may have advanced the
               wheel position up to it), so later pushes anchor there. *)
            (match a with Some (t, _) -> anchor := t | None -> anchor := max !anchor limit))
        ops;
      (* Drain both completely: every remaining event must agree too. *)
      let rec drain () =
        let a = Event_heap.pop h and b = wpop w in
        if a <> b then ok := false;
        if a <> None || b <> None then drain ()
      in
      drain ();
      !ok)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_runs_in_order () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule engine ~at:30 (fun () -> log := 30 :: !log);
  Engine.schedule engine ~at:10 (fun () -> log := 10 :: !log);
  Engine.schedule engine ~at:20 (fun () -> log := 20 :: !log);
  Engine.run engine;
  Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (List.rev !log);
  check_int "clock at last event" 30 (Engine.now engine)

let test_engine_schedule_past_rejected () =
  let engine = Engine.create () in
  Engine.schedule engine ~at:100 (fun () -> ());
  Engine.run engine;
  let raised =
    try
      Engine.schedule engine ~at:50 (fun () -> ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "scheduling in the past raises" true raised

let test_engine_run_until () =
  let engine = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Engine.schedule engine ~at:t (fun () -> fired := t :: !fired))
    [ 10; 20; 30; 40 ];
  Engine.run ~until:25 engine;
  Alcotest.(check (list int)) "only early events" [ 10; 20 ] (List.rev !fired);
  check_int "clock parked at limit" 25 (Engine.now engine);
  check_int "rest still queued" 2 (Engine.pending_events engine);
  Engine.run engine;
  Alcotest.(check (list int)) "drained" [ 10; 20; 30; 40 ] (List.rev !fired)

let test_engine_nested_scheduling () =
  let engine = Engine.create () in
  let hits = ref 0 in
  let rec chain n =
    if n > 0 then begin
      incr hits;
      Engine.schedule_after engine ~delay:5 (fun () -> chain (n - 1))
    end
  in
  Engine.schedule engine ~at:0 (fun () -> chain 10);
  Engine.run engine;
  check_int "chained events" 10 !hits;
  (* chain(0) still fires (and does nothing) at t = 50 *)
  check_int "clock" 50 (Engine.now engine)

let test_timer_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let timer = Engine.timer_after engine ~delay:10 (fun () -> fired := true) in
  check_bool "pending" true (Engine.timer_pending timer);
  Engine.cancel timer;
  check_bool "not pending" false (Engine.timer_pending timer);
  Engine.run engine;
  check_bool "never fired" false !fired

let test_timer_fires_once () =
  let engine = Engine.create () in
  let count = ref 0 in
  let timer = Engine.timer_after engine ~delay:10 (fun () -> incr count) in
  Engine.run engine;
  check_int "fired once" 1 !count;
  check_bool "spent" false (Engine.timer_pending timer);
  Engine.cancel timer (* no-op after firing *)

(* Regression: [timer_after] used to skip the past-time check, so on an
   engine whose clock [run ~until] had parked at 100 with an empty queue, a
   negative delay fired at clock 50 — time ran backwards. *)
let test_timer_negative_delay_rejected () =
  let engine = Engine.create () in
  Engine.run ~until:100 engine;
  let raised =
    try
      ignore (Engine.timer_after engine ~delay:(-50) (fun () -> ()));
      false
    with Invalid_argument _ -> true
  in
  check_bool "negative timer delay raises" true raised;
  check_int "nothing queued" 0 (Engine.pending_events engine);
  Engine.run engine;
  check_int "clock never moved backwards" 100 (Engine.now engine)

let test_step () =
  let engine = Engine.create () in
  Engine.schedule engine ~at:1 (fun () -> ());
  Engine.schedule engine ~at:2 (fun () -> ());
  check_bool "step 1" true (Engine.step engine);
  check_bool "step 2" true (Engine.step engine);
  check_bool "exhausted" false (Engine.step engine)

(* ------------------------------------------------------------------ *)
(* Differential engine harness: engine vs reference engine             *)

(* The reference engine: the determinism contract written as plainly as
   possible on top of the binary-heap oracle — closures, timers whose
   liveness rides in the handle, and the [run ~until] boundary rule (events
   at exactly [until] fire; the clock ends at [until]). *)
module Ref_engine = struct
  type t = { mutable clock : int; queue : (unit -> unit) Event_heap.t; mutable fired : int }
  type timer = { mutable live : bool }
  type ('a, 'b) handler = 'a -> 'b -> unit

  let create () = { clock = 0; queue = Event_heap.create (); fired = 0 }
  let now t = t.clock
  let schedule_after t ~delay f = Event_heap.push t.queue ~time:(t.clock + delay) f
  let handler f = f
  let schedule_static_after t ~delay h x y = schedule_after t ~delay (fun () -> h x y)

  let timer_after t ~delay action =
    let timer = { live = true } in
    schedule_after t ~delay (fun () ->
        if timer.live then begin
          timer.live <- false;
          action ()
        end);
    timer

  let cancel timer = timer.live <- false
  let pending_events t = Event_heap.length t.queue
  let events_processed t = t.fired

  let rec drain t pop =
    match pop t.queue with
    | None -> ()
    | Some (at, f) ->
      t.clock <- at;
      t.fired <- t.fired + 1;
      f ();
      drain t pop

  let run ?until t =
    match until with
    | None -> drain t Event_heap.pop
    | Some limit ->
      drain t (Event_heap.pop_until ~limit);
      t.clock <- max t.clock limit
end

module type ENGINE = sig
  type t
  type timer
  type ('a, 'b) handler

  val create : unit -> t
  val now : t -> int
  val schedule_after : t -> delay:int -> (unit -> unit) -> unit
  val handler : ('a -> 'b -> unit) -> ('a, 'b) handler
  val schedule_static_after : t -> delay:int -> ('a, 'b) handler -> 'a -> 'b -> unit
  val timer_after : t -> delay:int -> (unit -> unit) -> timer
  val cancel : timer -> unit
  val run : ?until:int -> t -> unit
  val pending_events : t -> int
  val events_processed : t -> int
end

(* A script is interpreted identically against the engine and the
   reference engine; the trace of observable effects — which ops fired,
   at what clock reading, plus clock/pending checkpoints after every
   [Run_for] — must match exactly.  Same-instant bursts probe FIFO
   tie-breaks, [Far] probes the overflow path, [Deep] puts each of the
   three scheduling entry points (closure, timer, static handler) on the
   outer wheel levels, [Cancel_refire] probes cancel-then-rearm, and
   nested scheduling from inside callbacks probes scheduling at the
   current instant. *)
type script_op =
  | Sched of int (* delay from now *)
  | Burst of int * int (* delay, count: same-instant FIFO probe *)
  | Timer_op of int
  | Static of int (* [schedule_static_after]; the reference schedules a closure *)
  | Cancel_nth of int (* cancel the nth timer created so far (mod) *)
  | Cancel_refire of int * int (* cancel nth, schedule a fresh timer *)
  | Far of int (* delay past the wheel horizon *)
  | Deep of int * int (* delay / 9_973, entry point (mod 3): up to wheel level 5 *)
  | Nested of int * int (* outer delay, inner delay scheduled on fire *)
  | Run_for of int

let interpret (type e) (module E : ENGINE with type t = e) script =
  let engine = E.create () in
  let log = ref [] in
  let emit tag = log := (tag, E.now engine) :: !log in
  let timers = ref [||] in
  let add_timer tmr = timers := Array.append !timers [| tmr |] in
  let nth_timer n =
    if Array.length !timers = 0 then None else Some !timers.(n mod Array.length !timers)
  in
  let static_h = E.handler (fun i j -> emit (i, j)) in
  List.iteri
    (fun i op ->
      match op with
      | Sched d -> E.schedule_after engine ~delay:d (fun () -> emit (i, 0))
      | Burst (d, n) ->
        for j = 0 to (n - 1) land 7 do
          E.schedule_after engine ~delay:d (fun () -> emit (i, j))
        done
      | Timer_op d -> add_timer (E.timer_after engine ~delay:d (fun () -> emit (i, 0)))
      | Static d -> E.schedule_static_after engine ~delay:d static_h i 0
      | Deep (d, k) -> (
        let delay = d * 9_973 in
        match k mod 3 with
        | 0 -> E.schedule_after engine ~delay (fun () -> emit (i, 0))
        | 1 -> add_timer (E.timer_after engine ~delay (fun () -> emit (i, 0)))
        | _ -> E.schedule_static_after engine ~delay static_h i 0)
      | Cancel_nth n -> (
        match nth_timer n with Some t -> E.cancel t | None -> ())
      | Cancel_refire (n, d) ->
        (match nth_timer n with Some t -> E.cancel t | None -> ());
        add_timer (E.timer_after engine ~delay:d (fun () -> emit (i, 1)))
      | Far d -> E.schedule_after engine ~delay:(horizon + d) (fun () -> emit (i, 0))
      | Nested (d1, d2) ->
        E.schedule_after engine ~delay:d1 (fun () ->
            emit (i, 0);
            E.schedule_after engine ~delay:d2 (fun () -> emit (i, 1)))
      | Run_for d ->
        E.run ~until:(E.now engine + d) engine;
        emit (-1 - i, E.pending_events engine))
    script;
  E.run engine;
  (List.rev !log, E.now engine, E.events_processed engine)

let script_gen =
  QCheck.(
    list_of_size
      Gen.(1 -- 60)
      (oneof
         [
           map (fun d -> Sched d) (int_bound 10_000);
           map (fun (d, n) -> Burst (d, n)) (pair (int_bound 1_000) (int_range 1 8));
           map (fun d -> Timer_op d) (int_bound 10_000);
           map (fun d -> Static d) (int_bound 10_000);
           map (fun (d, k) -> Deep (d, k)) (pair (int_bound 10_000) small_nat);
           map (fun n -> Cancel_nth n) small_nat;
           map (fun (n, d) -> Cancel_refire (n, d)) (pair small_nat (int_bound 10_000));
           map (fun d -> Far d) (int_bound 1_000_000);
           map (fun (a, b) -> Nested (a, b)) (pair (int_bound 5_000) (int_bound 100));
           map (fun d -> Run_for d) (int_bound 20_000);
         ]))

(* The heap-backed reference engine against the wheel-backed engine. *)
let prop_engines_identical =
  QCheck.Test.make ~name:"heap and wheel engines fire identically" ~count:1000 script_gen
    (fun script ->
      interpret (module Ref_engine) script = interpret (module Engine) script)

(* ------------------------------------------------------------------ *)
(* run ~until boundary (regression: events exactly at the limit fire)  *)

let test_run_until_boundary () =
  let engine = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Engine.schedule engine ~at:t (fun () -> fired := t :: !fired))
    [ 49; 50; 51 ];
  (* An event at exactly the limit fires, and a same-instant event it
     schedules while firing fires too. *)
  Engine.schedule engine ~at:50 (fun () ->
      Engine.schedule engine ~at:50 (fun () -> fired := 5050 :: !fired));
  Engine.run ~until:50 engine;
  Alcotest.(check (list int)) "everything at <= until fired" [ 49; 50; 5050 ]
    (List.rev !fired);
  check_int "clock parked exactly at until" 50 (Engine.now engine);
  check_int "strictly later events remain" 1 (Engine.pending_events engine);
  (* Clock ends at until even when the queue drains before the limit. *)
  Engine.run ~until:200 engine;
  check_int "clock at until after drain" 200 (Engine.now engine);
  check_int "drained" 0 (Engine.pending_events engine)

(* ------------------------------------------------------------------ *)
(* Stress: 1M timers, half cancelled, pools reclaimed                  *)

let test_timer_stress () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:1234 in
  let n = 1_000_000 in
  let fired = ref 0 in
  let action () = incr fired in
  let cancelled = ref 0 in
  let was_on = Obs.Prof.enabled () in
  Obs.Prof.set_enabled true;
  Obs.Prof.reset ();
  for _ = 1 to n do
    let tmr = Engine.timer_after engine ~delay:(1 + Rng.int rng 1_000_000_000) action in
    if Rng.int rng 2 = 0 then begin
      Engine.cancel tmr;
      incr cancelled
    end
  done;
  check_int "everything queued (cancelled timers stay until due)" n
    (Engine.pending_events engine);
  Engine.run engine;
  Obs.Prof.set_enabled was_on;
  (* The gauge is fed at dispatch: the first event leaves n - 1 behind. *)
  check_int "pending gauge saw the full load" (n - 1) (Obs.Prof.pending_max ());
  check_int "pending drained" 0 (Engine.pending_events engine);
  check_int "live timers fired" (n - !cancelled) !fired;
  check_int "dead events dispatched without firing" n (Engine.events_processed engine);
  (* Every pooled event cell is back on the free list once the queue
     drains: nothing is pending, so allocated = freed. *)
  let freed = Engine.free_events engine in
  check_bool "event pool reclaimed" true (freed > 0);
  (* Scheduling again must draw from the pool, not allocate. *)
  Engine.schedule_after engine ~delay:1 ignore;
  check_int "reuse draws from the pool" (freed - 1) (Engine.free_events engine);
  Engine.run engine;
  check_int "and returns on fire" freed (Engine.free_events engine);
  check_bool "roughly half cancelled" true (abs ((2 * !cancelled) - n) < n / 50)

let test_wheel_cell_stress () =
  let w = Timing_wheel.create () in
  let rng = Rng.create ~seed:99 in
  let n = 1_000_000 in
  for i = 0 to n - 1 do
    wpush w ~time:(Rng.int rng 1_000_000_000) i
  done;
  check_int "all queued" n (Timing_wheel.length w);
  let popped = ref 0 in
  let rec drain last =
    match wpop w with
    | None -> ()
    | Some (t, _) ->
      if t < last then Alcotest.fail "out of order";
      incr popped;
      drain t
  in
  drain 0;
  check_int "all popped" n !popped;
  check_int "every cell reclaimed to the free list" n (Timing_wheel.free_cells w);
  (* Reuse: a second load must consume the pool, not allocate. *)
  for i = 0 to (n / 2) - 1 do
    wpush w ~time:(2_000_000_000 + i) i
  done;
  check_int "pool consumed on reuse" (n / 2) (Timing_wheel.free_cells w)

(* ------------------------------------------------------------------ *)
(* RNG                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  check_bool "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:3 in
  let child = Rng.split parent in
  check_bool "child differs from parent" true (Rng.bits64 child <> Rng.bits64 parent)

(* The SplitMix64 streams themselves, pinned: outputs of [bits64], [int],
   [float] and [split] for three seeds.  Every seeded workload, fuzz
   scenario and benchmark input is drawn from these streams, so a change
   to the generator's state handling must leave them bit-identical. *)
let rng_golden =
  [
    ( 0,
      [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ],
      [ 162391415; 326764436; 58226567 ],
      [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6 ],
      [ 0xa706dd2f4d197e6fL; 0xb382a305f4414f5eL ] );
    ( 1,
      [ 0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L ],
      [ 941333156; 352957867; 116884567 ],
      [ 0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2 ],
      [ 0x55c55969ed403149L; 0xfb85af9c9a7e41f1L ] );
    ( 42,
      [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L ],
      [ 893968961; 604656497; 986793367 ],
      [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3 ],
      [ 0x5599b3e06d073327L; 0xd6171d07a31128dfL ] );
  ]

let test_rng_golden () =
  List.iter
    (fun (seed, bits, ints, floats, child) ->
      let draws n f =
        let rng = Rng.create ~seed in
        List.init n (fun _ -> f rng)
      in
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check (list int64)) (name "bits64") bits (draws 3 Rng.bits64);
      Alcotest.(check (list int))
        (name "int") ints
        (draws 3 (fun r -> Rng.int r 1_000_000_007));
      Alcotest.(check (list (float 0.)))
        (name "float") floats
        (draws 3 (fun r -> Rng.float r 1.0));
      (* [split] consumes one draw of the parent, which carries on with
         its second output. *)
      let parent = Rng.create ~seed in
      let c = Rng.split parent in
      let c1 = Rng.bits64 c in
      let c2 = Rng.bits64 c in
      Alcotest.(check (list int64)) (name "split child") child [ c1; c2 ];
      Alcotest.(check int64) (name "parent after split") (List.nth bits 1) (Rng.bits64 parent))
    rng_golden

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"Rng.int stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_rng_float_in_range =
  QCheck.Test.make ~name:"Rng.float stays in [0, bound)" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.float rng 3.5 in
        if v < 0.0 || v >= 3.5 then ok := false
      done;
      !ok)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:99 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean within 5%" true (Float.abs (mean -. 4.0) < 0.2)

let test_rng_uniformity () =
  let rng = Rng.create ~seed:5 in
  let buckets = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c -> check_bool "bucket within 10% of uniform" true (abs (c - (n / 10)) < n / 100))
    buckets

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:8 in
  let arr = Array.init 100 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 100 (fun i -> i)) sorted

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_heap_sorted;
      prop_wheel_matches_heap;
      prop_engines_identical;
      prop_rng_int_in_range;
      prop_rng_float_in_range;
    ]

let () =
  Alcotest.run "eventsim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "peek/length/clear" `Quick test_heap_peek_and_length;
          Alcotest.test_case "growth to 1000" `Quick test_heap_growth;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "ordering" `Quick test_wheel_ordering;
          Alcotest.test_case "fifo ties" `Quick test_wheel_fifo_ties;
          Alcotest.test_case "cascade boundaries" `Quick test_wheel_cascade_boundaries;
          Alcotest.test_case "overflow beyond horizon" `Quick test_wheel_overflow;
          Alcotest.test_case "rejects past" `Quick test_wheel_push_past_rejected;
          Alcotest.test_case "pop_until" `Quick test_wheel_pop_until;
          Alcotest.test_case "pool reclaim" `Quick test_wheel_pool_reclaim;
          Alcotest.test_case "1M cells stress" `Quick test_wheel_cell_stress;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "rejects past" `Quick test_engine_schedule_past_rejected;
          Alcotest.test_case "run ~until" `Quick test_engine_run_until;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
          Alcotest.test_case "timer fires once" `Quick test_timer_fires_once;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "timer rejects negative delay" `Quick
            test_timer_negative_delay_rejected;
          Alcotest.test_case "until boundary (wheel)" `Quick test_run_until_boundary;
          Alcotest.test_case "1M timers stress (wheel)" `Quick test_timer_stress;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "golden vectors" `Quick test_rng_golden;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
        ] );
      ("properties", qtests);
    ]
