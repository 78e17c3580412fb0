(* Hierarchical timing wheel.  See the .mli for the layout story; the
   implementation notes here cover the invariants the code leans on.

   Levels and slots.  [bits] = 5, so each of the [levels] = 7 wheels has 32
   slots and level [l] has slot width [32^l] ns.  An event with timestamp
   [time] lives at the lowest level [l] where [time lxor cur < 32^(l+1)]
   ([cur] is the wheel position): that is exactly "time and cur agree on
   all 5-bit digits above digit l".  Its slot is digit l of [time].  The
   level ranges are therefore disjoint and ordered: every event at level l
   is strictly earlier than every event at level l+1, and within level 0 a
   slot holds exactly one timestamp, so bitmap order is time order and
   list order (FIFO append) is insertion order — the whole determinism
   contract reduces to "append to tails, pop from heads, cascade in list
   order".

   Cascading.  When level 0 is exhausted, the first occupied slot of the
   lowest nonempty level is opened: [cur] advances to that slot's window
   base and its cells are re-inserted, landing at strictly lower levels
   (their digits above the new digit-l all match [cur] now).  Re-insertion
   preserves list order, so FIFO survives the cascade.

   Overflow.  Events with [time lxor cur >= 32^7] don't fit any wheel and
   are appended to an unsorted overflow list.  Every overflow event is
   later than every wheel event (it differs from [cur] above the top
   digit, so its time is beyond the top wheel's window), which is why the
   overflow is only consulted when all wheels are empty: at that point the
   earliest overflow time becomes the new position and every event now
   inside the horizon migrates into the wheels, again in list order.

   Pooling.  A cell is the event itself: due time, handler, two argument
   slots and the intrusive [c_next] link, which doubles as slot chaining
   and free-list threading, so steady-state push/pop/release allocates
   nothing.  One module-level [nil] sentinel ends every list. *)

let bits = 5
let slots = 1 lsl bits
let mask = slots - 1
let levels = 7
let horizon = 1 lsl (bits * levels)

(* Count trailing zeros of a 32-bit occupancy word via De Bruijn multiply
   (no ctz intrinsic without an opam dep the image doesn't bake in). *)
let debruijn = 0x077CB531

let tz_table =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.(((debruijn lsl i) land 0xFFFFFFFF) lsr 27) <- i
  done;
  t

let tz bm = tz_table.((((bm land -bm) * debruijn) land 0xFFFFFFFF) lsr 27)

type cell = {
  mutable c_time : int;
  mutable c_fn : Obj.t -> Obj.t -> unit;
  mutable c_a : Obj.t;
  mutable c_b : Obj.t;
  mutable c_next : cell; (* slot / overflow / free-list link; nil = end *)
}

let empty = Obj.repr 0
let nop2 (_ : Obj.t) (_ : Obj.t) = ()
let rec nil = { c_time = max_int; c_fn = nop2; c_a = empty; c_b = empty; c_next = nil }

type t = {
  mutable cur : int; (* wheel position: time of the last extraction *)
  mutable len : int;
  heads : cell array; (* levels * slots, row-major *)
  tails : cell array;
  bitmaps : int array; (* per-level slot occupancy *)
  mutable ov_head : cell;
  mutable ov_tail : cell;
  mutable ov_len : int;
  mutable free : cell;
  mutable free_len : int;
}

let create () =
  {
    cur = 0;
    len = 0;
    heads = Array.make (levels * slots) nil;
    tails = Array.make (levels * slots) nil;
    bitmaps = Array.make levels 0;
    ov_head = nil;
    ov_tail = nil;
    ov_len = 0;
    free = nil;
    free_len = 0;
  }

let length t = t.len
let free_cells t = t.free_len
let overflow_length t = t.ov_len

let release t c =
  c.c_a <- empty;
  c.c_b <- empty;
  c.c_next <- t.free;
  t.free <- c;
  t.free_len <- t.free_len + 1

(* Level of a timestamp relative to the current position: lowest [l] with
   [time lxor cur < 32^(l+1)].  Caller has excluded the overflow case.
   The scans here and in [lowest_level] are top-level functions: a local
   [let rec] capturing a variable is a heap closure per call without
   flambda, and these run on every push, cascade and level-0 miss. *)
let rec level_from x l = if x < 1 lsl (bits * (l + 1)) then l else level_from x (l + 1)

let level_of t time = level_from (time lxor t.cur) 0

let append_overflow t c =
  if t.ov_head == nil then t.ov_head <- c else t.ov_tail.c_next <- c;
  t.ov_tail <- c;
  t.ov_len <- t.ov_len + 1

(* File a cell under the current position.  Precondition: c_time >= cur.
   Used by push, cascade and overflow migration alike — all three preserve
   arrival order into the slot lists, which is what keeps same-instant
   FIFO exact. *)
let insert t c =
  if c.c_time lxor t.cur >= horizon then append_overflow t c
  else begin
    let l = level_of t c.c_time in
    let slot = (c.c_time asr (bits * l)) land mask in
    let idx = (l lsl bits) + slot in
    if t.heads.(idx) == nil then t.heads.(idx) <- c else t.tails.(idx).c_next <- c;
    t.tails.(idx) <- c;
    t.bitmaps.(l) <- t.bitmaps.(l) lor (1 lsl slot)
  end

let push t ~time (f : 'a -> 'b -> unit) (a : 'a) (b : 'b) =
  if time < t.cur then
    invalid_arg
      (Printf.sprintf "Timing_wheel.push: time %d is before the wheel position %d" time t.cur);
  let fn : Obj.t -> Obj.t -> unit = Obj.magic f in
  let c =
    if t.free == nil then
      { c_time = time; c_fn = fn; c_a = Obj.repr a; c_b = Obj.repr b; c_next = nil }
    else begin
      let c = t.free in
      t.free <- c.c_next;
      t.free_len <- t.free_len - 1;
      c.c_time <- time;
      c.c_fn <- fn;
      c.c_a <- Obj.repr a;
      c.c_b <- Obj.repr b;
      c.c_next <- nil;
      c
    end
  in
  insert t c;
  t.len <- t.len + 1

(* Detach the first occupied slot of level [l] and re-insert its cells at
   lower levels after advancing [cur] to the slot's window base. *)
let cascade t l =
  let slot = tz t.bitmaps.(l) in
  let shift = bits * l in
  t.cur <- (((t.cur asr (shift + bits)) lsl bits) lor slot) lsl shift;
  let idx = (l lsl bits) + slot in
  let c = ref t.heads.(idx) in
  t.heads.(idx) <- nil;
  t.tails.(idx) <- nil;
  t.bitmaps.(l) <- t.bitmaps.(l) land lnot (1 lsl slot);
  while !c != nil do
    let next = !c.c_next in
    !c.c_next <- nil;
    insert t !c;
    c := next
  done

(* Lowest nonempty level, or [levels] when all wheels are empty. *)
let rec nonempty_from bitmaps l =
  if l >= levels then l else if bitmaps.(l) <> 0 then l else nonempty_from bitmaps (l + 1)

let lowest_level t = nonempty_from t.bitmaps 0

let overflow_min t =
  let m = ref max_int in
  let c = ref t.ov_head in
  while !c != nil do
    if !c.c_time < !m then m := !c.c_time;
    c := !c.c_next
  done;
  !m

(* All wheels are empty and the overflow is not: jump the position to the
   earliest overflow time and migrate every event now within the horizon
   back into the wheels, preserving list (= insertion) order. *)
let migrate t =
  t.cur <- overflow_min t;
  let c = ref t.ov_head in
  t.ov_head <- nil;
  t.ov_tail <- nil;
  t.ov_len <- 0;
  while !c != nil do
    let next = !c.c_next in
    !c.c_next <- nil;
    if !c.c_time lxor t.cur >= horizon then append_overflow t !c else insert t !c;
    c := next
  done

(* Remove and return the earliest cell.  [~limit] bounds the extraction:
   if the earliest event is provably past the limit the wheel is left
   untouched (beyond cascades, which never reorder or lose events and
   never advance [cur] past a remaining event) and [nil] is returned. *)
let rec pop_until t ~limit =
  if t.len = 0 then nil
  else if t.bitmaps.(0) <> 0 then begin
    let slot = tz t.bitmaps.(0) in
    let c = t.heads.(slot) in
    if c.c_time > limit then nil
    else begin
      t.heads.(slot) <- c.c_next;
      if t.heads.(slot) == nil then begin
        t.tails.(slot) <- nil;
        t.bitmaps.(0) <- t.bitmaps.(0) land lnot (1 lsl slot)
      end;
      t.cur <- c.c_time;
      t.len <- t.len - 1;
      c
    end
  end
  else begin
    let l = lowest_level t in
    if l < levels then begin
      (* Window base of the slot we would open: if even its first instant
         is past the limit, the true minimum is too. *)
      let slot = tz t.bitmaps.(l) in
      let shift = bits * l in
      let base = (((t.cur asr (shift + bits)) lsl bits) lor slot) lsl shift in
      if base > limit then nil
      else begin
        cascade t l;
        pop_until t ~limit
      end
    end
    else if overflow_min t > limit then nil
    else begin
      migrate t;
      pop_until t ~limit
    end
  end
