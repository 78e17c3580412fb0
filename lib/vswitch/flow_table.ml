module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Flow_key = Dcpkt.Flow_key

type 'a entry = {
  value : 'a;
  found : 'a option; (* [Some value], built once: a hit allocates nothing *)
  mutable last_active : Time_ns.t;
  mutable closed : bool;
}

type 'a t = {
  engine : Engine.t;
  idle_timeout : Time_ns.t;
  gc_interval : Time_ns.t;
  table : 'a entry Flow_key.Table.t;
  (* The same entries filed under the opposite direction's key, reversed
     once at insertion, so a packet of the other direction finds its flow
     without building a key per lookup.  Never iterated, so it starts
     small rather than at [table]'s size. *)
  rev : 'a entry Flow_key.Table.t;
  mutable gc_timer : Engine.timer option;
  mutable lookups : int;
  mutable insertions : int;
  mutable gc_removals : int;
}

let remove t key =
  Flow_key.Table.remove t.table key;
  Flow_key.Table.remove t.rev (Flow_key.reverse key)

let rec schedule_gc t =
  t.gc_timer <-
    Some
      (Engine.timer_after t.engine ~delay:t.gc_interval (fun () ->
           sweep t;
           schedule_gc t))

and sweep t =
  let now = Engine.now t.engine in
  let stale =
    Flow_key.Table.fold
      (fun key entry acc ->
        if entry.closed || Time_ns.diff now entry.last_active > t.idle_timeout then key :: acc
        else acc)
      t.table []
  in
  List.iter
    (fun key ->
      remove t key;
      t.gc_removals <- t.gc_removals + 1)
    stale

let create engine ?(gc_interval = Time_ns.sec 1.0) ?(idle_timeout = Time_ns.sec 5.0) () =
  let t =
    {
      engine;
      idle_timeout;
      gc_interval;
      table = Flow_key.Table.create 256;
      rev = Flow_key.Table.create 16;
      gc_timer = None;
      lookups = 0;
      insertions = 0;
      gc_removals = 0;
    }
  in
  schedule_gc t;
  t

let lookup t index key =
  t.lookups <- t.lookups + 1;
  match Flow_key.Table.find index key with
  | entry ->
    entry.last_active <- Engine.now t.engine;
    entry.found
  | exception Not_found -> None

let find t key = lookup t t.table key
let find_reverse t key = lookup t t.rev key

let find_or_create t key ~make =
  match find t key with
  | Some v -> v
  | None ->
    let value = make () in
    let entry =
      { value; found = Some value; last_active = Engine.now t.engine; closed = false }
    in
    Flow_key.Table.replace t.table key entry;
    Flow_key.Table.replace t.rev (Flow_key.reverse key) entry;
    t.insertions <- t.insertions + 1;
    value

let mark_closed t key =
  match Flow_key.Table.find t.table key with
  | entry -> entry.closed <- true
  | exception Not_found -> ()

let length t = Flow_key.Table.length t.table

let iter t ~f = Flow_key.Table.iter (fun key entry -> f key entry.value) t.table

let lookups t = t.lookups
let insertions t = t.insertions
let gc_removals t = t.gc_removals

let stop_gc t =
  match t.gc_timer with
  | Some timer ->
    Engine.cancel timer;
    t.gc_timer <- None
  | None -> ()
