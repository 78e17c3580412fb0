module Engine = Eventsim.Engine
module Time_ns = Eventsim.Time_ns
module Flow_key = Dcpkt.Flow_key

type 'a entry = {
  value : 'a;
  found : 'a option; (* [Some value], built once: a hit allocates nothing *)
  mutable last_active : Time_ns.t;
  mutable closed : bool;
}

(* The coarse-grained garbage collector's period, and how long an entry
   may sit idle before it reaps it. *)
let gc_interval = Time_ns.sec 1.0
let idle_timeout = Time_ns.sec 5.0

type 'a t = {
  engine : Engine.t;
  table : 'a entry Flow_key.Table.t;
  (* The same entries filed under the opposite direction's key, reversed
     once at insertion, so a packet of the other direction finds its flow
     without building a key per lookup.  Never iterated, so it starts
     small rather than at [table]'s size. *)
  rev : 'a entry Flow_key.Table.t;
  mutable gc_timer : Engine.timer option;
}

let remove t key =
  Flow_key.Table.remove t.table key;
  Flow_key.Table.remove t.rev (Flow_key.reverse key)

let rec schedule_gc t =
  t.gc_timer <-
    Some
      (Engine.timer_after t.engine ~delay:gc_interval (fun () ->
           sweep t;
           schedule_gc t))

and sweep t =
  let now = Engine.now t.engine in
  let stale =
    Flow_key.Table.fold
      (fun key entry acc ->
        if entry.closed || Time_ns.diff now entry.last_active > idle_timeout then key :: acc
        else acc)
      t.table []
  in
  List.iter (remove t) stale

let create engine =
  let t =
    {
      engine;
      table = Flow_key.Table.create 256;
      rev = Flow_key.Table.create 16;
      gc_timer = None;
    }
  in
  schedule_gc t;
  t

let lookup t index key =
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
    value

let mark_closed t key =
  match Flow_key.Table.find t.table key with
  | entry -> entry.closed <- true
  | exception Not_found -> ()

let length t = Flow_key.Table.length t.table

let iter t ~f = Flow_key.Table.iter (fun key entry -> f key entry.value) t.table

let stop_gc t =
  match t.gc_timer with
  | Some timer ->
    Engine.cancel timer;
    t.gc_timer <- None
  | None -> ()
