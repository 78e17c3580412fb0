(* Allocation-free layer spans for the traced benchmark run.

   A span is opened around each call the benchmark's own wiring makes into
   a layer and closed when that call returns; a layer's self time is its
   spans' duration minus the time of the spans nested inside them.  All
   state lives in arrays allocated once at module initialization, and the
   clock ([Obs.Prof.clock_ns]) and [Gc.minor_words] are both read without
   allocating, so opening and closing a span allocates nothing: the words
   charged to a layer are the words its own code allocated. *)

let clock_ns = Obs.Prof.clock_ns

(* Layer ids.  [engine] has no span of its own: its self time is the run
   time left over once every top-level span is subtracted. *)
let engine = 0
let txq = 1
let switch = 2
let datapath = 3
let acdc_sender = 4
let acdc_receiver = 5
let endpoint = 6
let conn = 7
let count = 8

let names =
  [|
    "eventsim.engine";
    "netsim.txq";
    "netsim.switch";
    "vswitch.datapath";
    "acdc.sender";
    "acdc.receiver";
    "tcp.endpoint";
    "fabric.conn";
  |]

(* Per-call self-time histogram: exact below [linear] ns, then 64
   sub-buckets per power of two (under 2% error). *)
let linear = 4096
let linear_bits = 12
let sub_bits = 6
let buckets = linear + (64 * (62 - linear_bits))

let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1)

let bucket_of v =
  if v < linear then if v < 0 then 0 else v
  else
    let lg = log2 v 0 in
    linear + ((lg - linear_bits) lsl sub_bits) + ((v lsr (lg - sub_bits)) land 63)

(* The smallest value that falls into bucket [b]. *)
let value_of b =
  if b < linear then b
  else
    let k = b - linear in
    let lg = (k lsr sub_bits) + linear_bits in
    (64 + (k land 63)) lsl (lg - sub_bits)

let max_depth = 256
let st_layer = Array.make max_depth 0
let st_t0 = Array.make max_depth 0
let st_child_ns = Array.make max_depth 0
let st_w0 = Array.make max_depth 0.0
let st_child_w = Array.make max_depth 0.0
let depth = ref 0
let calls = Array.make count 0
let self_ns = Array.make count 0
let self_words = Array.make count 0.0
let hist = Array.make (count * buckets) 0

(* Sums over top-level spans, and the end of the last one: the gap to the
   next top-level span is engine time. *)
let top_ns = ref 0
let top_words = Array.make 1 0.0
let last_top_end = ref 0
let pending_max = ref 0
let no_pending () = 0
let pending = ref no_pending

let record layer ns =
  let b = (layer * buckets) + bucket_of ns in
  hist.(b) <- hist.(b) + 1

let reset ~pending:probe =
  depth := 0;
  Array.fill calls 0 count 0;
  Array.fill self_ns 0 count 0;
  Array.fill self_words 0 count 0.0;
  Array.fill hist 0 (Array.length hist) 0;
  top_ns := 0;
  top_words.(0) <- 0.0;
  pending_max := 0;
  pending := probe;
  last_top_end := clock_ns ()

let enter layer =
  let d = !depth in
  if d = 0 then begin
    let p = !pending () in
    if p > !pending_max then pending_max := p;
    record engine (clock_ns () - !last_top_end)
  end;
  st_layer.(d) <- layer;
  st_child_ns.(d) <- 0;
  st_child_w.(d) <- 0.0;
  st_w0.(d) <- Gc.minor_words ();
  depth := d + 1;
  st_t0.(d) <- clock_ns ();
  d

(* Close every span down to [tok], the depth [enter] returned: a span the
   [endpoint] marker opened inside a datapath call closes with it. *)
let leave tok =
  while !depth > tok do
    let t1 = clock_ns () in
    let w1 = Gc.minor_words () in
    let d = !depth - 1 in
    depth := d;
    let incl = t1 - st_t0.(d) in
    let incl_w = w1 -. st_w0.(d) in
    let layer = st_layer.(d) in
    let self = incl - st_child_ns.(d) in
    calls.(layer) <- calls.(layer) + 1;
    self_ns.(layer) <- self_ns.(layer) + self;
    self_words.(layer) <- self_words.(layer) +. (incl_w -. st_child_w.(d));
    record layer self;
    if d > 0 then begin
      st_child_ns.(d - 1) <- st_child_ns.(d - 1) + incl;
      st_child_w.(d - 1) <- st_child_w.(d - 1) +. incl_w
    end
    else begin
      top_ns := !top_ns + incl;
      top_words.(0) <- top_words.(0) +. incl_w;
      last_top_end := clock_ns ()
    end
  done

type layer_stats = {
  name : string;
  calls : int;
  self_ns : int;
  self_words : float;
  p50_ns : int;
  p99_ns : int;
}

let percentile layer p =
  let base = layer * buckets in
  let total = ref 0 in
  for b = 0 to buckets - 1 do
    total := !total + hist.(base + b)
  done;
  if !total = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (p *. float_of_int !total))) in
    let seen = ref 0 and b = ref 0 in
    while !seen + hist.(base + !b) < rank do
      seen := !seen + hist.(base + !b);
      incr b
    done;
    value_of !b
  end

(* The per-layer totals of a run whose [Engine.run] took [run_ns] and
   allocated [run_words], and which fired [events] events. *)
let snapshot ~run_ns ~run_words ~events =
  List.init count (fun layer ->
      let calls, self_ns, self_words =
        if layer = engine then (events, run_ns - !top_ns, run_words -. top_words.(0))
        else (calls.(layer), self_ns.(layer), self_words.(layer))
      in
      {
        name = names.(layer);
        calls;
        self_ns;
        self_words;
        p50_ns = percentile layer 0.50;
        p99_ns = percentile layer 0.99;
      })
