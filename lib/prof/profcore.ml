(* Self-profiling core: monotonic-clock spans attributed to the
   performance ledger's eight layers, with per-span GC allocation deltas
   and a folded-stack (flamegraph) tree built from the span nesting.

   This module sits below [eventsim] in the dependency order so the
   engine's dispatch can carry the [eventsim.engine] span.  Every other
   span opens where one layer calls the next ([Fabric]'s wiring, AC/DC's
   processor glue); the layers themselves hold no profiler code.
   [Obs.Prof] re-exports this module with the JSON/folded renderers
   layered on top.

   The enabled check is a single [bool ref] load and branch; call sites
   guard with [if !Profcore.on then ...] so the disabled path does no call,
   no closure and no allocation.  The enabled path is allocation-free too,
   except for [Gc.counters]'s own result (a tuple of three boxed floats),
   whose cost is calibrated once and subtracted — see [sample_cost_minor]. *)

external clock_ns : unit -> int = "prof_clock_ns" [@@noalloc]

module Site = struct
  type t = int

  (* The performance ledger's layers, in [BENCHMARK.json] order, so a
     profile and a ledger row name the same thing.  This order is the
     deterministic key order of every rendered profile. *)
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

  let eventsim_engine = 0
  let netsim_txq = 1
  let netsim_switch = 2
  let vswitch_datapath = 3
  let acdc_sender = 4
  let acdc_receiver = 5
  let tcp_endpoint = 6
  let fabric_conn = 7

  let count = Array.length names
  let name i = names.(i)
  let all = List.init count Fun.id
end

let nsites = Site.count

(* ------------------------------------------------------------------ *)
(* Per-site accumulators (inclusive: nested spans count in their parents
   too, like any sampling flamegraph's non-self totals).                *)

let counts = Array.make nsites 0
let total_ns = Array.make nsites 0
let max_ns = Array.make nsites 0
let minor_words = Array.make nsites 0.0
let major_words = Array.make nsites 0.0
let pending_hw = ref 0

(* ------------------------------------------------------------------ *)
(* Folded-stack tree: one node per distinct span path.  Children are an
   int array indexed by site so the hot-path lookup is O(1) and
   allocation-free; nodes are only allocated the first time a path is
   seen.                                                               *)

type node = { n_site : int; n_parent : int; mutable n_ns : int; n_children : int array }

let root = { n_site = -1; n_parent = -1; n_ns = 0; n_children = Array.make nsites (-1) }
let nodes = ref (Array.make 64 root)
let nnodes = ref 1

let child_of parent site =
  let p = !nodes.(parent) in
  let existing = p.n_children.(site) in
  if existing >= 0 then existing
  else begin
    let id = !nnodes in
    if id = Array.length !nodes then begin
      let grown = Array.make (2 * id) root in
      Array.blit !nodes 0 grown 0 id;
      nodes := grown
    end;
    !nodes.(id) <-
      { n_site = site; n_parent = parent; n_ns = 0; n_children = Array.make nsites (-1) };
    p.n_children.(site) <- id;
    nnodes := id + 1;
    id
  end

(* ------------------------------------------------------------------ *)
(* Span frames: parallel preallocated stacks, no per-span allocation.   *)

let frame_cap = ref 256
let frame_site = ref (Array.make !frame_cap 0)
let frame_node = ref (Array.make !frame_cap 0)
let frame_t0 = ref (Array.make !frame_cap 0)
let frame_mw0 = ref (Array.make !frame_cap 0.0)
let frame_gw0 = ref (Array.make !frame_cap 0.0)
let frame_s0 = ref (Array.make !frame_cap 0)
let depth_ref = ref 0

let on = ref false
let enabled () = !on

(* Minor words come from [Gc.minor_words], which is exact and, unboxed,
   allocates nothing.  [Gc.counters]'s minor count is not: on OCaml 5.1 it
   counts the words still in the minor heap at an eighth of their number,
   and the rest arrive in one lump at the next minor collection, charged
   to whichever span is open then — so a span's words would depend on
   where collections fall, that is on everything the process allocated
   before the run.  Major words still come from [Gc.counters], which
   allocates its result tuple *after* reading the counters, so each
   sample's tuple lands in the window of every span open around it.
   [sample_calls] counts samples; each frame records the count at entry and
   the exact per-sample cost (calibrated below) times the samples taken
   inside the span window is subtracted from its minor-word delta —
   without this, every child span would charge ~10 words to its parent. *)
let sample_calls = ref 0

let sample_cost_minor =
  let a = Gc.minor_words () in
  ignore (Sys.opaque_identity (Gc.counters ()));
  Gc.minor_words () -. a

let grow_frames () =
  let cap = 2 * !frame_cap in
  let grow_int a = Array.append !a (Array.make !frame_cap 0) in
  let grow_flt a = Array.append !a (Array.make !frame_cap 0.0) in
  frame_site := grow_int frame_site;
  frame_node := grow_int frame_node;
  frame_t0 := grow_int frame_t0;
  frame_mw0 := grow_flt frame_mw0;
  frame_gw0 := grow_flt frame_gw0;
  frame_s0 := grow_int frame_s0;
  frame_cap := cap

let enter site =
  let d = !depth_ref in
  if d = !frame_cap then grow_frames ();
  let parent = if d = 0 then 0 else !frame_node.(d - 1) in
  !frame_site.(d) <- site;
  !frame_node.(d) <- child_of parent site;
  depth_ref := d + 1;
  (* Sample last, so the tree bookkeeping above is not charged to this
     span (it lands in the parent's window, like all profiler overhead
     that [sample_cost_minor] does not cover — node creation is cold). *)
  !frame_t0.(d) <- clock_ns ();
  !frame_mw0.(d) <- Gc.minor_words ();
  let _, _, gw = Gc.counters () in
  incr sample_calls;
  !frame_gw0.(d) <- gw;
  !frame_s0.(d) <- !sample_calls;
  d

let pop1 () =
  let d = !depth_ref - 1 in
  (* Sample first: accumulator updates below are excluded from the span. *)
  let t1 = clock_ns () in
  let mw1 = Gc.minor_words () in
  let _, _, gw1 = Gc.counters () in
  let s1 = !sample_calls in
  incr sample_calls;
  depth_ref := d;
  let site = !frame_site.(d) in
  let dt = t1 - !frame_t0.(d) in
  (* Samples inside the window: this span's entry sample plus both samples
     of every descendant span. *)
  let overhead = float_of_int (s1 - !frame_s0.(d) + 1) *. sample_cost_minor in
  let dmw = Float.max 0.0 (mw1 -. !frame_mw0.(d) -. overhead) in
  let dgw = Float.max 0.0 (gw1 -. !frame_gw0.(d)) in
  counts.(site) <- counts.(site) + 1;
  total_ns.(site) <- total_ns.(site) + dt;
  if dt > max_ns.(site) then max_ns.(site) <- dt;
  minor_words.(site) <- minor_words.(site) +. dmw;
  major_words.(site) <- major_words.(site) +. dgw;
  let node = !nodes.(!frame_node.(d)) in
  node.n_ns <- node.n_ns + dt

let leave token = while !depth_ref > token do pop1 () done

let depth () = !depth_ref

let with_span site f =
  if not !on then f ()
  else begin
    let token = enter site in
    match f () with
    | v ->
      leave token;
      v
    | exception e ->
      leave token;
      raise e
  end

let note_pending n = if n > !pending_hw then pending_hw := n

(* ------------------------------------------------------------------ *)
(* Control                                                             *)

let reset () =
  Array.fill counts 0 nsites 0;
  Array.fill total_ns 0 nsites 0;
  Array.fill max_ns 0 nsites 0;
  Array.fill minor_words 0 nsites 0.0;
  Array.fill major_words 0 nsites 0.0;
  pending_hw := 0;
  depth_ref := 0;
  Array.fill root.n_children 0 nsites (-1);
  root.n_ns <- 0;
  nnodes := 1

let set_enabled flag =
  (* Enabling mid-run would start spans at a nonzero ambient depth;
     disabling mid-span would leak frames.  Both resets keep the stack
     coherent; accumulated statistics survive a disable so drivers can
     stop profiling before auxiliary work (e.g. microbenches) and still
     render the run's numbers. *)
  depth_ref := 0;
  on := flag

let touched () = Array.exists (fun c -> c > 0) counts

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type site_stats = {
  s_name : string;
  s_count : int;
  s_total_ns : int;
  s_max_ns : int;
  s_minor_words : float;
  s_major_words : float;
}

let snapshot () =
  List.map
    (fun i ->
      {
        s_name = Site.name i;
        s_count = counts.(i);
        s_total_ns = total_ns.(i);
        s_max_ns = max_ns.(i);
        s_minor_words = minor_words.(i);
        s_major_words = major_words.(i);
      })
    Site.all

let pending_max () = !pending_hw

let events_per_sec () =
  let ns = total_ns.(Site.eventsim_engine) in
  if ns <= 0 then 0.0 else float_of_int counts.(Site.eventsim_engine) *. 1e9 /. float_of_int ns

(* ------------------------------------------------------------------ *)
(* Folded stacks                                                       *)

let rec path_of id =
  if id <= 0 then []
  else
    let n = !nodes.(id) in
    path_of n.n_parent @ [ Site.name n.n_site ]

let folded () =
  (* Flamegraph folded format wants self time; a node's self ns is its
     inclusive ns minus its children's (clamped: the subtraction crosses
     separate clock reads, so rounding can push a tiny self negative). *)
  let lines = ref [] in
  for id = 1 to !nnodes - 1 do
    let n = !nodes.(id) in
    let child_ns =
      Array.fold_left
        (fun acc c -> if c >= 0 then acc + !nodes.(c).n_ns else acc)
        0 n.n_children
    in
    let self = Stdlib.max 0 (n.n_ns - child_ns) in
    lines := (String.concat ";" (path_of id), self) :: !lines
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !lines
