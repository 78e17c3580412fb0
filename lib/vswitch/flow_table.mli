(** The vSwitch's connection-tracking table.

    Mirrors the paper's OVS extension: flows hash on the 5-tuple, entries
    are created by SYN packets, removed by FIN packets plus a coarse-grained
    garbage collector that reaps idle entries (§4).  The RCU/spinlock
    machinery of the kernel implementation collapses to plain hashing in a
    single-threaded simulator; what we keep is the lifecycle. *)

type 'a t

val create :
  Eventsim.Engine.t ->
  ?gc_interval:Eventsim.Time_ns.t ->
  ?idle_timeout:Eventsim.Time_ns.t ->
  unit ->
  'a t
(** GC runs every [gc_interval] (default 1 s) and removes entries idle for
    longer than [idle_timeout] (default 5 s) or already marked closed. *)

val find : 'a t -> Dcpkt.Flow_key.t -> 'a option
(** Lookup refreshes the entry's last-active time.  A hit returns an
    option cell built once at insertion, so lookups allocate nothing. *)

val find_reverse : 'a t -> Dcpkt.Flow_key.t -> 'a option
(** [find_reverse t key] is [find t (Dcpkt.Flow_key.reverse key)] — the
    flow a packet of the opposite direction belongs to (an ACK's data
    flow) — served from an index of reversed keys built at insertion. *)

val find_or_create : 'a t -> Dcpkt.Flow_key.t -> make:(unit -> 'a) -> 'a

val mark_closed : 'a t -> Dcpkt.Flow_key.t -> unit
(** Called on FIN; the entry survives until the garbage collector passes,
    so straggling retransmissions still find their state. *)

val remove : 'a t -> Dcpkt.Flow_key.t -> unit
val length : 'a t -> int
val iter : 'a t -> f:(Dcpkt.Flow_key.t -> 'a -> unit) -> unit

val lookups : 'a t -> int
val insertions : 'a t -> int
val gc_removals : 'a t -> int

val stop_gc : 'a t -> unit
(** Cancel the periodic GC timer (lets simulations drain). *)
