(** Named time-series channels driven by the simulator's virtual clock.

    The second observability tier, above {!Metrics} (point-in-time
    counters) and {!Trace} (discrete events): a [channel] is a bounded
    [(time, value)] signal — queue occupancy, an enforced RWND, per-interval
    goodput — filled either by an event hook calling {!record} or by a
    fixed-interval {!probe} scheduled on the {!Eventsim.Engine} clock.

    Memory is bounded per channel: when a channel's stored points reach its
    budget, the channel decimates by a power of two — every other stored
    point is dropped and the acceptance stride doubles, so the kept points
    stay evenly spaced over the whole run and storage never exceeds the
    budget.  The first point is always kept and exports always end with the
    most recent recorded point, so endpoints survive decimation.

    Timestamps are virtual, so every export of a seeded run is
    byte-identical across re-runs (the determinism guard lives in
    [test/test_report.ml]). *)

type t
(** A collection of channels sharing one engine (one per experiment run). *)

type channel

val create : ?default_budget:int -> Eventsim.Engine.t -> t
(** [default_budget] (default 8192, rounded up to even, minimum 16) caps
    the stored points of every channel of [t]. *)

val engine : t -> Eventsim.Engine.t

val channel : t -> ?unit_label:string -> string -> channel
(** Find-or-create the channel called [name].  Creating is idempotent: a
    second call with the same name returns the existing channel (the unit
    label of the first call wins). *)

val probe :
  t ->
  ?unit_label:string ->
  name:string ->
  interval:Eventsim.Time_ns.t ->
  ?until:Eventsim.Time_ns.t ->
  (unit -> float option) ->
  channel
(** Sample [f] every [interval] of virtual time, starting now, until
    [until] (default: forever — call {!stop} so the event queue can drain).
    [f () = None] skips that sample (e.g. a flow that doesn't exist yet).
    Raises [Invalid_argument] if [interval <= 0]. *)

val record : channel -> now:Eventsim.Time_ns.t -> float -> unit
(** Offer a point from an event hook.  Times must be monotone
    (non-decreasing); a time before the channel's latest point raises
    [Invalid_argument]. *)

val name : channel -> string
val unit_label : channel -> string

val length : channel -> int
(** Stored points (after decimation). *)

val recorded : channel -> int
(** Total points offered over the channel's lifetime. *)

val stride : channel -> int
(** Current acceptance stride: 1 before the first decimation, then a power
    of two — one stored point per [stride] offered points. *)

val last : channel -> (Eventsim.Time_ns.t * float) option
(** Most recently offered point, stored or not. *)

val points : channel -> (Eventsim.Time_ns.t * float) list
(** Stored points oldest-first, with the most recently offered point
    appended if decimation skipped it — the exported signal always reaches
    the true end of the run. *)

val binned_rate :
  channel ->
  bin:Eventsim.Time_ns.t ->
  until:Eventsim.Time_ns.t ->
  (float * float) list
(** Interpret the channel as a cumulative byte counter and difference it at
    bin edges: [(bin_end_seconds, gigabits_per_second)] per [bin]-wide
    interval from 0 to [until].  Differencing levels (rather than summing
    increments) makes the result robust to decimation. *)

val channels : t -> channel list
(** Registration order. *)

val find : t -> string -> channel option

val stop : t -> unit
(** Deactivate all probes so a simulation can drain its event queue.
    Channels and their data stay readable. *)

(** {2 Export}

    All exports are deterministic: virtual timestamps, ["%.12g"] floats,
    channels in registration order. *)

val to_csv : channel -> string
(** Two columns [time_ns,value] under a [# channel ...] comment header. *)

val channel_to_json : channel -> Json.t
(** [{"channel": ..., "unit": ..., "recorded": ..., "stride": ...,
    "points": [[t_ns, v], ...]}]. *)

val to_json : t -> Json.t
(** All channels, as a JSON list. *)

val write_csv_dir : t -> dir:string -> unit
(** One [<name>.csv] per channel in [dir] (created if missing); characters
    outside [A-Za-z0-9._-] in channel names become [_].  Raises [Sys_error]
    if [dir] cannot be created or written. *)

val sanitize_name : string -> string
(** The file-name mapping [write_csv_dir] uses. *)
