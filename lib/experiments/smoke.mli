(** smoke: CI's end-to-end run.  A 5-pair AC/DC dumbbell for 100 ms
    (20 ms warmup) with INT and FCT attribution on, then the scheduler
    churn rows of {!Fig_cpu}. *)

val run : Obs.Report.t -> unit
(** Add the run's rows to the report: config [scheme], [pairs],
    [warmup_ms] and [duration_ms]; scalars [flows],
    [aggregate_goodput_gbps], [switch_drops] and [sched_wheel_ns_per_op];
    the [probe_rtt_ms] percentiles and the embedded time series.  INT and
    attribution are left as they were found. *)
