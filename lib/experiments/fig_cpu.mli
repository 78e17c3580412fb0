(** fig11-12: datapath cost with and without AC/DC, the simulator's
    stand-in for the paper's CPU-overhead figures, as Bechamel
    microbenchmarks: ns per (data segment + ACK) through a sender's and a
    receiver's vSwitch at 100, 1K and 10K established flows, plus two
    event-queue churn rows.  Profiling pauses while they run. *)

val run : Obs.Report.t -> unit
(** Print the 14 rows, the per-flow-count AC/DC increments and the share
    of one core the 10K-flow sender row costs at 10 Gb/s with TSO; add
    each row to the report as [<row>.ns_per_op]. *)

val scheduler_rows : quota:float -> (string * float) list
(** The churn rows alone ([scheduler/wheel/churn-04096] and [-65536],
    ns/op), each measured for [quota] seconds on a bare engine that emits
    no trace event, captures no frame and registers no instrument. *)

val print_rows : (string * float) list -> unit
