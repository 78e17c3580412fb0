(** DCTCP congestion control (Alizadeh et al., SIGCOMM 2010) as the *host*
    stack: maintains [alpha], an EWMA of the fraction of bytes that carried
    CE marks, updated once per window, and scales the window cut by
    [alpha / 2] at most once per RTT.  The EWMA gain is [g = 1/16], as in
    the paper and Linux.  Uses Reno's increase rules. *)

val factory : Cc.factory
