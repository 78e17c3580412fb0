(** Randomized invariant-checking harness: sample topologies, workloads
    and link impairments from a seed, run each scenario to completion, and
    check properties that must hold for a correct AC/DC implementation no
    matter how hostile the network was (the checks are the point — the
    impairments only make them hard to pass by accident).

    Every scenario is fully determined by its integer seed, so a failure
    report is replayable with [acdc_expt --fuzz 1 --seed N]. *)

(** {2 Scenarios} *)

type topo_kind = Dumbbell of int | Star of int | Parking_lot of int | Leaf_spine

val topo_label : topo_kind -> string

type scenario = {
  seed : int;
  topo : topo_kind;
  cc_name : string;  (** tenant congestion control, from {!Tcp.Cc_registry} *)
  impair : Netsim.Impair.config;
  misbehaving : bool;  (** connection 0 runs a hostile stack *)
  messages : (int * int list) list;  (** (src, message sizes); dst from topology *)
}

val scenario_of_seed : seed:int -> scenario

(** {2 Invariants} *)

type violation = { invariant : string; detail : string }

type outcome = {
  scenario : scenario;
  violations : violation list;
  completed : int;
  expected : int;
  conforming_retx : int;
  conforming_acked_segments : int;
  policer_drops : int;
  finished_at : Eventsim.Time_ns.t;  (** virtual time the last message completed *)
}

val run_scenario : scenario -> outcome
(** Build the scenario's topology (policing enabled), run it to a 2 s
    virtual deadline, then check: every message completed; conforming
    stacks did not retransmission-storm; every switch's byte books balance
    within [0, capacity]; AC/DC cursors satisfy [snd_una <= snd_nxt]; the
    enforced window survives 16-bit window-field scaling; and the policer
    dropped nothing when every stack conformed. *)

val run_seed : int -> outcome

val run : count:int -> seed:int -> outcome list
(** Scenarios [seed, seed + count); each replayable alone via {!run_seed}. *)

(** {2 Reporting} *)

val outcome_json : outcome -> Obs.Json.t
val report_of_outcomes : ?id:string -> outcome list -> Obs.Report.t
(** Deterministic report (byte-identical for a fixed root seed): per-run
    outcomes, failing seeds, aggregate counters. *)

val print_outcome : outcome -> unit

(** {2 Directed adversarial check (§3.3)} *)

type adversarial_result = {
  baseline_gbps : float list;  (** conforming flows, no cheater *)
  contested_gbps : float list;  (** the same flows beside the cheater *)
  cheater_gbps : float;
  adv_policer_drops : int;
  max_queue_bytes : int;  (** deepest port queue during the contested run *)
}

val adversarial :
  ?impair:Netsim.Impair.config -> ?seed:int -> unit -> adversarial_result
(** Dumbbell A/B run: three conforming pairs alone, then the same pairs
    with pair 0 swapped for an RWND-ignoring aggressive stack.  AC/DC
    holding the line means nonzero policer drops, bounded queues, and
    honest goodput within ~10% of the baseline. *)

val print_adversarial : adversarial_result -> unit
