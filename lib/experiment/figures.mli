(** Generators for every table and figure of the paper's evaluation.

    Each function recomputes one artifact from scratch (deterministically
    for a given seed) and returns printable data; the bench harness
    renders them into [bench_output.txt].  Paper-expected shapes are
    documented per function and summarized in EXPERIMENTS.md. *)

(** Figure 3: the second derivative [alpha''(p)] over (0, 0.3]; blows up
    for small [p] (the regime where sampling errors hurt most). *)
val fig3 : unit -> Pgrid_stats.Series.figure

(** Figures 4 and 5: one bisection at [n] peers, [samples]-key estimates,
    [reps] repetitions per point over the paper's p grid
    (0.05 ... 0.5).  [fig4] reports the mean deviation [p0 - n*p]
    (SAM/AEP biased up, COR and AUT near zero); [fig5] the mean total
    number of interactions (AEP family below AUT, all rising as p falls;
    MVA as the deterministic baseline). *)
val fig4 :
  ?n:int -> ?samples:int -> ?reps:int -> seed:int -> unit -> Pgrid_stats.Series.figure

val fig5 :
  ?n:int -> ?samples:int -> ?reps:int -> seed:int -> unit -> Pgrid_stats.Series.figure

(** A Figure-6-style aggregate: label of the x-category, then one value
    per distribution (U, P0.5, P1.0, P1.5, N, A). *)
type fig6 = {
  title : string;
  categories : string list;  (** row labels, e.g. "n=256" *)
  distributions : string list;  (** column labels *)
  values : float array array;  (** values.(row).(column) *)
}

val fig6_table : fig6 -> string

(** Figure 6(a): deviation for n = 256/512/1024 (stable across sizes,
    increasing with skew). *)
val fig6a : ?reps:int -> seed:int -> unit -> fig6

(** Figure 6(b): deviation for n_min = 5..25 at n = 256 (degrades for
    strongly skewed distributions at large n_min). *)
val fig6b : ?reps:int -> seed:int -> unit -> fig6

(** Figure 6(c): deviation for d_max = 10/20/30 * n_min (no systematic
    influence — small samples suffice). *)
val fig6c : ?reps:int -> seed:int -> unit -> fig6

(** Figure 6(d): theoretical vs heuristic decision probabilities for
    n_min = 5, 10 (heuristics degrade load balance substantially). *)
val fig6d : ?reps:int -> seed:int -> unit -> fig6

(** Figure 6(e): construction interactions per peer (grows gracefully
    with network size). *)
val fig6e : ?reps:int -> seed:int -> unit -> fig6

(** Figure 6(f): data keys moved per peer during construction (grows
    gracefully; skew increases bandwidth). *)
val fig6f : ?reps:int -> seed:int -> unit -> fig6

(** The PlanetLab-substitute run shared by Figures 7-9 and Table 1
    (memoized per (peers, seed)). *)
val planetlab_run :
  ?peers:int -> seed:int -> unit -> Pgrid_construction.Net_engine.outcome

(** Figure 7: online peers over the 500-minute timeline (ramp, plateau,
    churn dip). *)
val fig7 : ?peers:int -> seed:int -> unit -> Pgrid_stats.Series.figure

(** Figure 8: aggregate bandwidth per peer, maintenance vs queries
    (construction peak, then decay). *)
val fig8 : ?peers:int -> seed:int -> unit -> Pgrid_stats.Series.figure

(** Figure 9: query latency mean and standard deviation over time (flat,
    then elevated and noisy under churn). *)
val fig9 : ?peers:int -> seed:int -> unit -> Pgrid_stats.Series.figure

(** Table 1 (in-text statistics of Section 5.2): paper value vs measured
    value rows. *)
val table1 : ?peers:int -> seed:int -> unit -> string list * string list list

(** One row of the resilience sweep: the full networked timeline rerun
    with the hardened request/response tracker at one fault severity. *)
type resilience_row = {
  severity : float;  (** 0 = hardened but fault-free baseline *)
  deviation : float;  (** load-balance deviation after construction *)
  success_pct : float;  (** completed queries that succeeded, percent *)
  mean_latency : float;  (** seconds, successful queries *)
  issued : int;
  succeeded : int;
  timeouts : int;
  retries : int;
  give_ups : int;
  evictions : int;  (** stale references evicted by correction-on-use *)
  crashes : int;
  loss_drops : int;
  partition_drops : int;
}

(** [resilience ~seed ()] sweeps fault severity over a fixed
    bursty-loss + partition + crash-restart plan (see
    {!Pgrid_simnet.Fault}), scaled by each severity in [severities]
    (default [0; 0.5; 1]).  Severity 0 runs the hardened tracker with no
    faults.
    Expected: deviation within 2x the severity-0 row and success >= 80%
    at severity 0.5. *)
val resilience :
  ?peers:int -> ?severities:float list -> seed:int -> unit -> resilience_row list

(** Render a sweep as a printable (columns, rows) table. *)
val resilience_table : resilience_row list -> string list * string list list

(** Ablation X1 (Section 4.3): sequential joins vs parallel construction —
    messages comparable, serialized latency vs flat round count. *)
val ablation_sequential : ?sizes:int list -> seed:int -> unit -> string list * string list list

(** Ablation X2 (Section 3 cost claims): measured eager and AUT cost per
    peer at p = 1/2 against ln 2 and 2 ln 2. *)
val ablation_cost : ?sizes:int list -> ?reps:int -> seed:int -> unit -> string list * string list list

(** Ablation X3: the three sampling-bias corrections (none / Taylor
    Eqs. 9-10 / response calibration) on the single-bisection deviation. *)
val ablation_correction :
  ?n:int -> ?samples:int -> ?reps:int -> seed:int -> unit -> string list * string list list

(** Ablation X4 (paper Section 6 / reference [22]): range queries on the
    order-preserving overlay vs. a Prefix Hash Tree layered over a
    uniform-hashing DHT, message costs side by side. *)
val ablation_pht :
  ?peers:int -> ?keys:int -> seed:int -> unit -> string list * string list list

(** Ablation X5 (paper Section 1): fusing two independently constructed
    overlays with the same interaction protocol, against a from-scratch
    build over the union. *)
val ablation_merge : ?peers:int -> seed:int -> unit -> string list * string list list

(** Ablation X6 (paper Sections 1/6 maintenance model): graceful leaves,
    routing repair, re-joins and replication re-balancing on a
    constructed overlay, with query success measured at each step. *)
val ablation_maintenance :
  ?peers:int -> seed:int -> unit -> string list * string list list

(** {1 Survival: long-run churn + permanent-kill endurance}

    The self-healing experiment behind [SURVIVAL_0001.json]: construct a
    192-peer overlay, then run hours of paper churn (60-300 s offline
    every 300-600 s) plus a permanent-kill wave (30% of peers die with
    their stores wiped over the middle of the run) while fresh keys keep
    being inserted, with the maintenance daemon
    ({!Pgrid_core.Maintenance.install_daemon}) on or off.  Health
    ({!Pgrid_core.Health.check}), query success and lost-key counts are
    sampled periodically.  Both arms share every environmental seed, so
    churn, kills and the insert stream are identical; only the daemon
    differs. *)

(** One periodic sample of the running overlay. *)
type survival_point = {
  t : float;  (** simulated seconds since churn start *)
  online : int;
  score : float;  (** {!Pgrid_core.Health.report.score} *)
  ref_violations : int;
  under_replicated : int;
  at_risk : int;
  lost : int;
  success_pct : float;  (** routed / issued of a 200-query batch *)
  found_pct : float;  (** payload found / issued *)
}

(** One arm (daemon on or off) of the experiment. *)
type survival_run = {
  daemon : bool;
  points : survival_point list;  (** chronological *)
  final_lost : int;
  min_success_pct : float;
  mean_score : float;
  kills : int;
  rereplications : int;
  exchanges : int;  (** productive anti-entropy exchanges *)
  keys_synced : int;
  inserted : int;  (** live inserts during the run *)
  insert_failures : int;
}

type survival = {
  peers : int;
  horizon : float;
  sample_every : float;
  on : survival_run;
  off : survival_run;
}

(** [survival ~seed ()] runs both arms.  Defaults: 192 peers, a 7200 s
    (2 h) horizon sampled every 240 s, a 30 s maintenance period. *)
val survival :
  ?peers:int ->
  ?horizon:float ->
  ?sample_every:float ->
  ?maint_period:float ->
  seed:int ->
  unit ->
  survival

(** Time series: minutes, online count, and score / query success /
    lost / at-risk for each arm side by side. *)
val survival_table : survival -> string list * string list list

(** Aggregates: min success, mean score, lost keys, kills, daemon
    counters. *)
val survival_summary : survival -> string list * string list list

(** {1 Balance experiment}

    The load-balancing counterpart of the survival run: a U-built
    overlay (one key per peer, so partitions are few and fat) takes a
    Pareto-1.5 insert storm — the paper's most skewed synthetic
    distribution — for [horizon] seconds, with the maintenance daemon's
    online balancing ({!Pgrid_core.Balance}) on in one arm and no
    daemon in the other.  Both arms share the storm seed. *)

(** Replication floor used by the balancing arms and the health audit
    (partitions may subdivide down to pairs). *)
val balance_n_min : int

(** The documented slack factor: the balanced arm's max partition load
    is expected to stay within [balance_slack * d_max] (splits fire on
    a period while inserts stream continuously, and membership floors
    bound trie depth). *)
val balance_slack : float

type balance_point = {
  t : float;
  partitions : int;  (** online partitions *)
  max_load : int;  (** largest per-partition distinct-key load *)
  mean_load : float;
  score : float;
  success_pct : float;
  found_pct : float;
}

type balance_run = {
  balanced : bool;
  points : balance_point list;  (** chronological *)
  final_max_load : int;
  peak_max_load : int;
  final_partitions : int;
  min_success_pct : float;
  mean_score : float;
  splits : int;  (** runtime splits performed *)
  retracts : int;
  keys_moved : int;  (** keys dropped + copies created by balancing *)
  inserted : int;
  insert_failures : int;
}

type balance = {
  peers : int;
  horizon : float;
  sample_every : float;
  d_max : int;
  on : balance_run;
  off : balance_run;
}

(** [balance ~seed ()] runs both arms.  Defaults: 192 peers, a 3600 s
    horizon sampled every 180 s, [d_max = 50]. *)
val balance :
  ?peers:int ->
  ?horizon:float ->
  ?sample_every:float ->
  ?d_max:int ->
  seed:int ->
  unit ->
  balance

(** Time series: minutes, partition count, max load, score and query
    success for each arm side by side. *)
val balance_table : balance -> string list * string list list

(** Aggregates: final/peak max load against the slack bound, split /
    retract counts, query success and health. *)
val balance_summary : balance -> string list * string list list

(** {1 Transaction experiment}

    Atomic document indexing under crash-during-commit faults: a
    constructed overlay takes a stream of multi-key document inserts
    through {!Pgrid_core.Txn} (one coordinator, 3-6 keys per document)
    while a Poisson crash-restart process — its rate scaled by a
    severity knob — knocks peers over mid-protocol.  Prepares, acks and
    commit/abort pushes ride a lossy, latency-bearing simulated
    network; a periodic {!Pgrid_core.Txn.recover_pass} replays intent
    logs, with a final sweep after the presumed-abort window.  The
    audit judges the durable stores directly: a settled document must
    be fully indexed (committed) or fully scrubbed (aborted) —
    anything else is a torn state. *)

(** Replication floor of the transaction experiment's health audit. *)
val txn_n_min : int

(** One severity arm's end-of-run audit. *)
type txn_point = {
  severity : float;  (** crash-rate scale (0 = fault-free) *)
  submitted : int;
  committed : int;
  aborted : int;
  still_pending : int;  (** undecided at audit time (expected 0) *)
  commit_pct : float;  (** committed / submitted *)
  torn : int;  (** {!Pgrid_core.Health.Torn_write} count over settled docs *)
  lost_committed : int;  (** committed docs absent from every store *)
  abort_residue : int;  (** aborted docs still present under any key *)
  recovered : int;  (** intent-log records resolved by recovery *)
  redelivered : int;  (** committed ops re-applied during recovery *)
  undos : int;  (** routed undo operations executed on aborts *)
  timeouts : int;
  txn_retries : int;
  crashes : int;
  intents_left : int;  (** outstanding intents after the final sweep *)
}

type txn_outcome = {
  txn_peers : int;
  txn_horizon : float;
  doc_interval : float;
  points : txn_point list;  (** ascending severity, as requested *)
}

(** [txn ~seed ()] runs one arm per severity (default [0; 0.3; 0.6]).
    Defaults: 192 peers, a 3600 s horizon, a document every 6 s. *)
val txn :
  ?peers:int ->
  ?horizon:float ->
  ?doc_interval:float ->
  ?severities:float list ->
  seed:int ->
  unit ->
  txn_outcome

(** One row per severity: volumes, commit rate, and the three torn-state
    audits (torn / lost / residue) that must all be zero. *)
val txn_table : txn_outcome -> string list * string list list

(** {1 Overload experiment}

    A two-arm Zipf-1.1 lookup storm through the simulated network
    ({!Pgrid_query.Storm}) with every peer behind a bounded service rate
    ({!Pgrid_simnet.Net.overload_config}).  Offered load ramps from
    [base_rate] to [peak_rate] queries/s over the middle third of the
    run and back; under the skew the binding constraint is the service
    capacity of the hottest partitions' replica sets, which the plateau
    exceeds severalfold.  The {e protected} arm bounds queues (sheds),
    breaks circuits to saturated replicas and hedges slow hops; the
    {e unprotected} arm has effectively unbounded queues, no breakers
    and no hedging, and exhibits the classic metastable collapse:
    backlogs on hot replicas absorb service slots long after the ramp
    ends, so goodput stays depressed while the protected arm returns to
    its pre-ramp baseline.  Both arms receive the identical storm
    (arrival times, keys, origins come from dedicated streams). *)

(** Per-peer messages/second every peer can service in this experiment. *)
val overload_service_rate : float

type overload_point = {
  t : float;  (** window start, simulated seconds *)
  offered : float;  (** queries issued per second over the window *)
  goodput : float;  (** successful completions per second *)
  shed : int;  (** service-queue sheds during the window *)
  backlog : int;  (** messages queued network-wide at window end *)
  in_flight : int;  (** client requests awaiting reply or timeout *)
}

type overload_run = {
  protected : bool;
  points : overload_point list;  (** 24 windows, chronological *)
  pre_goodput : float;  (** mean goodput, settled half of the warm phase *)
  post_goodput : float;  (** mean goodput, final quarter of the run *)
  recovery_ratio : float;  (** post / pre *)
  recovered : bool;  (** some post-ramp window reached 90% of pre *)
  time_to_recover : float;
      (** seconds after ramp end; the whole remaining horizon if never *)
  p50_completion : float;  (** seconds, successful lookups *)
  p99_completion : float;
  shed_ratio : float;  (** sheds / messages sent *)
  messages_sent : int;
  messages_dropped : int;
  storm_stats : Pgrid_query.Storm.stats;
}

type overload = {
  peers : int;
  horizon : float;
  base_rate : float;
  peak_rate : float;
  on : overload_run;  (** protected *)
  off : overload_run;  (** unprotected *)
}

(** [overload ~seed ()] runs both arms.  Defaults: 10k peers, a 1440 s
    run (240 s warm, 480 s storm, 720 s recovery), 30 -> 300
    queries/s. *)
val overload :
  ?peers:int ->
  ?horizon:float ->
  ?base_rate:float ->
  ?peak_rate:float ->
  seed:int ->
  unit ->
  overload

(** Time series: minutes, offered load, and goodput / sheds / backlog
    for each arm side by side. *)
val overload_table : overload -> string list * string list list

(** Aggregates: goodput recovery, completion percentiles, shed ratio,
    breaker and hedge counters. *)
val overload_summary : overload -> string list * string list list

(** {1 Partition experiment}

    Split-brain survival: the network is cut in half for the middle
    half of the run ({!Pgrid_simnet.Fault.Partition}, [frac = 0.5])
    while a skewed insert storm, a routed delete stream and online load
    balancing keep running on both sides — every write and maintenance
    exchange gated by {!Pgrid_simnet.Fault.connected}, so each island
    only sees itself.  At heal the islands hold conflicting state:
    deletes one side never heard of, and paths the other side split on
    its own.  One arm runs {!Pgrid_core.Reconcile} (version-aware
    sync, tombstone push-back, deterministic structural repair); the
    baseline arm keeps the legacy union-only anti-entropy.  Both arms
    share every environmental seed. *)

(** Replication floor of the partition experiment's health audit. *)
val partition_n_min : int

type partition_point = {
  t : float;
  score : float;
  lost : int;
  resurrected : int;  (** deleted keys live again somewhere online *)
  diverged : int;  (** paths inhabited alongside a strict descendant *)
  tombstones : int;  (** tombstone debt across online peers *)
  success_pct : float;
  found_pct : float;
}

type partition_run = {
  reconciling : bool;
  points : partition_point list;  (** chronological *)
  converged_at : float option;
      (** seconds after heal until the first sample with zero
          resurrected / diverged / lost that stays clean to the end *)
  final_resurrected : int;
  final_diverged : int;
  final_lost : int;
  peak_resurrected : int;
  peak_diverged : int;
  inserted : int;
  deleted : int;  (** routed whole-key deletes that found a route *)
  insert_failures : int;
  delete_failures : int;
  syncs : int;  (** productive sync exchanges (legacy or version-aware) *)
  repairs : int;  (** divergences {!Pgrid_core.Reconcile.repair_structure} resolved *)
  tombstones_purged : int;
  splits : int;  (** runtime splits (both islands combined) *)
}

type partition = {
  peers : int;
  horizon : float;
  sample_every : float;
  heal_at : float;  (** the cut spans [[0.25 * horizon, 0.75 * horizon]] *)
  bound : float;  (** committed convergence bound: [0.125 * horizon] *)
  on : partition_run;
  off : partition_run;
}

(** [partition ~seed ()] runs both arms.  Defaults: 1024 peers, a
    14400 s (4 h) horizon sampled every 240 s — a 2 h cut healing at
    t = 3 h, with a 1800 s convergence bound. *)
val partition :
  ?peers:int ->
  ?horizon:float ->
  ?sample_every:float ->
  seed:int ->
  unit ->
  partition

(** Time series: minutes, resurrected / diverged / lost / tombstone
    debt / score for each arm side by side. *)
val partition_table : partition -> string list * string list list

(** Aggregates: convergence verdict and time, end-state violations,
    sync / repair / GC counters, workload volume. *)
val partition_summary : partition -> string list * string list list

(** One arm of the query-storm experiment: the same pregenerated
    million-draw Zipf-1.1 trace replayed with the route/result caches
    on or off.  [seconds] is CPU time and therefore machine-dependent;
    [qps] is the serial-replay throughput over a {e modeled} network —
    every hop charged the PlanetLab median one-way delay, every cache
    probe a local-lookup cost — so it, like every remaining field, is
    seed-deterministic. *)
type queries_arm = {
  cached : bool;
  issued : int;
  routed : int;
  found : int;
  mean_hops : float;
  p50_hops : int;
  p99_hops : int;
  peak_hops : int;
  seconds : float;
  qps : float;
  hit_ratio : float;
  result_hits : int;
  route_hits : int;
  stale_probes : int;
}

(** Stale-cache correctness audit under a live balance storm (skewed
    inserts force runtime splits; churn turns cached targets stale).
    [wrong_responsible] and [storm_mismatch] must be 0: validation on
    use means a stale entry costs a fallback hop, never a wrong
    answer. *)
type queries_storm = {
  storm_queries : int;
  storm_routed : int;
  wrong_responsible : int;
  storm_stale : int;
  storm_mismatch : int;
  storm_splits : int;
  storm_invalidations : int;
  storm_hit_ratio : float;
}

(** Batched lookups sharing a walk ({!Pgrid_query.Engine.lookup_many}),
    measured cache-less so [batch_messages] vs [batch_naive] isolates
    the prefix-sharing win. *)
type queries_batch = {
  batch_groups : int;
  batch_keys : int;
  batch_messages : int;
  batch_naive : int;
  batch_unresolved : int;
}

type queries = {
  peers : int;
  count : int;
  on : queries_arm;
  off : queries_arm;
  storm : queries_storm;
  batch : queries_batch;
}

(** [queries ~seed ()] runs the full bundle (both arms, batch
    measurement, balance-storm audit).  Defaults: 10k peers, one million queries.  Construction is followed
    by one global anti-entropy round, so both arms must report identical
    [routed] / [found]. *)
val queries : ?peers:int -> ?count:int -> seed:int -> unit -> queries

(** Arm-by-arm comparison: volume, hop percentiles, throughput, cache
    counters. *)
val queries_summary : queries -> string list * string list list

(** The correctness audit and batching rows. *)
val queries_storm_summary : queries -> string list * string list list
