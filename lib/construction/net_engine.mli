(** The full-system experiment on the simulated network — this repo's
    substitute for the paper's PlanetLab deployment (Section 5).

    The timeline follows the paper: peers join (0-100 min) and form an
    unstructured overlay, replicate their keys to [n_min] random-walk
    targets (45-100 min), construct the structured overlay with the
    {!Engine} protocol (100-300 min), answer queries (300 min to the end),
    and endure churn (430-500 min; every peer offline 1-5 min every 5-10
    min).  Message latency, loss, per-kind bandwidth and query retries are
    simulated by [Pgrid_simnet]; the outcome carries the time series of
    Figures 7 (population), 8 (bandwidth) and 9 (query latency) plus the
    in-text statistics. *)

type phases = {
  join_end : float;
  replicate_start : float;
  construct_start : float;
  construct_end : float;
  query_start : float;
  churn_start : float;
  end_time : float;
}

(** The paper's timeline in seconds (minutes 0/45/100/300/430/500). *)
val paper_phases : phases

(** Parameters of the hardened request/response tracker (active whenever
    a [robust] config or a non-empty [fault_plan] is given): each query
    hop is preceded by a Ping/Pong liveness round trip with a
    per-request timeout of
    [req_timeout * backoff^attempt * (1 + jitter * U\[0,1))] seconds and
    up to [max_retries] re-sends; [evict_after] consecutive timeouts on
    the same (holder, reference) link trigger correction-on-use eviction
    ({!Pgrid_core.Maintenance.correct_on_use}). *)
type robust = {
  req_timeout : float;
  backoff : float;
  jitter : float;
  max_retries : int;
  evict_after : int;
}

(** 2 s base timeout, factor-2 backoff with 20% jitter, 3 retries,
    eviction after 2 consecutive timeouts. *)
val default_robust : robust

type robust_stats = {
  timeouts : int;
  retries : int;
  give_ups : int;  (** requests abandoned (retry budget or eviction) *)
  evictions : int;  (** references evicted by correction-on-use *)
  breaker_opens : int;  (** circuit-breaker open transitions *)
  breaker_skips : int;  (** hop attempts refused by an open breaker *)
}

(** Document-indexing workload for the transaction layer
    ({!Pgrid_core.Txn}): from [query_start] on, every [doc_interval]
    seconds (exponential) a random online coordinator atomically indexes
    one document under [keys_min .. keys_max] distinct keys, and every
    [recover_period] seconds a {!Pgrid_core.Txn.recover_pass} replays
    outstanding intent logs (plus one final sweep after the run, once
    churned peers are back). *)
type txn_workload = {
  txn_config : Pgrid_core.Txn.config;
  doc_interval : float;
  keys_min : int;
  keys_max : int;
  recover_period : float;
}

(** {!Pgrid_core.Txn.default_config}, a document every 10 s mean,
    3-6 keys per document, recovery every 60 s. *)
val default_txn_workload : txn_workload

type params = {
  peers : int;
  keys_per_peer : int;
  n_min : int;
  d_max : int;
  degree : int;  (** unstructured overlay degree *)
  walk_steps : int;  (** random-walk length for peer sampling *)
  latency : Pgrid_simnet.Latency.model;
  loss : float;
  bucket : float;  (** bandwidth bucket (seconds) *)
  header_bytes : int;
  key_bytes : int;
  initiate_mean : float;  (** mean pause between construction initiations *)
  ping_interval : float;  (** periodic routing-table ping *)
  query_min : float;  (** paper: a query every 1-2 minutes per peer *)
  query_max : float;
  retry_timeout : float;  (** per dead-reference timeout penalty *)
  max_fruitless : int;
  refer_hops : int;
  mode : Engine.mode;
  phases : phases;
  churn : Pgrid_simnet.Churn.params option;
      (** [None]: the paper's churn cycle over [churn_start, end_time] *)
  robust : robust option;
      (** [None] with an empty [fault_plan]: the legacy synchronous query
          model (dead reference = flat [retry_timeout] penalty), RNG
          draw sequence bit-identical to pre-fault builds. Otherwise the
          hardened tracker runs (with {!default_robust} when only a
          fault plan is given). *)
  fault_plan : Pgrid_simnet.Fault.plan;  (** [[]]: no fault injection *)
  fault_seed : int;  (** seed of the fault layer's dedicated RNG *)
  maint : Pgrid_core.Maintenance.daemon_config option;
      (** [Some]: install the self-healing maintenance daemon
          ({!Pgrid_core.Maintenance.install_daemon}) on the simulator at
          [query_start], running until [end_time].  [None] (the default)
          leaves the run — including its RNG draw sequence —
          bit-identical to pre-daemon builds. *)
  txn : txn_workload option;
      (** [Some]: run the transaction workload, with protocol messages
          (prepare / ack / commit / abort) carried by the simulated
          network as maintenance traffic — so loss, latency and offline
          peers genuinely delay or drop them.  When a fault plan is
          active, crashes invalidate the crashed peer's in-flight
          coordinations ({!Pgrid_core.Txn.note_crash}); when the
          maintenance daemon is also installed its health monitor audits
          settled documents for torn writes.  [None] (the default)
          leaves the run bit-identical to pre-transaction builds. *)
  service : Pgrid_simnet.Net.overload_config option;
      (** [Some]: bounded per-peer service queues with load shedding
          ({!Pgrid_simnet.Net.overload_config}).  [None] (the default)
          keeps delivery capacity-unbounded and the run bit-identical
          to pre-overload builds. *)
  breaker : Pgrid_simnet.Breaker.config option;
      (** [Some]: per-(origin, target) circuit breakers on the hardened
          query path — [k] consecutive timeouts open the link, retries
          fail over to sibling references until a half-open probe
          succeeds.  Implies the hardened tracker (with
          {!default_robust} when [robust] is [None]).  [None] (the
          default) leaves the tracker byte-identical to PR-3
          behaviour. *)
}

(** Paper-like defaults for ~296 peers. *)
val default_params : peers:int -> params

type query_stats = {
  issued : int;
  succeeded : int;
  failed : int;
  mean_hops : float;
  mean_latency : float;  (** seconds, successful queries *)
}

type outcome = {
  overlay : Pgrid_core.Overlay.t;
  reference : Pgrid_partition.Reference.t;
  deviation : float;
  online_series : (float * int) list;  (** (minute, online peers) — Fig 7 *)
  maintenance_bw : (float * float) list;
      (** (minute, bytes/sec per online peer) — Fig 8 *)
  query_bw : (float * float) list;
  latency_series : (float * float * float) list;
      (** (minute bucket, mean, stddev) of query latency — Fig 9 *)
  query_stats : query_stats;
  stats : Pgrid_core.Overlay.stats;
  counters : Engine.counters;
  messages_sent : int;
  messages_dropped : int;
  messages_shed : int;
      (** shed by bounded service queues; 0 unless [params.service] *)
  queue_peak : int;  (** deepest service queue observed; 0 without [service] *)
  robust_stats : robust_stats;  (** all zero on legacy runs *)
  fault_stats : Pgrid_simnet.Fault.stats option;
      (** [Some] iff a fault plan was installed *)
  maint_stats : Pgrid_core.Maintenance.daemon_stats option;
      (** [Some] iff the maintenance daemon ran *)
  txn : Pgrid_core.Txn.t option;
      (** the transaction manager, for post-run audits
          ({!Pgrid_core.Txn.settled_docs}, {!Pgrid_core.Health.check}) *)
  txn_stats : Pgrid_core.Txn.stats option;
      (** [Some] iff the transaction workload ran *)
}

(** [run ?telemetry rng params ~spec] executes the full timeline.
    Deterministic for a given seed. [telemetry] (default
    {!Pgrid_telemetry.Global.get}) observes the whole run with
    simulated-time stamps: engine operations (via {!Engine}), per-kind
    message traffic (via {!Pgrid_simnet.Net}), churn transitions and the
    query lifecycle (issue / hop / complete, correlated by query id).
    Raises [Invalid_argument] on fewer than 8 peers or a [robust] config
    with [req_timeout <= 0], [backoff < 1], [jitter] outside [\[0, 1)],
    [max_retries < 0] or [evict_after < 1]. *)
val run :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  Pgrid_prng.Rng.t ->
  params ->
  spec:Pgrid_workload.Distribution.spec ->
  outcome
