module Series = Pgrid_stats.Series
module Table = Pgrid_stats.Table
module Storm = Pgrid_query.Storm
open Figures

type direction = Up | Down

type metric =
  | Value of { name : string; value : float; direction : direction }
  | Kernel of { name : string; ns_per_run : float; r_square : float option }

type gate = { gate : string; holds : (string -> float) -> bool }

type 'r spec = {
  name : string;
  title : string;
  notes : string list;
  run : smoke:bool -> seed:int -> reps:int option -> 'r;
  print : standalone:bool -> 'r -> unit;
  metrics : 'r -> metric list;
  gates : gate list;
}

type t = E : 'r spec -> t
type outcome = O : 'r spec * 'r -> outcome

let micro_quota_ms = ref 500.

(* --- building blocks --------------------------------------------------- *)

let up name value = Value { name; value; direction = Up }
let down name value = Value { name; value; direction = Down }
let count dir name n = dir name (float_of_int n)

(* [at tag name t] names the sample of a time series taken at [t]. *)
let at tag name t = Printf.sprintf "%s/%s@%.0f" tag name t
let table title (columns, rows) = Table.print ~title ~columns ~rows
let series ~standalone:_ f = Series.print f
let tables parts ~standalone:_ r = List.iter (fun (title, f) -> table title (f r)) parts

(* Experiments that average over repetitions run one in the smoke
   preset, unless the caller asks for a count. *)
let reps_for ~smoke reps = if reps = None && smoke then Some 1 else reps

let v ?(notes = []) ?(metrics = fun _ -> []) ?(gates = []) name title ~run ~print =
  E { name; title; notes; run; print; metrics; gates }

let gate gate holds = { gate; holds }

(* --- Figures 6(a)-(f) --------------------------------------------------- *)

let fig6 name title note fig =
  v name title ~notes:[ note ]
    ~run:(fun ~smoke ~seed ~reps -> fig ?reps:(reps_for ~smoke reps) ~seed ())
    ~print:(fun ~standalone:_ f ->
      print_endline (fig6_table f);
      print_newline ())
    ~metrics:(fun f ->
      List.concat
        (List.mapi
           (fun i cat ->
             List.map2
               (fun dist value -> down (cat ^ "/" ^ dist) value)
               f.distributions
               (Array.to_list f.values.(i)))
           f.categories))

(* --- two-arm and sweep experiments -------------------------------------- *)

let resilience_metrics rows =
  List.concat_map
    (fun (r : resilience_row) ->
      let m dir name value = dir (Printf.sprintf "s%.1f/%s" r.severity name) value in
      let c dir name n = m (count dir) name n in
      [
        m down "deviation" r.deviation;
        m up "success_pct" r.success_pct;
        m down "mean_latency" r.mean_latency;
        c down "issued" r.issued;
        c down "timeouts" r.timeouts;
        c down "retries" r.retries;
        c down "give_ups" r.give_ups;
        c down "evictions" r.evictions;
        c down "crashes" r.crashes;
      ])
    rows

(* Aggregates per arm, the per-sample series, and the score dominance
   fractions the gate watches. *)
let survival_metrics (s : survival) =
  let arm tag (r : survival_run) =
    let m dir name value = dir (tag ^ "/" ^ name) value in
    let c dir name n = m (count dir) name n in
    [
      m up "min_success_pct" r.min_success_pct;
      m up "mean_score" r.mean_score;
      c down "final_lost" r.final_lost;
      c down "kills" r.kills;
      c down "rereplications" r.rereplications;
      c down "exchanges" r.exchanges;
      c down "keys_synced" r.keys_synced;
      c down "inserted" r.inserted;
      c down "insert_failures" r.insert_failures;
    ]
    @ List.concat_map
        (fun (p : survival_point) ->
          [
            up (at tag "score" p.t) p.score;
            up (at tag "success_pct" p.t) p.success_pct;
            count down (at tag "lost" p.t) p.lost;
          ])
        r.points
  in
  let n = max 1 (List.length s.on.points) in
  let ge, gt =
    List.fold_left2
      (fun (ge, gt) (a : survival_point) (b : survival_point) ->
        ( (if a.score >= b.score then ge + 1 else ge),
          if a.score > b.score then gt + 1 else gt ))
      (0, 0) s.on.points s.off.points
  in
  arm "on" s.on @ arm "off" s.off
  @ [
      up "dominance/ge_frac" (float_of_int ge /. float_of_int n);
      down "dominance/gt_frac" (float_of_int gt /. float_of_int n);
    ]

let balance_metrics (b : balance) =
  let arm tag (r : balance_run) =
    let m dir name value = dir (tag ^ "/" ^ name) value in
    let c dir name n = m (count dir) name n in
    [
      c down "final_max_load" r.final_max_load;
      c down "peak_max_load" r.peak_max_load;
      c down "final_partitions" r.final_partitions;
      m up "min_success_pct" r.min_success_pct;
      m up "mean_score" r.mean_score;
      c down "splits" r.splits;
      c down "retracts" r.retracts;
      c down "keys_moved" r.keys_moved;
      c down "inserted" r.inserted;
      c down "insert_failures" r.insert_failures;
    ]
    @ List.concat_map
        (fun (p : balance_point) ->
          [
            count down (at tag "max_load" p.t) p.max_load;
            up (at tag "score" p.t) p.score;
            up (at tag "success_pct" p.t) p.success_pct;
          ])
        r.points
  in
  (down "bound/max_load" (balance_slack *. float_of_int b.d_max) :: arm "on" b.on)
  @ arm "off" b.off

let txn_metrics (t : txn_outcome) =
  List.concat_map
    (fun (p : txn_point) ->
      let m dir name value = dir (Printf.sprintf "s%.1f/%s" p.severity name) value in
      let c dir name n = m (count dir) name n in
      [
        m up "commit_pct" p.commit_pct;
        c up "submitted" p.submitted;
        c up "committed" p.committed;
        c down "aborted" p.aborted;
        c down "pending" p.still_pending;
        c down "torn" p.torn;
        c down "lost_committed" p.lost_committed;
        c down "abort_residue" p.abort_residue;
        c up "recovered" p.recovered;
        c down "redelivered" p.redelivered;
        c down "undos" p.undos;
        c down "timeouts" p.timeouts;
        c down "retries" p.txn_retries;
        c down "crashes" p.crashes;
        c down "intents_left" p.intents_left;
      ])
    t.points

(* Per-arm aggregates and per-window series; the cross-arm
   [protection/*] values are the recovery and tail-latency gaps the
   protected arm opens over the unprotected one. *)
let overload_metrics (o : overload) =
  let arm tag (r : overload_run) =
    let m dir name value = dir (tag ^ "/" ^ name) value in
    let c dir name n = m (count dir) name n in
    let s = r.storm_stats in
    [
      m up "pre_goodput" r.pre_goodput;
      m up "post_goodput" r.post_goodput;
      m up "recovery_ratio" r.recovery_ratio;
      m up "recovered" (if r.recovered then 1. else 0.);
      m down "time_to_recover" r.time_to_recover;
      m down "p50_completion" r.p50_completion;
      m down "p99_completion" r.p99_completion;
      m down "shed_ratio" r.shed_ratio;
      c down "messages_sent" r.messages_sent;
      c down "messages_dropped" r.messages_dropped;
      c up "issued" s.Storm.issued;
      c up "succeeded" s.Storm.succeeded;
      c down "failed" s.Storm.failed;
      c down "timeouts" s.Storm.timeouts;
      c down "retries" s.Storm.retries;
      c down "give_ups" s.Storm.give_ups;
      c down "hedges" s.Storm.hedges;
      c up "hedge_wins" s.Storm.hedge_wins;
      c down "breaker_opens" s.Storm.breaker_opens;
      c down "breaker_skips" s.Storm.breaker_skips;
      c down "sheds" s.Storm.sheds;
      c down "sheds_query" s.Storm.sheds_query;
      c down "sheds_maintenance" s.Storm.sheds_maintenance;
      c down "queue_peak" s.Storm.queue_peak;
    ]
    @ List.concat_map
        (fun (p : overload_point) ->
          [
            up (at tag "goodput" p.t) p.goodput;
            count down (at tag "shed" p.t) p.shed;
            count down (at tag "backlog" p.t) p.backlog;
          ])
        r.points
  in
  arm "on" o.on @ arm "off" o.off
  @ [
      up "protection/recovery_gain" (o.on.recovery_ratio -. o.off.recovery_ratio);
      up "protection/p99_gain" (o.off.p99_completion -. o.on.p99_completion);
    ]

(* One block per configuration ([smoke/] is the fixed smoke config,
   [full/] the paper-scale one).  [qps] and [speedup] rest on the
   modeled network and are seed-deterministic like every other value. *)
let queries_metrics configs =
  List.concat_map
    (fun (tag, (q : queries)) ->
      let m dir name value = dir (tag ^ "/" ^ name) value in
      let c dir name n = m (count dir) name n in
      let arm atag (a : queries_arm) =
        let am dir name value = m dir (atag ^ "/" ^ name) value in
        let ac dir name n = am (count dir) name n in
        [
          ac up "issued" a.issued;
          ac up "routed" a.routed;
          ac up "found" a.found;
          am down "mean_hops" a.mean_hops;
          ac down "p50_hops" a.p50_hops;
          ac down "p99_hops" a.p99_hops;
          ac down "max_hops" a.peak_hops;
          am up "qps" a.qps;
        ]
        @
        if a.cached then
          [
            am up "hit_ratio" a.hit_ratio;
            ac up "result_hits" a.result_hits;
            ac up "route_hits" a.route_hits;
            ac down "stale_probes" a.stale_probes;
          ]
        else []
      in
      let s = q.storm and b = q.batch in
      arm "on" q.on @ arm "off" q.off
      @ [
          m up "speedup" (q.on.qps /. q.off.qps);
          m up "hop_reduction" (1. -. (q.on.mean_hops /. q.off.mean_hops));
          c up "storm/queries" s.storm_queries;
          c up "storm/routed" s.storm_routed;
          c down "storm/wrong_responsible" s.wrong_responsible;
          c down "storm/mismatch" s.storm_mismatch;
          c up "storm/stale" s.storm_stale;
          c up "storm/splits" s.storm_splits;
          c up "storm/invalidations" s.storm_invalidations;
          m up "storm/hit_ratio" s.storm_hit_ratio;
          c up "batch/groups" b.batch_groups;
          c up "batch/keys" b.batch_keys;
          c down "batch/messages" b.batch_messages;
          c down "batch/naive_messages" b.batch_naive;
          c down "batch/unresolved" b.batch_unresolved;
          m up "batch/saving_frac"
            (if b.batch_naive = 0 then 0.
             else 1. -. (float_of_int b.batch_messages /. float_of_int b.batch_naive));
        ])
    configs

let partition_metrics (x : partition) =
  let arm tag (r : partition_run) =
    let m dir name value = dir (tag ^ "/" ^ name) value in
    let c dir name n = m (count dir) name n in
    [
      m up "converged" (match r.converged_at with Some _ -> 1. | None -> 0.);
      m down "converge_seconds"
        (match r.converged_at with Some s -> s | None -> x.horizon);
      c down "final_resurrected" r.final_resurrected;
      c down "final_diverged" r.final_diverged;
      c down "final_lost" r.final_lost;
      c down "peak_resurrected" r.peak_resurrected;
      c down "peak_diverged" r.peak_diverged;
      c up "inserted" r.inserted;
      c up "deleted" r.deleted;
      c down "insert_failures" r.insert_failures;
      c down "delete_failures" r.delete_failures;
      c up "syncs" r.syncs;
      c up "repairs" r.repairs;
      c up "tombstones_purged" r.tombstones_purged;
      c up "splits" r.splits;
    ]
    @ List.concat_map
        (fun (p : partition_point) ->
          [
            count down (at tag "resurrected" p.t) p.resurrected;
            count down (at tag "diverged" p.t) p.diverged;
            count down (at tag "lost" p.t) p.lost;
            count down (at tag "tombstones" p.t) p.tombstones;
            up (at tag "score" p.t) p.score;
          ])
        r.points
  in
  (down "bound/converge_seconds" x.bound :: arm "on" x.on) @ arm "off" x.off

(* Throughput improves up; allocation totals and deviation improve down. *)
let scale_metrics rows =
  List.concat_map
    (fun (r : Scale.row) ->
      let m dir name value = dir (Printf.sprintf "n=%d/%s" r.peers name) value in
      [
        m up "peers_per_second" r.peers_per_second;
        m down "build_minor_words" r.build_minor_words;
        m down "build_promoted_words" r.build_promoted_words;
        m down "deviation" r.deviation;
        m up "events_per_second" r.events_per_second;
        m down "sim_minor_words" r.sim_minor_words;
        m down "sim_promoted_words" r.sim_promoted_words;
      ])
    rows

let print_micro ~standalone:_ (estimates, route_pick_words) =
  let fmt decimals = function Some x -> Table.fmt_float ~decimals x | None -> "-" in
  table "hot kernels"
    ( [ "benchmark"; "ns/run"; "r^2" ],
      List.sort compare
        (List.map
           (fun (e : Micro.estimate) -> [ e.kernel; fmt 1 e.ns; fmt 4 e.r_square ])
           estimates) );
  Printf.printf "route-pick minor words/run: %g\n" route_pick_words

let micro_metrics (estimates, route_pick_words) =
  down "route-pick/minor_words" route_pick_words
  :: List.filter_map
       (fun (e : Micro.estimate) ->
         Option.map
           (fun ns_per_run -> Kernel { name = e.kernel; ns_per_run; r_square = e.r_square })
           e.ns)
       estimates

(* --- gates: each named by the predicate it checks ----------------------- *)

let survival_gates =
  [
    gate "on/final_lost <= off/final_lost" (fun v ->
        v "on/final_lost" <= v "off/final_lost");
    gate "dominance/ge_frac == 1.0" (fun v -> v "dominance/ge_frac" = 1.0);
  ]

let balance_gates =
  [
    gate "on/peak_max_load <= bound/max_load" (fun v ->
        v "on/peak_max_load" <= v "bound/max_load");
    gate "off/peak_max_load > bound/max_load" (fun v ->
        v "off/peak_max_load" > v "bound/max_load");
    gate "on/min_success_pct >= off/min_success_pct" (fun v ->
        v "on/min_success_pct" >= v "off/min_success_pct");
    gate "on/insert_failures == 0" (fun v -> v "on/insert_failures" = 0.);
  ]

(* A settled document is fully indexed or fully absent, at every
   severity; the commit rate holds under moderate crashes. *)
let txn_gates =
  List.concat_map
    (fun sev ->
      List.map
        (fun audit ->
          let name = sev ^ "/" ^ audit in
          gate (name ^ " == 0") (fun v -> v name = 0.))
        [ "torn"; "lost_committed"; "abort_residue"; "intents_left" ])
    [ "s0.0"; "s0.3"; "s0.6" ]
  @ [ gate "s0.3/commit_pct >= 95.0" (fun v -> v "s0.3/commit_pct" >= 95.0) ]

(* The protected arm regains >= 90% of pre-ramp goodput and sustains it;
   the unprotected arm must show the metastable collapse, or the storm
   no longer discriminates.  Admission control engages but stays a
   minority of traffic; the unbounded arm never sheds. *)
let overload_gates =
  [
    gate "on/recovery_ratio >= 0.9" (fun v -> v "on/recovery_ratio" >= 0.9);
    gate "on/recovered == 1.0" (fun v -> v "on/recovered" = 1.0);
    gate "off/recovery_ratio < 0.9" (fun v -> v "off/recovery_ratio" < 0.9);
    gate "off/recovered == 0.0" (fun v -> v "off/recovered" = 0.0);
    gate "0.0 < on/shed_ratio < 0.5" (fun v ->
        0.0 < v "on/shed_ratio" && v "on/shed_ratio" < 0.5);
    gate "off/sheds == 0" (fun v -> v "off/sheds" = 0.);
  ]

(* The reconciling arm reaches zero resurrected / diverged / lost within
   the bound after heal and stays clean; the union-only baseline must
   still show split-brain damage, or the cut no longer discriminates. *)
let partition_gates =
  [
    gate "on/converged == 1.0" (fun v -> v "on/converged" = 1.0);
    gate "on/converge_seconds <= bound/converge_seconds" (fun v ->
        v "on/converge_seconds" <= v "bound/converge_seconds");
    gate "on/final_resurrected == 0" (fun v -> v "on/final_resurrected" = 0.);
    gate "on/final_diverged == 0" (fun v -> v "on/final_diverged" = 0.);
    gate "on/final_lost == 0" (fun v -> v "on/final_lost" = 0.);
    gate "off/final_resurrected > 0 or off/final_diverged > 0" (fun v ->
        v "off/final_resurrected" > 0. || v "off/final_diverged" > 0.);
  ]

(* Agreement: both arms replay one trace, so caches change the path,
   never the answer.  Benefit: fewer hops and more modeled throughput,
   from caches that actually hit.  Staleness: under the live Balance
   storm a stale entry costs a fallback hop, never a wrong answer. *)
let queries_gates =
  [
    gate "smoke/on/routed == smoke/off/routed" (fun v ->
        v "smoke/on/routed" = v "smoke/off/routed");
    gate "smoke/on/found == smoke/off/found" (fun v ->
        v "smoke/on/found" = v "smoke/off/found");
    gate "smoke/on/found == smoke/on/issued" (fun v ->
        v "smoke/on/found" = v "smoke/on/issued");
    gate "smoke/hop_reduction >= 0.3" (fun v -> v "smoke/hop_reduction" >= 0.3);
    gate "smoke/speedup > 1.0" (fun v -> v "smoke/speedup" > 1.0);
    gate "smoke/on/hit_ratio > 0.0" (fun v -> v "smoke/on/hit_ratio" > 0.0);
    gate "smoke/storm/wrong_responsible == 0" (fun v ->
        v "smoke/storm/wrong_responsible" = 0.);
    gate "smoke/storm/mismatch == 0" (fun v -> v "smoke/storm/mismatch" = 0.);
    gate "smoke/storm/splits > 0" (fun v -> v "smoke/storm/splits" > 0.);
    gate "smoke/batch/unresolved == 0" (fun v -> v "smoke/batch/unresolved" = 0.);
  ]

(* --- the registry --------------------------------------------------------- *)

let pick ~smoke full small = if smoke then small else full

let all =
  [
    v "fig3" "Figure 3 -- alpha''(p)"
      ~notes:[ "paper: grows extremely fast for very small p (error-prone regime)" ]
      ~run:(fun ~smoke:_ ~seed:_ ~reps:_ -> fig3 ())
      ~print:series;
    v "fig4" "Figure 4 -- deviation of p0 from n*p (one bisection, n=1000, s=10)"
      ~notes:[ "paper: SAM/AEP systematically high; COR and AUT near zero" ]
      ~run:(fun ~smoke ~seed ~reps -> fig4 ?reps:(reps_for ~smoke reps) ~seed ())
      ~print:series;
    v "fig5" "Figure 5 -- total interactions (one bisection, n=1000, s=10)"
      ~notes:[ "paper: AEP family below AUT over most of the range; cost rises as p falls" ]
      ~run:(fun ~smoke ~seed ~reps -> fig5 ?reps:(reps_for ~smoke reps) ~seed ())
      ~print:series;
    fig6 "fig6a" "Figure 6(a) -- load-balance deviation vs population"
      "paper: stable across sizes; skew order U < P0.5 < P1.0 < P1.5 <= N, A" fig6a;
    fig6 "fig6b" "Figure 6(b) -- deviation vs required replication n_min"
      "paper: stable for mild skew, degrades for strong skew at large n_min" fig6b;
    fig6 "fig6c" "Figure 6(c) -- deviation vs data sample size d_max"
      "paper: no systematic influence of the sample size" fig6c;
    fig6 "fig6d" "Figure 6(d) -- theoretical vs heuristic decision probabilities"
      "paper: heuristics degrade load balance substantially" fig6d;
    fig6 "fig6e" "Figure 6(e) -- construction interactions per peer"
      "paper: 2-12 per peer, growing gracefully with network size" fig6e;
    fig6 "fig6f" "Figure 6(f) -- data keys moved per peer"
      "paper: grows gracefully with size; skew increases bandwidth" fig6f;
    v "fig7" "Figure 7 -- participating peers over time (simulated PlanetLab)"
      ~notes:[ "paper: ramp to ~300 during joins, plateau, dip under churn" ]
      ~run:(fun ~smoke:_ ~seed ~reps:_ -> fig7 ~seed ())
      ~print:series;
    v "fig8" "Figure 8 -- aggregate bandwidth per peer"
      ~notes:[ "paper shape: construction peak, fast decay; query traffic afterwards" ]
      ~run:(fun ~smoke:_ ~seed ~reps:_ -> fig8 ~seed ())
      ~print:series;
    v "fig9" "Figure 9 -- query latency over time"
      ~notes:[ "paper: flat during static phase; mean and deviation rise under churn" ]
      ~run:(fun ~smoke:_ ~seed ~reps:_ -> fig9 ~seed ())
      ~print:series;
    v "table1" "Table 1 -- in-text statistics of Section 5.2"
      ~run:(fun ~smoke:_ ~seed ~reps:_ -> table1 ~seed ())
      ~print:(fun ~standalone t ->
        table (if standalone then "in-text statistics" else "paper vs measured") t);
    v "resilience" "Resilience -- construction and queries under injected faults"
      ~notes:
        [
          "bursty loss + partition + crash-restart, scaled by severity; severity \
           0 = hardened fault-free baseline";
          "expected: deviation within 2x baseline and success >= 80% at severity 0.5";
        ]
      ~run:(fun ~smoke:_ ~seed ~reps:_ -> resilience ~seed ())
      ~print:(tables [ ("fault-severity sweep", resilience_table) ])
      ~metrics:resilience_metrics;
    v "ablation-seq" "Ablation X1 -- sequential joins vs parallel construction (Sec 4.3)"
      ~notes:[ "paper claim: messages comparable; latency O(n log n) vs O(log^2 n)" ]
      ~run:(fun ~smoke:_ ~seed ~reps:_ -> ablation_sequential ~seed ())
      ~print:(tables [ ("sequential vs parallel", Fun.id) ]);
    v "ablation-cost" "Ablation X2 -- interaction cost constants (Sec 3)"
      ~notes:[ "paper: eager = ln 2 per peer, AUT = 2 ln 2 per peer at p = 1/2" ]
      ~run:(fun ~smoke ~seed ~reps -> ablation_cost ?reps:(reps_for ~smoke reps) ~seed ())
      ~print:(tables [ ("cost per peer", Fun.id) ]);
    v "ablation-cor" "Ablation X3 -- sampling-bias corrections"
      ~notes:[ "Taylor Eqs. 9-10 overshoot where alpha'' varies; calibration holds" ]
      ~run:(fun ~smoke ~seed ~reps ->
        ablation_correction ?reps:(reps_for ~smoke reps) ~seed ())
      ~print:(tables [ ("mean deviation of p0", Fun.id) ]);
    v "ablation-pht"
      "Ablation X4 -- range queries: order-preserving overlay vs PHT-over-DHT"
      ~notes:[ "paper Sec 6: hashing needs an extra index and pays O(log n) per trie node" ]
      ~run:(fun ~smoke:_ ~seed ~reps:_ -> ablation_pht ~seed ())
      ~print:(tables [ ("message costs per range query", Fun.id) ]);
    v "ablation-merge" "Ablation X5 -- merging independently created indices"
      ~notes:[ "the same interaction protocol fuses two overlays without a rebuild" ]
      ~run:(fun ~smoke:_ ~seed ~reps:_ -> ablation_merge ~seed ())
      ~print:(tables [ ("merge vs fresh build", Fun.id) ]);
    v "ablation-maintain" "Ablation X6 -- maintenance: leaves, repair, re-joins, rebalancing"
      ~notes:[ "the sequential maintenance model operating on a constructed overlay" ]
      ~run:(fun ~smoke:_ ~seed ~reps:_ -> ablation_maintenance ~seed ())
      ~print:(tables [ ("maintenance timeline", Fun.id) ]);
    (* 30 samples across the horizon, but never denser than one per minute. *)
    v "survival" "Survival -- hours of churn + permanent kills, daemon on vs off"
      ~notes:
        [
          "paper churn (60-300 s offline every 300-600 s) plus a 30% permanent-kill wave";
          "expected: the daemon keeps query success >= 95% and loses no keys; the \
           daemon-off arm bleeds data";
        ]
      ~run:(fun ~smoke ~seed ~reps:_ ->
        let horizon = pick ~smoke 7200. 1800. in
        survival ~horizon ~sample_every:(Float.max 60. (horizon /. 30.)) ~seed ())
      ~print:
        (tables
           [
             ("health and query success over time", survival_table);
             ("endurance summary", survival_summary);
           ])
      ~metrics:survival_metrics ~gates:survival_gates;
    (* 20 samples across the horizon, but never denser than one per minute. *)
    v "balance" "Balance -- Pareto-1.5 insert storm, online balancing on vs off"
      ~notes:
        [
          "a U-built overlay takes a skewed storm; runtime splits follow the load";
          Printf.sprintf
            "expected: balanced max load <= %.1f x d_max while the unbalanced arm \
             exceeds it, query success no worse"
            balance_slack;
        ]
      ~run:(fun ~smoke ~seed ~reps:_ ->
        let horizon = pick ~smoke 3600. 1800. in
        balance ~horizon ~sample_every:(Float.max 60. (horizon /. 20.)) ~seed ())
      ~print:
        (tables
           [
             ("partition load and query success over time", balance_table);
             ("balance summary", balance_summary);
           ])
      ~metrics:balance_metrics ~gates:balance_gates;
    v "txn" "Txn -- atomic document indexing under crash-during-commit faults"
      ~notes:
        [
          "2PC over the simulated network with durable per-peer intent logs; a \
           Poisson crash process scaled by severity interrupts commits";
          "expected: zero torn index states, zero lost committed documents and zero \
           abort residue at every severity; commit rate degrades gracefully";
        ]
      ~run:(fun ~smoke ~seed ~reps:_ -> txn ~horizon:(pick ~smoke 3600. 1800.) ~seed ())
      ~print:(tables [ ("crash-severity sweep", txn_table) ])
      ~metrics:txn_metrics ~gates:txn_gates;
    v "overload" "Overload -- Zipf-1.1 query storm, protection on vs off"
      ~notes:
        [
          "offered load ramps past the hot partitions' aggregate service capacity \
           and back; every peer drains a bounded queue at a fixed rate";
          "expected: the protected arm (shedding + breakers + hedging) regains >= \
           90% of pre-ramp goodput after the ramp; the unprotected arm stays \
           depressed (metastable collapse)";
        ]
      ~run:(fun ~smoke ~seed ~reps:_ ->
        overload ~peers:(pick ~smoke 10_000 2000) ~horizon:(pick ~smoke 1440. 720.)
          ~seed ())
      ~print:
        (tables
           [
             ("offered load, goodput, sheds and backlog over time", overload_table);
             ("overload summary", overload_summary);
           ])
      ~metrics:overload_metrics ~gates:overload_gates;
    (* The smoke configuration always runs first: its deterministic
       metrics are diffed exactly against QUERIES_0001.json. *)
    v "queries" "Queries -- Zipf-1.1 lookup storm, route/result caches on vs off"
      ~notes:
        [
          "both arms replay the identical pregenerated trace over the same overlay; \
           validation on use means a stale cache entry costs a fallback hop, never \
           a wrong responsible peer";
          "expected: the cached arm cuts mean hops and raises queries/s; wrong \
           responsible and store mismatches stay 0 under the live balance storm";
        ]
      ~run:(fun ~smoke ~seed ~reps:_ ->
        let config tag ~peers ~count = (tag, queries ~peers ~count ~seed ()) in
        let small = config "smoke" ~peers:2000 ~count:100_000 in
        if smoke then [ small ]
        else [ small; config "full" ~peers:10_000 ~count:1_000_000 ])
      ~print:(fun ~standalone:_ ->
        List.iter (fun (tag, (q : queries)) ->
            table
              (Printf.sprintf "%s (%d peers, %d queries): cache on vs off" tag q.peers
                 q.count)
              (queries_summary q);
            table (tag ^ ": storm audit and shared-walk batching")
              (queries_storm_summary q)))
      ~metrics:queries_metrics ~gates:queries_gates;
    (* 60 samples across the horizon, but never denser than one per minute. *)
    v "partition" "Partition -- split-brain window, reconciliation on vs off"
      ~notes:
        [
          "the network halves for the middle half of the run while skewed inserts, \
           routed deletes and load balancing keep running on both sides";
          "expected: the reconciling arm reaches 0 resurrected / diverged / lost \
           within the bound after heal; the baseline arm keeps resurrected deletes";
        ]
      ~run:(fun ~smoke ~seed ~reps:_ ->
        let horizon = pick ~smoke 14400. 3600. in
        partition ~peers:(pick ~smoke 1024 256) ~horizon
          ~sample_every:(Float.max 60. (horizon /. 60.)) ~seed ())
      ~print:
        (tables
           [
             ("split-brain violations over time", partition_table);
             ("partition summary", partition_summary);
           ])
      ~metrics:partition_metrics ~gates:partition_gates;
    v "scale" "Scale -- construction and event-loop throughput vs population"
      ~notes:
        [
          "fig6-style construction (Uniform, default params) at growing sizes";
          "plus a Net relay storm; peers/s and events/s are the headline numbers";
        ]
      ~run:(fun ~smoke ~seed ~reps:_ ->
        Scale.run ~seed (pick ~smoke [ 1_000; 10_000; 100_000 ] [ 1_000; 10_000; 20_000 ]))
      ~print:(fun ~standalone:_ -> Scale.print)
      ~metrics:scale_metrics;
    v "micro" "Micro-benchmarks (Bechamel)"
      ~run:(fun ~smoke:_ ~seed ~reps:_ ->
        (Micro.run ~seed ~quota_ms:!micro_quota_ms, Micro.route_pick_words ~seed))
      ~print:print_micro ~metrics:micro_metrics
      ~gates:[ gate "route-pick/minor_words == 0" (fun v -> v "route-pick/minor_words" = 0.) ];
  ]

let name (E s) = s.name
let title (E s) = s.title
let notes (E s) = s.notes
let gates (E s) = List.map (fun g -> g.gate) s.gates
let find n = List.find_opt (fun e -> name e = n) all
let run (E s) ~smoke ~seed ?reps () = O (s, s.run ~smoke ~seed ~reps)
let print ?(standalone = false) (O (s, r)) = s.print ~standalone r
let metrics (O (s, r)) = s.metrics r

let failures (E s) metrics =
  let values = Hashtbl.create 64 in
  List.iter
    (function Value m -> Hashtbl.replace values m.name m.value | Kernel _ -> ())
    metrics;
  let value name = Option.value (Hashtbl.find_opt values name) ~default:Float.nan in
  List.filter_map (fun g -> if g.holds value then None else Some g.gate) s.gates
