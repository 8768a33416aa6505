(* The benchmark's definition: workloads, metrics and the map of which
   end-to-end metric each per-layer metric should move.  BENCHMARK.json
   and interactions.json are generated from here ([main.exe
   --print-benchmark-json], [--print-interactions]); the smoke test
   fails when either file drifts from this module. *)

let workloads =
  [
    ( "build",
      "Construction of 10k peers at the paper's most skewed key distribution (Pareto-1.5): Engine.interact, \
       Aep_math and Intset do nearly all the work; query and simnet do none." );
    ( "serve",
      "A 5k-peer index under a 90/5/2/3 read/insert/delete/range mix: the query cache and the synchronous \
       routing step do the work; writes and splits invalidate the same caches." );
    ( "netstorm",
      "Lookups through the simulated network at rising offered rates, then churn: Sim, Net queues, Breaker \
       and Storm do the work, and the cache is bypassed, so it is the cache's no-change control." );
  ]

type metric = { name : string; unit : string; better : [ `Lower | `Higher ]; bound : float }

(* End-to-end metrics: every workload reports each, with "operation"
   meaning a peer placed (build), a trace operation (serve) or a lookup
   (netstorm). *)
let end_to_end =
  [
    { name = "setup_s"; unit = "s"; better = `Lower; bound = 0.25 };
    { name = "mem_peak_mb"; unit = "MB"; better = `Lower; bound = 0.15 };
    { name = "ops_per_s"; unit = "ops/s"; better = `Higher; bound = 0.25 };
    { name = "latency_p50_ms"; unit = "ms"; better = `Lower; bound = 0.25 };
    { name = "latency_p99_ms"; unit = "ms"; better = `Lower; bound = 0.25 };
    { name = "msgs_per_op"; unit = "msgs/op"; better = `Lower; bound = 0.1 };
    { name = "success_ratio"; unit = "ratio"; better = `Higher; bound = 0.15 };
    { name = "build_deviation"; unit = "ratio"; better = `Lower; bound = 0.15 };
  ]

let e2e_meaning =
  [
    ("setup_s", "median wall seconds of the repeated set-up: key draw (build); key draw, construction, cache \
                 warm-up (serve); key draw, construction, arrival schedule (netstorm)");
    ("mem_peak_mb", "largest live major heap after set-up and after the timed part, measured after a full \
                     major collection; exact for a seed");
    ("ops_per_s", "peers placed per second by the construction, timed on the Engine-loop replay that \
                   reproduces Round.run (build); trace operations per second, upkeep included (serve); \
                   lookups simulated per wall second (netstorm)");
    ("latency_p50_ms", "median wall time of one Engine.interact (build) or one trace operation (serve); \
                        median simulated latency of successful lookups in the lowest-rate step, \
                        which every seed sustains (netstorm)");
    ("latency_p99_ms", "99th percentile of the same samples; the wall times of build and serve are \
                        calibrated to the host's speed (calib.ml)");
    ("msgs_per_op", "construction interactions per peer (build); routing hops per point read (serve); \
                     network messages per lookup (netstorm); exact for a seed");
    ("success_ratio", "stored keys found by a read-back sample (build); operations that reached a \
                       responsible peer (serve); lookups that succeeded (netstorm)");
    ("build_deviation", "load-balance deviation of the constructed overlay (paper 4.4); exact for a seed");
  ]

(* Per-layer metrics, grouped with the end-to-end metric each group
   should move and where it should not. *)
type group = { metrics : (string * string * [ `Lower | `Higher ]) list; moves : string; still : string }

let lo n u = (n, u, `Lower)
let hi n u = (n, u, `Higher)

let groups =
  [
    {
      metrics =
        [ lo "construction.interact_ns" "ns"; lo "construction.split_ns" "ns"; lo "construction.follow_ns" "ns";
          lo "construction.replicate_ns" "ns"; lo "construction.refer_only_ns" "ns" ];
      moves = "ops_per_s and latency_p50_ms/latency_p99_ms on build; setup_s on serve and netstorm";
      still = "the timed part of serve and netstorm";
    };
    {
      metrics =
        [ lo "construction.interactions" "count"; lo "construction.interactions_per_peer" "count";
          lo "construction.refer_steps" "count"; lo "construction.keys_moved" "count";
          lo "construction.rounds" "count" ];
      moves = "ops_per_s, msgs_per_op and build_deviation on build (O(log^2 n) work versus overhead)";
      still = "the timed part of serve and netstorm";
    };
    {
      metrics =
        [ lo "construction.replication_s" "s"; lo "partition.reference_s" "s"; lo "core.deviation_s" "s" ];
      moves = "ops_per_s on build; setup_s on serve and netstorm";
      still = "the timed part of serve and netstorm";
    };
    {
      metrics =
        [ lo "gc.build_minor_mw" "Mw"; lo "gc.build_promoted_mw" "Mw"; lo "gc.build_major_collections" "count" ];
      moves = "ops_per_s and mem_peak_mb on build";
      still = "serve, netstorm (reported 0 there)";
    };
    {
      metrics = [ lo "query.lookup_ns" "ns"; lo "qcache.probe_ns" "ns" ];
      moves = "latency_p50_ms and latency_p99_ms on serve";
      still = "netstorm, build (reported 0 there)";
    };
    {
      metrics = [ lo "query.cold_lookup_ns" "ns" ];
      moves = "setup_s on serve";
      still = "netstorm, build (reported 0 there)";
    };
    {
      metrics = [ lo "core.search_ns_per_hop" "ns" ];
      moves = "latency_p50_ms and ops_per_s on serve";
      still = "netstorm, build (reported 0 there)";
    };
    {
      metrics =
        [ hi "qcache.hit_ratio" "ratio"; hi "qcache.route_hits" "count"; hi "qcache.result_hits" "count";
          lo "qcache.misses" "count"; lo "qcache.stale" "count"; lo "qcache.evictions" "count";
          lo "qcache.invalidations" "count" ];
      moves = "msgs_per_op and latency_p50_ms on serve";
      still = "netstorm, build (reported 0 there)";
    };
    {
      metrics = [ lo "qcache.entries" "count" ];
      moves = "mem_peak_mb on serve";
      still = "netstorm, build (reported 0 there)";
    };
    {
      metrics =
        [ lo "core.insert_ns" "ns"; lo "core.delete_ns" "ns"; lo "core.write_hops" "hops";
          lo "serve.write_p99_us" "us" ];
      moves = "latency_p99_ms on serve (writes are 7% of operations)";
      still = "netstorm, build (reported 0 there)";
    };
    {
      metrics = [ lo "core.range_ns" "ns"; lo "core.range_peers" "count"; lo "serve.range_p99_us" "us" ];
      moves = "latency_p99_ms on serve (ranges are 3% of operations)";
      still = "netstorm, build (reported 0 there)";
    };
    {
      metrics = [ lo "serve.read_p50_us" "us"; lo "serve.read_p99_us" "us" ];
      moves = "latency_p50_ms on serve";
      still = "netstorm, build (reported 0 there)";
    };
    {
      metrics =
        [ lo "core.balance_pass_ms" "ms"; lo "balance.splits" "count"; lo "balance.retracts" "count";
          lo "balance.migrated_keys" "count"; lo "core.sync_pair_us" "us"; lo "reconcile.copied" "count";
          lo "reconcile.tombstoned" "count"; lo "core.health_check_ms" "ms"; lo "health.violations" "count";
          lo "serve.upkeep_share" "ratio" ];
      moves = "ops_per_s on serve";
      still = "the per-operation latencies of serve; netstorm and build (reported 0 there)";
    };
    {
      metrics = [ lo "gc.serve_minor_words_per_op" "words/op"; lo "gc.serve_major_collections" "count" ];
      moves = "latency_p99_ms on serve";
      still = "netstorm, build (reported 0 there)";
    };
    {
      metrics = [ lo "simnet.events" "count"; lo "simnet.event_ns" "ns"; lo "storm.issue_ns" "ns" ];
      moves = "ops_per_s on netstorm";
      still = "serve, build (reported 0 there)";
    };
    {
      metrics =
        [ lo "simnet.msgs_sent" "count"; lo "simnet.msgs_dropped" "count"; lo "simnet.msgs_shed" "count";
          lo "simnet.queue_peak" "count"; lo "simnet.backlog_peak" "count" ];
      moves = "latency_p99_ms and msgs_per_op on netstorm, and storm.capacity_qps";
      still = "serve, build (reported 0 there)";
    };
    {
      metrics =
        [ lo "storm.timeouts" "count"; lo "storm.retries" "count"; lo "storm.give_ups" "count";
          lo "storm.hedges" "count"; hi "storm.hedge_wins" "count"; lo "storm.breaker_opens" "count";
          lo "storm.breaker_skips" "count"; lo "storm.msgs_per_success" "msgs" ];
      moves =
        "latency_p99_ms and success_ratio on netstorm, and ops_per_s there because each one is simulated work";
      still = "serve, build (reported 0 there)";
    };
    {
      metrics =
        List.concat_map
          (fun k ->
            [ lo (Printf.sprintf "storm.p50_s.step%d" k) "s"; lo (Printf.sprintf "storm.p99_s.step%d" k) "s";
              lo (Printf.sprintf "storm.fail_ratio.step%d" k) "ratio" ])
          [ 1; 2; 3; 4; 5 ]
        @ [ lo "storm.churn_p99_s" "s"; lo "storm.churn_fail_ratio" "ratio"; hi "storm.capacity_qps" "q/s" ];
      moves = "latency_p50_ms, latency_p99_ms and success_ratio on netstorm";
      still = "serve, build (reported 0 there)";
    };
    {
      metrics = [ hi "simnet.sim_s_per_wall_s" "s/s"; lo "gc.netstorm_minor_words_per_event" "words" ];
      moves = "ops_per_s on netstorm";
      still = "serve, build (reported 0 there)";
    };
    {
      metrics = [ lo "telemetry.events" "count"; lo "telemetry.on_overhead" "ratio" ];
      moves = "no end-to-end metric: telemetry is off in end-to-end runs; it records what live telemetry costs";
      still = "every end-to-end metric of every workload";
    };
    {
      metrics = [ lo "bench.trace_overhead" "ratio" ];
      moves = "no end-to-end metric: traced over untraced wall time of the same work, per workload";
      still = "every end-to-end metric of every workload";
    };
  ]

let per_layer = List.concat_map (fun g -> g.metrics) groups
let better_s = function `Lower -> "lower" | `Higher -> "higher"

(* --- generated files --------------------------------------------------- *)

let json_str s = Printf.sprintf "%S" s

let benchmark_json ~run_seconds =
  let b = Buffer.create 8192 in
  let p fmt = Printf.bprintf b fmt in
  let list items f =
    List.iteri (fun i x -> p "%s\n" (f x ^ if i < List.length items - 1 then "," else "")) items
  in
  p "{\n";
  p "  \"command\": [\"python3\", \"perfbench/run.py\"],\n";
  p "  \"paths\": [\"perfbench\"],\n";
  p "  \"run_seconds\": %d,\n" run_seconds;
  p "  \"workloads\": [\n";
  list workloads (fun (n, why) ->
      Printf.sprintf "    {\"name\": %s, \"why\": %s}" (json_str n) (json_str why));
  p "  ],\n  \"end_to_end\": [\n";
  list end_to_end (fun m ->
      Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}" (json_str m.name)
        (json_str m.unit) (json_str (better_s m.better)) m.bound);
  p "  ],\n  \"per_layer\": [\n";
  list per_layer (fun (n, u, bt) ->
      Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s}" (json_str n) (json_str u)
        (json_str (better_s bt)));
  p "  ]\n}\n";
  Buffer.contents b

let interactions_json () =
  let b = Buffer.create 8192 in
  let p fmt = Printf.bprintf b fmt in
  let sep i l = if i < List.length l - 1 then "," else "" in
  p "{\n  \"workloads\": {\n";
  List.iteri (fun i (n, why) -> p "    %s: %s%s\n" (json_str n) (json_str why) (sep i workloads)) workloads;
  p "  },\n  \"end_to_end\": {\n";
  List.iteri
    (fun i (n, m) -> p "    %s: %s%s\n" (json_str n) (json_str m) (sep i e2e_meaning))
    e2e_meaning;
  p "  },\n  \"per_layer\": [\n";
  List.iteri
    (fun i g ->
      p "    {\"metrics\": [%s],\n     \"moves\": %s,\n     \"no_move\": %s}%s\n"
        (String.concat ", " (List.map (fun (n, _, _) -> json_str n) g.metrics))
        (json_str g.moves) (json_str g.still) (sep i groups))
    groups;
  p "  ]\n}\n";
  Buffer.contents b
