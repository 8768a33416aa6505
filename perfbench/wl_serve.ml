(* Workload [serve]: the in-process index under a read/write mix.

   Set-up builds a Uniform overlay with [Round.run_with_keys], creates
   the per-peer query caches and warms them with an untimed pass over a
   disjoint part of the trace.  One closed-loop client then replays the
   pregenerated trace (point reads through the cache, routed inserts of
   Pareto-1.5 keys, deletes of earlier inserts, narrow range queries),
   with background upkeep (a balance pass, a batch of replica syncs, a
   versioned health check) every [upkeep_every] operations.  Upkeep
   counts toward throughput, not toward per-operation latency. *)

module Rng = Pgrid_prng.Rng
module Sample = Pgrid_prng.Sample
module Key = Pgrid_keyspace.Key
module Distribution = Pgrid_workload.Distribution
module Round = Pgrid_construction.Round
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Balance = Pgrid_core.Balance
module Reconcile = Pgrid_core.Reconcile
module Health = Pgrid_core.Health
module Engine = Pgrid_query.Engine
module Qcache = Pgrid_query.Qcache

type config = {
  peers : int;
  setups : int;  (* set-up repetitions behind the [setup_s] median *)
  ops_per_second : int;  (* trace length per second of [--seconds] *)
  warmup : int;  (* untimed warm-up reads *)
  upkeep_every : int;  (* operations between upkeep rounds *)
  sync_pairs : int;  (* replica pairs synced per upkeep round *)
  sample : int;  (* reads re-timed for the per-hop and cache-probe costs *)
}

let default =
  {
    peers = 5_000;
    setups = 3;
    ops_per_second = 30_000;
    warmup = 20_000;
    upkeep_every = 75_000;
    sync_pairs = 200;
    sample = 20_000;
  }

let tiny =
  {
    peers = 300;
    setups = 2;
    ops_per_second = 2_000;
    warmup = 500;
    upkeep_every = 700;
    sync_pairs = 20;
    sample = 200;
  }

type op =
  | Read of { from : int; key : Key.t }
  | Insert of { from : int; key : Key.t; payload : string }
  | Delete of { from : int; key : Key.t }
  | Range of { from : int; lo : Key.t; hi : Key.t }

type inputs = {
  assignments : Key.t array array;
  warm : (int * Key.t) array;
  trace : op array;
  sync_from : int array;  (* upkeep syncs each of these with a replica *)
}

let n_min = (Round.default_params ~peers:2).Round.n_min

(* Balancing splits any overloaded partition with more than two online
   members, as in the repository's cached-query storm experiment, so the
   Pareto-1.5 inserts keep it splitting and invalidating caches. *)
let balance = Balance.default_config ~d_max:(Round.default_params ~peers:2).Round.d_max ~n_min:1

(* Every input is drawn here, from the seed, before anything is timed. *)
let make_inputs cfg ~seed ~seconds =
  let params = Round.default_params ~peers:cfg.peers in
  let assignments =
    Distribution.assign_to_peers (Rng.create ~seed) Distribution.Uniform ~peers:cfg.peers
      ~keys_per_peer:params.Round.keys_per_peer
  in
  let universe = Construct.distinct_keys assignments in
  let by_rank = Array.copy universe in
  (* Popularity rank is decorrelated from key-space position. *)
  Rng.shuffle (Rng.create ~seed:(seed + 3)) by_rank;
  let zipf = Sample.Zipf.create ~n:(Array.length by_rank) ~s:1.1 in
  let r = Rng.create ~seed:(seed + 4) in
  let read () = (Rng.int r cfg.peers, by_rank.(Sample.Zipf.draw zipf r - 1)) in
  let warm = Array.init cfg.warmup (fun _ -> read ()) in
  let pareto = Distribution.sampler (Distribution.Pareto 1.5) r in
  let width = 4 * ((1 lsl Key.bits) / Array.length universe) in
  let live = Array.make (max 1 (cfg.ops_per_second * seconds)) Key.zero and nlive = ref 0 in
  let trace =
    Array.init (max 1 (cfg.ops_per_second * seconds)) (fun i ->
        let u = Rng.float r in
        if u < 0.90 || (u >= 0.95 && u < 0.97 && !nlive = 0) then
          let from, key = read () in
          Read { from; key }
        else if u < 0.95 then begin
          let key = pareto () in
          live.(!nlive) <- key;
          incr nlive;
          Insert { from = Rng.int r cfg.peers; key; payload = Printf.sprintf "w%d" i }
        end
        else if u < 0.97 then begin
          let j = Rng.int r !nlive in
          let key = live.(j) in
          decr nlive;
          live.(j) <- live.(!nlive);
          Delete { from = Rng.int r cfg.peers; key }
        end
        else begin
          let lo = universe.(Rng.int r (Array.length universe)) in
          let hi = Key.of_int (min ((1 lsl Key.bits) - 1) (Key.to_int lo + width)) in
          Range { from = Rng.int r cfg.peers; lo; hi }
        end)
  in
  let sync_from = Array.init cfg.sync_pairs (fun _ -> Rng.int r cfg.peers) in
  { assignments; warm; trace; sync_from }

type state = {
  overlay : Overlay.t;
  cache : Qcache.t;
  deviation : float;
  cold_ns : int;  (* summed wall time of the warm-up reads *)
  traced_build : Construct.result option;  (* the traced construction, when tracing *)
}

(* Warm-up: the untimed pass that fills the caches. *)
let warm_up ?tr overlay cache warm =
  let t0 = Span.now_ns () in
  Array.iter
    (fun (from, key) ->
      Span.with_ tr "query.cold_lookup" (fun () -> ignore (Engine.lookup ~cache overlay ~from key)))
    warm;
  Span.now_ns () - t0

let build_state ?tr cfg ~seed inp =
  let params = Round.default_params ~peers:cfg.peers in
  let rng = Rng.create ~seed:(seed + 1) in
  let overlay, deviation, traced_build =
    match tr with
    | None ->
      let o = Round.run_with_keys rng params ~assignments:inp.assignments in
      (o.Round.overlay, o.Round.deviation, None)
    | Some _ ->
      let d = Construct.run ?tr rng params ~assignments:inp.assignments in
      (d.Construct.overlay, d.Construct.deviation, Some d)
  in
  let cache = Qcache.create overlay in
  let cold_ns = warm_up ?tr overlay cache inp.warm in
  { overlay; cache; deviation; cold_ns; traced_build }

(* What the replay observed; the counts are exact for a seed. *)
type tally = {
  lat_ns : int array;  (* per trace operation, upkeep excluded *)
  mutable ok : int;  (* operations whose routing succeeded *)
  mutable read_hops : int;
  mutable reads : int;
  mutable write_hops : int;
  mutable writes : int;
  mutable range_peers : int;
  mutable ranges : int;
  mutable wrong_peer : int;  (* gate: answer named a peer not responsible *)
  mutable stale_answer : int;  (* gate: cache-served answer disagrees with the store *)
  mutable bad_range : int;  (* gate: range match outside [lo, hi] or unordered *)
  mutable upkeep_ns : int;
  mutable splits : int;
  mutable retracts : int;
  mutable migrated : int;
  mutable copied : int;
  mutable tombstoned : int;
  mutable violations : int;  (* health violations at the last check *)
  mutable resurrected : int;
}

let upkeep ?tr st inp t brng =
  let t0 = Span.now_ns () in
  Span.with_ tr "serve.upkeep" (fun () ->
      let b =
        Span.with_ tr "core.balance_pass" (fun () ->
            Balance.pass brng st.overlay balance)
      in
      t.splits <- t.splits + b.Balance.splits;
      t.retracts <- t.retracts + b.Balance.retracts;
      t.migrated <- t.migrated + b.Balance.migrated_keys;
      Array.iter
        (fun a ->
          let na = Overlay.node st.overlay a in
          match
            List.find_opt
              (fun b -> b <> a && (Overlay.node st.overlay b).Node.online)
              (Node.replica_list na)
          with
          | None -> ()
          | Some b ->
            let r =
              Span.with_ tr "core.sync_pair" (fun () ->
                  Reconcile.sync_pair st.overlay ~a ~b ~budget:Reconcile.default_config.Reconcile.sync_budget)
            in
            t.copied <- t.copied + r.Reconcile.copied;
            t.tombstoned <- t.tombstoned + r.Reconcile.tombstoned)
        inp.sync_from;
      let h =
        Span.with_ tr "core.health_check" (fun () -> Health.check ~versions:true ~n_min st.overlay)
      in
      t.violations <- List.length h.Health.violations;
      t.resurrected <- h.Health.resurrected);
  t.upkeep_ns <- t.upkeep_ns + (Span.now_ns () - t0)

let check_read st t key (r : Engine.outcome) =
  match r.Engine.responsible with
  | None -> ()
  | Some id ->
    let n = Overlay.node st.overlay id in
    if not (n.Node.online && Node.responsible_for n key) then t.wrong_peer <- t.wrong_peer + 1;
    if r.Engine.served <> Engine.Network
       && (r.Engine.key_present <> Node.has_key n key || r.Engine.payloads <> Node.lookup n key)
    then t.stale_answer <- t.stale_answer + 1

let check_range t lo hi (r : Overlay.range_result) =
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> Key.compare a b <= 0 && sorted rest
    | _ -> true
  in
  if not
       (sorted r.Overlay.matches
       && List.for_all (fun (k, _) -> Key.compare lo k <= 0 && Key.compare k hi <= 0) r.Overlay.matches)
  then t.bad_range <- t.bad_range + 1

(* The timed replay.  Returns the tally and the total wall seconds
   (operations and upkeep). *)
(* [calibrate] samples the host-speed kernel between operations, outside
   their timing and outside the returned wall time. *)
let replay ?tr ?(calibrate = false) cfg ~seed st inp =
  let n = Array.length inp.trace in
  let t =
    {
      lat_ns = Array.make n 0;
      ok = 0; read_hops = 0; reads = 0; write_hops = 0; writes = 0; range_peers = 0; ranges = 0;
      wrong_peer = 0; stale_answer = 0; bad_range = 0; upkeep_ns = 0; splits = 0; retracts = 0;
      migrated = 0; copied = 0; tombstoned = 0; violations = 0; resurrected = 0;
    }
  in
  let brng = Rng.create ~seed:(seed + 5) in
  (* Runs one operation, recording its wall time (and span) at [i]. *)
  let timed i name f =
    let t0 = Span.now_ns () in
    let r = Span.with_ tr name f in
    t.lat_ns.(i) <- Span.now_ns () - t0;
    r
  in
  let clock = Calib.start () in
  for i = 0 to n - 1 do
    if calibrate then Calib.tick ();
    if i > 0 && i mod cfg.upkeep_every = 0 then upkeep ?tr st inp t brng;
    match inp.trace.(i) with
    | Read { from; key } ->
      let r = timed i "query.lookup" (fun () -> Engine.lookup ~cache:st.cache st.overlay ~from key) in
      t.reads <- t.reads + 1;
      if r.Engine.responsible <> None then begin
        t.ok <- t.ok + 1;
        t.read_hops <- t.read_hops + r.Engine.hops
      end;
      check_read st t key r
    | Insert { from; key; payload } ->
      let r = timed i "core.insert" (fun () -> Overlay.insert st.overlay ~from key payload) in
      t.writes <- t.writes + 1;
      Option.iter
        (fun hops ->
          t.ok <- t.ok + 1;
          t.write_hops <- t.write_hops + hops)
        r
    | Delete { from; key } ->
      let r = timed i "core.delete" (fun () -> Overlay.delete st.overlay ~from key) in
      t.writes <- t.writes + 1;
      Option.iter
        (fun (d : Overlay.delete_result) ->
          t.ok <- t.ok + 1;
          t.write_hops <- t.write_hops + d.Overlay.hops)
        r
    | Range { from; lo; hi } ->
      let r = timed i "core.range" (fun () -> Overlay.range_search st.overlay ~from ~lo ~hi) in
      t.ranges <- t.ranges + 1;
      if r.Overlay.visited <> [] then t.ok <- t.ok + 1;
      t.range_peers <- t.range_peers + List.length r.Overlay.visited;
      check_range t lo hi r
  done;
  (t, Calib.seconds clock)

let gates out (t : tally) =
  Out.check out (t.wrong_peer = 0) "serve: %d answers named a peer that is not responsible" t.wrong_peer;
  Out.check out (t.stale_answer = 0) "serve: %d cache-served answers disagree with the live store"
    t.stale_answer;
  Out.check out (t.bad_range = 0) "serve: %d range answers out of order or out of bounds" t.bad_range

(* Sorted per-class latencies in ns. *)
let class_latencies inp (t : tally) pick =
  let xs = ref [] in
  Array.iteri (fun i op -> if pick op then xs := float_of_int t.lat_ns.(i) :: !xs) inp.trace;
  let a = Array.of_list !xs in
  Array.sort compare a;
  a

let is_read = function Read _ -> true | _ -> false
let is_write = function Insert _ | Delete _ -> true | _ -> false
let is_range = function Range _ -> true | _ -> false

let report_replay (t : tally) inp wall =
  let n = Array.length inp.trace in
  Out.info "serve: %d ops in %.3f s (%.0f ops/s), upkeep %.3f s, %d reads at %.3f hops, %d writes, %d ranges"
    n wall (float_of_int n /. wall) (float_of_int t.upkeep_ns /. 1e9) t.reads
    (float_of_int t.read_hops /. float_of_int (max 1 t.reads)) t.writes t.ranges;
  Out.info "serve: balance %d splits %d retracts, sync copied %d tombstoned %d, health %d violations (%d resurrected)"
    t.splits t.retracts t.copied t.tombstoned t.violations t.resurrected

let run_e2e out cfg ~seed ~seconds =
  let (inp, st), setup_s =
    Calib.repeat_setup out ~what:"serve" ~reps:cfg.setups
      ~key:(fun (_, st) -> (st.deviation, Qcache.stats st.cache))
      (fun () ->
        let inp = make_inputs cfg ~seed ~seconds in
        (inp, build_state cfg ~seed inp))
  in
  let k_setup = Calib.take () in
  Out.memory_checkpoint out (st, inp);
  Out.info "serve: %d peers, set-up %.3f s (median of %d), deviation %.4f" cfg.peers setup_s cfg.setups
    st.deviation;
  let t, wall = replay ~calibrate:true cfg ~seed st inp in
  Out.memory_checkpoint out (st, inp, t);
  gates out t;
  report_replay t inp wall;
  let n = Array.length inp.trace in
  let all = Array.map float_of_int t.lat_ns in
  Array.sort compare all;
  let k = Calib.take () in
  Out.attempt out n;
  Out.add out "setup_s" "s" (k_setup *. setup_s);
  Out.add out "ops_per_s" "ops/s" (float_of_int n /. (k *. wall));
  Out.add out "latency_p50_ms" "ms" (k *. Span.percentile all 0.5 /. 1e6);
  Out.add out "latency_p99_ms" "ms" (k *. Span.percentile all 0.99 /. 1e6);
  Out.add out "msgs_per_op" "msgs/op" (float_of_int t.read_hops /. float_of_int (max 1 t.reads));
  Out.add out "success_ratio" "ratio" (float_of_int t.ok /. float_of_int n);
  Out.add out "build_deviation" "ratio" st.deviation

let run_traced out cfg ~seed ~seconds =
  let inp = make_inputs cfg ~seed ~seconds in
  (* The same set-up and replay twice: untraced for the baseline wall time
     and allocation, then traced. *)
  let arm ?tr () =
    let st = build_state ?tr cfg ~seed inp in
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let t, wall = replay ?tr cfg ~seed st inp in
    (st, t, wall, (g0, Gc.quick_stat ()))
  in
  let _, base_t, base_wall, gc = arm () in
  Gc.compact ();
  let tr = Span.create () in
  let st, t, wall, _ = arm ~tr () in
  let d = Option.get st.traced_build and overlay = st.overlay and cache = st.cache in
  gates out t;
  Out.check out (t.read_hops = base_t.read_hops && t.ok = base_t.ok)
    "serve: traced replay diverged from the untraced one";
  report_replay base_t inp base_wall;
  let n = Array.length inp.trace in
  let qs = Qcache.stats cache in
  (* Uncached routing over a sample of the trace's reads. *)
  let reads =
    Array.of_list
      (List.filteri (fun i _ -> i < cfg.sample)
         (List.filter_map
            (function Read { from; key } -> Some (from, key) | _ -> None)
            (Array.to_list inp.trace)))
  in
  let hops = ref 0 in
  let t0 = Span.now_ns () in
  Array.iter
    (fun (from, key) ->
      let r = Span.with_ (Some tr) "core.search" (fun () -> Overlay.search overlay ~from key) in
      hops := !hops + r.Overlay.hops)
    reads;
  let search_ns = Span.now_ns () - t0 in
  Array.iter
    (fun (from, key) ->
      ignore (Span.with_ (Some tr) "qcache.probe" (fun () -> Qcache.probe cache ~at:from key)))
    reads;
  let tbl = Span.summary tr in
  Wl_build.layer_metrics out d tbl ~peers:cfg.peers;
  let mean name = Span.mean_ns tbl name in
  let per x k = float_of_int x /. float_of_int (max 1 k) in
  Out.add out "query.lookup_ns" "ns" (mean "query.lookup");
  Out.add out "qcache.probe_ns" "ns" (mean "qcache.probe");
  Out.add out "query.cold_lookup_ns" "ns" (per st.cold_ns (Array.length inp.warm));
  Out.add out "core.search_ns_per_hop" "ns" (per search_ns !hops);
  Out.add out "qcache.hit_ratio" "ratio" (Qcache.hit_ratio qs);
  Out.addi out "qcache.route_hits" "count" qs.Qcache.route_hits;
  Out.addi out "qcache.result_hits" "count" qs.Qcache.result_hits;
  Out.addi out "qcache.misses" "count" qs.Qcache.misses;
  Out.addi out "qcache.stale" "count" qs.Qcache.stale;
  Out.addi out "qcache.evictions" "count" qs.Qcache.evictions;
  Out.addi out "qcache.invalidations" "count" qs.Qcache.invalidations;
  Out.addi out "qcache.entries" "count" (qs.Qcache.route_entries + qs.Qcache.result_entries);
  Out.add out "core.insert_ns" "ns" (mean "core.insert");
  Out.add out "core.delete_ns" "ns" (mean "core.delete");
  Out.add out "core.write_hops" "hops" (per t.write_hops t.writes);
  Out.add out "core.range_ns" "ns" (mean "core.range");
  Out.add out "core.range_peers" "count" (per t.range_peers t.ranges);
  Out.add out "core.balance_pass_ms" "ms" (mean "core.balance_pass" /. 1e6);
  Out.addi out "balance.splits" "count" t.splits;
  Out.addi out "balance.retracts" "count" t.retracts;
  Out.addi out "balance.migrated_keys" "count" t.migrated;
  Out.add out "core.sync_pair_us" "us" (mean "core.sync_pair" /. 1e3);
  Out.addi out "reconcile.copied" "count" t.copied;
  Out.addi out "reconcile.tombstoned" "count" t.tombstoned;
  Out.add out "core.health_check_ms" "ms" (mean "core.health_check" /. 1e6);
  Out.addi out "health.violations" "count" t.violations;
  Out.add out "serve.upkeep_share" "ratio" (float_of_int base_t.upkeep_ns /. 1e9 /. base_wall);
  let g0, g1 = gc in
  Out.add out "gc.serve_minor_words_per_op" "words/op"
    ((g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int n);
  Out.addi out "gc.serve_major_collections" "count" (g1.Gc.major_collections - g0.Gc.major_collections);
  let pct pick q = Span.percentile (class_latencies inp base_t pick) q /. 1e3 in
  Out.add out "serve.read_p50_us" "us" (pct is_read 0.5);
  Out.add out "serve.read_p99_us" "us" (pct is_read 0.99);
  Out.add out "serve.write_p99_us" "us" (pct is_write 0.99);
  Out.add out "serve.range_p99_us" "us" (pct is_range 0.99);
  Out.add out "bench.trace_overhead" "ratio" ((wall /. base_wall) -. 1.);
  Out.attempt out n;
  (tr, tbl)
