(* Workload [build]: from-scratch construction of a Pareto-1.5 index.

   Set-up draws every peer's keys from the seed.  [Round.run_with_keys]
   with [Round.default_params] builds the index; the same construction
   is then replayed through the benchmark's own [Engine] loop
   ({!Construct}), which must reproduce [Round]'s counters and deviation
   exactly.  The replay is the timed part: a batch job, reported as peers
   placed per second, with every [Engine.interact] call timed. *)

module Rng = Pgrid_prng.Rng
module Distribution = Pgrid_workload.Distribution
module Round = Pgrid_construction.Round
module Overlay = Pgrid_core.Overlay

type config = {
  peers : int;
  spec : Distribution.spec;
  setups : int;  (* set-up repetitions behind the [setup_s] median *)
  readback : int;  (* stored keys looked up on the built overlay *)
}

let default = { peers = 10_000; spec = Distribution.Pareto 1.5; setups = 15; readback = 4000 }
let tiny = { default with peers = 300; setups = 2; readback = 200 }

type inputs = {
  assignments : Pgrid_keyspace.Key.t array array;
  probes : (int * Pgrid_keyspace.Key.t) array;  (* read-back (origin, key) pairs *)
}

let make_inputs cfg ~seed =
  let params = Round.default_params ~peers:cfg.peers in
  let assignments =
    Distribution.assign_to_peers (Rng.create ~seed) cfg.spec ~peers:cfg.peers
      ~keys_per_peer:params.Round.keys_per_peer
  in
  let r = Rng.create ~seed:(seed + 7) in
  let probes =
    Array.init cfg.readback (fun _ ->
        let own = assignments.(Rng.int r cfg.peers) in
        (Rng.int r cfg.peers, own.(Rng.int r (Array.length own))))
  in
  { assignments; probes }

let construction_seed seed = seed + 1

(* Share of read-back probes that reach a responsible peer holding the key. *)
let readback overlay probes =
  let found = ref 0 in
  Array.iter
    (fun (from, key) ->
      let r = Overlay.search overlay ~from key in
      if r.Overlay.responsible <> None && r.Overlay.key_present then incr found)
    probes;
  float_of_int !found /. float_of_int (max 1 (Array.length probes))

let gates out ~params (d : Construct.result) (reference : Construct.summary) =
  let errors = Overlay.integrity_errors d.Construct.overlay in
  Out.check out (errors = 0) "build: %d routing-table integrity errors" errors;
  Out.check out (d.Construct.rounds < params.Round.max_rounds) "build: construction hit max_rounds";
  let s = Construct.summary d in
  Out.check out (s = reference) "build: Engine-loop replay (%s) differs from Round.run (%s)"
    (Construct.pp_summary s) (Construct.pp_summary reference)

(* One untraced [Round.run_with_keys]: its summary and wall seconds.  The
   outcome's overlay is dropped before returning. *)
let round cfg ~seed inp =
  let t0 = Span.now_ns () in
  let o =
    Round.run_with_keys (Rng.create ~seed:(construction_seed seed))
      (Round.default_params ~peers:cfg.peers) ~assignments:inp.assignments
  in
  (Construct.of_round o, Span.seconds_since t0)

let run_e2e out cfg ~seed =
  let params = Round.default_params ~peers:cfg.peers in
  let inp, setup_s =
    Calib.repeat_setup out ~what:"build" ~reps:cfg.setups ~key:Fun.id (fun () -> make_inputs cfg ~seed)
  in
  let k_setup = Calib.take () in
  Out.info "build: %d peers, %s keys, set-up %.4f s (median of %d)" cfg.peers
    (Distribution.label cfg.spec) setup_s cfg.setups;
  Gc.compact ();
  let o, round_wall = round cfg ~seed inp in
  let per_peer = float_of_int o.Construct.interactions /. float_of_int cfg.peers in
  Out.info "build: Round.run %.3f s, %d rounds, %.2f interactions/peer, deviation %.4f" round_wall
    o.Construct.rounds per_peer o.Construct.deviation;
  (* Timed: the same construction on the Engine loop, which the gate
     proves identical to Round.run, so the calibration kernel can run
     between interactions and every interaction is timed. *)
  Gc.compact ();
  let clock = Calib.start () in
  let d =
    Construct.run ~tick:Calib.tick (Rng.create ~seed:(construction_seed seed)) params
      ~assignments:inp.assignments
  in
  let wall = Calib.seconds clock in
  gates out ~params d o;
  let lat = Array.map float_of_int d.Construct.latencies_ns in
  Array.sort compare lat;
  let p50 = Span.percentile lat 0.5 /. 1e6 and p99 = Span.percentile lat 0.99 /. 1e6 in
  Out.info "build: Engine loop %.3f s; Engine.interact p50 %.4f ms, p99 %.4f ms over %d calls" wall p50
    p99 (Array.length lat);
  Out.memory_checkpoint out (d, inp);
  let success = readback d.Construct.overlay inp.probes in
  Out.info "build: read-back found %.4f of %d stored keys" success (Array.length inp.probes);
  Out.attempt out (cfg.peers + Array.length inp.probes);
  let k = Calib.take () in
  Out.add out "setup_s" "s" (k_setup *. setup_s);
  Out.add out "ops_per_s" "ops/s" (float_of_int cfg.peers /. (k *. wall));
  Out.add out "latency_p50_ms" "ms" (k *. p50);
  Out.add out "latency_p99_ms" "ms" (k *. p99);
  Out.add out "msgs_per_op" "msgs/op" per_peer;
  Out.add out "success_ratio" "ratio" success;
  Out.add out "build_deviation" "ratio" o.Construct.deviation

(* Per-layer metrics of a traced construction; shared with the set-up
   of the other workloads' traced runs. *)
let layer_metrics out (d : Construct.result) tbl ~peers =
  let c = d.Construct.counters in
  let classes =
    [ "construction.split"; "construction.follow"; "construction.replicate"; "construction.refer_only" ]
  in
  let calls, total =
    List.fold_left
      (fun (n, s) name ->
        let a = Span.find tbl name in
        (n + a.Span.calls, s + a.Span.total_ns))
      (0, 0) classes
  in
  Out.add out "construction.interact_ns" "ns"
    (if calls = 0 then 0. else float_of_int total /. float_of_int calls);
  List.iter
    (fun name ->
      let short = String.sub name 13 (String.length name - 13) in
      Out.add out ("construction." ^ short ^ "_ns") "ns" (Span.mean_ns tbl name))
    classes;
  Out.addi out "construction.interactions" "count" c.Pgrid_construction.Engine.interactions;
  Out.add out "construction.interactions_per_peer" "count"
    (float_of_int c.Pgrid_construction.Engine.interactions /. float_of_int peers);
  Out.addi out "construction.refer_steps" "count" c.Pgrid_construction.Engine.refer_steps;
  Out.addi out "construction.keys_moved" "count" c.Pgrid_construction.Engine.keys_moved;
  Out.addi out "construction.rounds" "count" d.Construct.rounds;
  let secs name = float_of_int (Span.find tbl name).Span.total_ns /. 1e9 in
  Out.add out "construction.replication_s" "s" (secs "construction.replication");
  Out.add out "partition.reference_s" "s" (secs "partition.reference");
  Out.add out "core.deviation_s" "s" (secs "core.deviation")

let run_traced out cfg ~seed =
  let params = Round.default_params ~peers:cfg.peers in
  let inp = make_inputs cfg ~seed in
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let o, base = round cfg ~seed inp in
  let g1 = Gc.quick_stat () in
  Gc.compact ();
  let tr = Span.create () in
  let t1 = Span.now_ns () in
  let d =
    Construct.run ~tr (Rng.create ~seed:(construction_seed seed)) params
      ~assignments:inp.assignments
  in
  let traced = Span.seconds_since t1 in
  gates out ~params d o;
  Out.info "build: Round.run %.3f s untraced, Engine-loop replay %.3f s traced (%d spans)" base
    traced (Span.count tr);
  let tbl = Span.summary tr in
  layer_metrics out d tbl ~peers:cfg.peers;
  Out.add out "gc.build_minor_mw" "Mw" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
  Out.add out "gc.build_promoted_mw" "Mw" ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6);
  Out.addi out "gc.build_major_collections" "count" (g1.Gc.major_collections - g0.Gc.major_collections);
  Out.add out "bench.trace_overhead" "ratio" ((traced /. base) -. 1.);
  Out.attempt out cfg.peers;
  (tr, tbl)
