(* Bechamel micro-benchmarks of the hot kernels: one OLS ns/run estimate
   (and its r^2) per kernel, [None] where the fit failed. *)

type estimate = { kernel : string; ns : float option; r_square : float option }

(* The routing step's draw at the reference-set size of a 5k-peer
   index (38 a level on average): one [Overlay.pick_ref] at each of 8
   levels of one node of a 1000-peer overlay, with every peer online
   (the count is the set's cardinal) or with every tenth offline (a
   count pass and a scan). *)
let route_pick ~seed ~churned =
  let module Overlay = Pgrid_core.Overlay in
  let rng = Pgrid_prng.Rng.create ~seed in
  let overlay = Overlay.create rng ~n:1000 in
  let node = Overlay.node overlay 0 in
  for level = 0 to 7 do
    for _ = 1 to 38 do
      Pgrid_core.Node.add_ref node ~level (1 + Pgrid_prng.Rng.int rng 999)
    done
  done;
  if churned then
    for i = 1 to 99 do
      Pgrid_core.Node.set_online (Overlay.node overlay (10 * i)) false
    done;
  fun () ->
    for level = 0 to 7 do
      ignore (Overlay.pick_ref overlay rng node ~level ~excluding:(-1))
    done

(* Minor words one run of [f] allocates, over 1000 runs. *)
let minor_words f =
  let measure g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  let runs () =
    for _ = 1 to 1000 do
      f ()
    done
  in
  (measure runs -. measure ignore) /. 1000.

let route_pick_words ~seed = minor_words (route_pick ~seed ~churned:false)

let run ~seed ~quota_ms =
  let open Bechamel in
  let open Toolkit in
  let rng = Pgrid_prng.Rng.create ~seed in
  let keys =
    Pgrid_workload.Distribution.generate rng Pgrid_workload.Distribution.Uniform
      ~n:2560
  in
  let overlay =
    Pgrid_core.Builder.index rng ~peers:256 ~keys ~d_max:50 ~n_min:5
      ~refs_per_level:2
  in
  let probe_key = keys.(0) in
  let codec_terms =
    [|
      "a"; "term"; "Benchmark"; "distributed"; "overlay-network";
      "capture-recapture-estimation"; "p-grid"; "Indexing";
      "data-oriented"; "zebra"; "Quorum"; "xylophone"; "m"; "range";
      "prefix-routing"; "anti-entropy";
    |]
  in
  (* Peer 0 has learned the answers for [hot], 16 keys of the key
     space's lower half, so probing them there gives 16 validated result
     hits.  Peer 1 has learned routes and results for upper-half keys
     only, so each [hot] probe there scans every learned prefix length
     and misses.  Like the codec kernel, each run is a batch: a single
     sub-100 ns call is dominated by call overhead and GC pacing. *)
  let cache = Pgrid_query.Qcache.create overlay in
  let responsible key =
    match (Pgrid_core.Overlay.search overlay ~from:0 key).Pgrid_core.Overlay.responsible with
    | Some id -> id
    | None -> failwith "Micro: key unroutable"
  in
  let lower key = Pgrid_keyspace.Key.bit key 0 = 0 in
  let hot =
    Array.of_list
      (List.filteri
         (fun i _ -> i < 16)
         (List.filter
            (fun k -> lower k && responsible k > 1)
            (Array.to_list keys)))
  in
  let learn ~at key =
    let target = responsible key in
    if target <> at then
      Pgrid_query.Qcache.learn cache ~at ~key ~target ~present:true ~payloads:[]
  in
  Array.iter (learn ~at:0) hot;
  Array.iter (fun k -> if not (lower k) then learn ~at:1 k) keys;
  let probe_hot ~at () =
    Array.iter (fun k -> ignore (Pgrid_query.Qcache.probe cache ~at k)) hot
  in
  let rng_ints () =
    for _ = 1 to 100 do
      ignore (Pgrid_prng.Rng.int rng 1000)
    done
  in
  (* Construction's two store/refs kernels, on the sizes the Pareto-1.5
     build sees: a same-partition meeting counts the keys two ~50-key
     stores share (and how many of those have bit 0 at the pair's
     level), as [Engine.same_partition] does; a replicate exchanges
     11-level routing tables of ~44 refs a level both ways.  After the
     first run the tables have converged, so the exchange measures the
     no-op union (44% of the unions of a 2000-peer construction). *)
  let module Node = Pgrid_core.Node in
  let module Keytbl = Pgrid_core.Keytbl in
  let module Key = Pgrid_keyspace.Key in
  let na = Node.create ~id:0 and nb = Node.create ~id:1 in
  Array.iteri
    (fun i k ->
      if i < 50 then Node.ensure_key na k;
      if i >= 25 && i < 75 then Node.ensure_key nb k)
    keys;
  let overlap_level = 3 in
  let store_overlap () =
    let shared = ref 0 and zeros = ref 0 in
    Keytbl.iter
      (fun k _ ->
        if Keytbl.mem nb.Node.store k then begin
          incr shared;
          if Key.bit k overlap_level = 0 then incr zeros
        end)
      na.Node.store;
    ignore (Sys.opaque_identity (!shared + !zeros))
  in
  let levels = 11 in
  let path = Pgrid_keyspace.Path.of_string (String.make levels '0') in
  Node.set_path na path;
  Node.set_path nb path;
  for level = 0 to levels - 1 do
    for _ = 1 to 44 do
      Node.add_ref na ~level (2 + Pgrid_prng.Rng.int rng 10_000);
      Node.add_ref nb ~level (2 + Pgrid_prng.Rng.int rng 10_000)
    done
  done;
  let refs_union () =
    for level = 0 to levels - 1 do
      Node.union_refs nb ~level ~from:na;
      Node.union_refs na ~level ~from:nb
    done
  in
  (* The event heap at the depth a churn schedule keeps it for a whole
     netstorm run: 18k events parked far in the future, under which each
     run pushes 16 near-term events and pops them again.  Every push
     sifts to the root and every pop sifts a parked event back down. *)
  let module Sim = Pgrid_simnet.Sim in
  let heap = Sim.create () in
  for i = 1 to 18_000 do
    Sim.schedule_at heap ~time:(1e12 +. float_of_int i) ignore
  done;
  let near = Array.init 16 (fun _ -> Pgrid_prng.Rng.float rng) in
  let sim_heap () =
    Array.iter (fun delay -> Sim.schedule heap ~delay ignore) near;
    Sim.run_until heap ~time:(Sim.now heap +. 1.)
  in
  (* A breaker table as a protected storm leaves it: 4096 links that
     have failed and recovered (so they are present, closed), probed
     with 100 admit/record-success pairs a run, half on links never
     seen. *)
  let module Breaker = Pgrid_simnet.Breaker in
  let breaker =
    Breaker.create ~telemetry:Pgrid_telemetry.Telemetry.disabled Breaker.default_config
      ~now:(fun () -> 0.)
  in
  for origin = 0 to 63 do
    for target = 0 to 63 do
      Breaker.record_failure breaker ~origin ~target;
      Breaker.record_success breaker ~origin ~target
    done
  done;
  let breaker_admits () =
    for i = 0 to 99 do
      let origin = i land 63 and target = (i * 37) land 127 in
      if Breaker.admits breaker ~origin ~target then
        Breaker.record_success breaker ~origin ~target
    done
  in
  let sim_burst () =
    let s = Pgrid_simnet.Sim.create () in
    for i = 1 to 1000 do
      Pgrid_simnet.Sim.schedule s ~delay:(float_of_int i) (fun () -> ())
    done;
    Pgrid_simnet.Sim.run s
  in
  let tests =
    Test.make_grouped ~name:"pgrid"
      [
        Test.make ~name:"beta_of_p"
          (Staged.stage (fun () -> Pgrid_partition.Aep_math.beta_of_p 0.42));
        Test.make ~name:"alpha_of_p"
          (Staged.stage (fun () -> Pgrid_partition.Aep_math.alpha_of_p 0.12));
        Test.make ~name:"bisection-aep-n500"
          (Staged.stage (fun () ->
               ignore
                 (Pgrid_partition.Discrete.run rng Pgrid_partition.Discrete.Aep
                    ~n:500 ~p:0.3 ~samples:10)));
        Test.make ~name:"overlay-search"
          (Staged.stage (fun () ->
               ignore (Pgrid_core.Overlay.search overlay ~from:0 probe_key)));
        Test.make ~name:"qcache-probe-hit" (Staged.stage (probe_hot ~at:0));
        Test.make ~name:"qcache-probe-miss" (Staged.stage (probe_hot ~at:1));
        Test.make ~name:"rng-int" (Staged.stage rng_ints);
        Test.make ~name:"store-overlap" (Staged.stage store_overlap);
        Test.make ~name:"refs-union" (Staged.stage refs_union);
        Test.make ~name:"sim-1000-events" (Staged.stage sim_burst);
        Test.make ~name:"sim-heap" (Staged.stage sim_heap);
        Test.make ~name:"breaker-admits" (Staged.stage breaker_admits);
        Test.make ~name:"route-pick" (Staged.stage (route_pick ~seed ~churned:false));
        Test.make ~name:"route-pick-churned" (Staged.stage (route_pick ~seed ~churned:true));
        Test.make ~name:"codec-of-term"
          (* A single ~80ns call is dominated by call overhead and GC
             pacing from unrelated fixtures; a batch over varied term
             lengths keeps the estimate about the codec itself. *)
          (Staged.stage (fun () ->
               Array.iter
                 (fun t -> ignore (Pgrid_keyspace.Codec.of_term t))
                 codec_terms));
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second (quota_ms /. 1000.)) ~kde:None ()
  in
  (* Wall-clock targets run before us can leave a large major heap behind;
     without a compaction the kernel timings become GC-dominated (visible as
     negative OLS r^2).  Compact once so every run starts from a clean heap. *)
  Gc.compact ();
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun kernel ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with Some [ t ] -> Some t | _ -> None
      in
      { kernel; ns; r_square = Analyze.OLS.r_square ols } :: acc)
    results []
