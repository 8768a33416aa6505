(* Bechamel micro-benchmarks of the hot kernels: one OLS ns/run estimate
   (and its r^2) per kernel, [None] where the fit failed. *)

type estimate = { kernel : string; ns : float option; r_square : float option }

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
        Test.make ~name:"sim-1000-events" (Staged.stage sim_burst);
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
