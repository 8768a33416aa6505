module Rng = Pgrid_prng.Rng
module Moments = Pgrid_stats.Moments
module Series = Pgrid_stats.Series
module Table = Pgrid_stats.Table
module Aep_math = Pgrid_partition.Aep_math
module Mva = Pgrid_partition.Mva
module Discrete = Pgrid_partition.Discrete
module Distribution = Pgrid_workload.Distribution
module Round = Pgrid_construction.Round
module Sequential = Pgrid_construction.Sequential
module Net_engine = Pgrid_construction.Net_engine

let fig3 () =
  let points =
    List.init 60 (fun i ->
        let p = 0.005 *. float_of_int (i + 1) in
        (p, Aep_math.alpha_second_derivative p))
  in
  Series.figure ~title:"Figure 3: alpha''(p) (numerical)" ~x_label:"p"
    ~y_label:"alpha''"
    [ Series.make "alpha''" points ]

let p_grid = [ 0.05; 0.1; 0.15; 0.2; 0.25; 0.3; 0.35; 0.4; 0.45; 0.5 ]

(* One (deviation, interactions) sample per model run. *)
let run_model rng model ~n ~p ~samples =
  match model with
  | `Mva ->
    let o = Mva.run_exact ~n ~p in
    (o.Mva.p0 -. (float_of_int n *. p), o.Mva.interactions)
  | `Sam ->
    let o = Mva.run_sampled rng ~n ~p ~samples in
    (o.Mva.p0 -. (float_of_int n *. p), o.Mva.interactions)
  | `Discrete strategy ->
    let o = Discrete.run rng strategy ~n ~p ~samples in
    ( float_of_int o.Discrete.p0 -. (float_of_int n *. p),
      float_of_int o.Discrete.interactions )

let models =
  [
    ("MVA", `Mva);
    ("SAM", `Sam);
    ("AEP", `Discrete Discrete.Aep);
    ("COR", `Discrete Discrete.Cor);
    ("AUT", `Discrete Discrete.Autonomous);
  ]

let fig45_data_uncached ~n ~samples ~reps ~seed =
  List.map
    (fun (name, model) ->
      let dev_pts, int_pts =
        List.map
          (fun p ->
            let rng = Rng.create ~seed in
            let devs = Moments.create () and ints = Moments.create () in
            let actual_reps = match model with `Mva -> 1 | _ -> reps in
            for _ = 1 to actual_reps do
              let d, i = run_model rng model ~n ~p ~samples in
              Moments.add devs d;
              Moments.add ints i
            done;
            ((p, Moments.mean devs), (p, Moments.mean ints)))
          p_grid
        |> List.split
      in
      (name, dev_pts, int_pts))
    models

let fig45_cache = Hashtbl.create 4

let fig45_data ?(n = 1000) ?(samples = 10) ?(reps = 100) ~seed () =
  let key = (n, samples, reps, seed) in
  match Hashtbl.find_opt fig45_cache key with
  | Some data -> data
  | None ->
    let data = fig45_data_uncached ~n ~samples ~reps ~seed in
    Hashtbl.add fig45_cache key data;
    data

let fig4 ?n ?samples ?reps ~seed () =
  let data = fig45_data ?n ?samples ?reps ~seed () in
  Series.figure ~title:"Figure 4: mean(p0(t) - n p) over repetitions" ~x_label:"p"
    ~y_label:"deviation from n*p"
    (List.map (fun (name, dev, _) -> Series.make name dev) data)

let fig5 ?n ?samples ?reps ~seed () =
  let data = fig45_data ?n ?samples ?reps ~seed () in
  Series.figure ~title:"Figure 5: mean total number of interactions" ~x_label:"p"
    ~y_label:"interactions"
    (List.map (fun (name, _, ints) -> Series.make name ints) data)

type fig6 = {
  title : string;
  categories : string list;
  distributions : string list;
  values : float array array;
}

let fig6_table f =
  let columns = "" :: f.distributions in
  let rows =
    List.mapi
      (fun i cat ->
        cat :: Array.to_list (Array.map (fun v -> Table.fmt_float v) f.values.(i)))
      f.categories
  in
  Table.render ~title:f.title ~columns ~rows

let paper_distributions = Distribution.paper_set
let distribution_labels = List.map Distribution.label paper_distributions

(* Construction runs are shared between Figures 6(a), 6(e) and 6(f) (same
   parameters, different metrics), so cache the outcomes. *)
let round_cache : (Round.params * Distribution.spec * int, Round.outcome) Hashtbl.t =
  Hashtbl.create 64

let round_run ~seed ~params ~spec =
  let key = (params, spec, seed) in
  match Hashtbl.find_opt round_cache key with
  | Some o -> o
  | None ->
    let o = Round.run (Rng.create ~seed) params ~spec in
    Hashtbl.add round_cache key o;
    o

(* Average a Round-engine measurement over repetitions. *)
let round_metric ~reps ~seed ~params ~spec metric =
  let m = Moments.create () in
  for r = 0 to reps - 1 do
    Moments.add m (metric (round_run ~seed:(seed + (1000 * r)) ~params ~spec))
  done;
  Moments.mean m

let fig6_grid ~title ~categories ~reps ~seed ~params_of metric =
  let values =
    Array.of_list
      (List.mapi
         (fun ci _ ->
           Array.of_list
             (List.map
                (fun spec ->
                  round_metric ~reps ~seed ~params:(params_of ci) ~spec metric)
                paper_distributions))
         categories)
  in
  { title; categories; distributions = distribution_labels; values }

let deviation (o : Round.outcome) = o.Round.deviation

let fig6a ?(reps = 5) ~seed () =
  let sizes = [ 256; 512; 1024 ] in
  fig6_grid
    ~title:
      "Figure 6(a): deviation vs population (d_max = 10 n_min, n_min = 5, 10 \
       keys/peer)"
    ~categories:(List.map (fun n -> Printf.sprintf "n=%d" n) sizes)
    ~reps ~seed
    ~params_of:(fun ci -> Round.default_params ~peers:(List.nth sizes ci))
    deviation

let fig6b ?(reps = 5) ~seed () =
  let n_mins = [ 5; 10; 15; 20; 25 ] in
  fig6_grid ~title:"Figure 6(b): deviation vs required replication (n = 256)"
    ~categories:(List.map (fun m -> Printf.sprintf "n_min=%d" m) n_mins)
    ~reps ~seed
    ~params_of:(fun ci ->
      let n_min = List.nth n_mins ci in
      { (Round.default_params ~peers:256) with n_min; d_max = 10 * n_min })
    deviation

let fig6c ?(reps = 5) ~seed () =
  let factors = [ 10; 20; 30 ] in
  fig6_grid ~title:"Figure 6(c): deviation vs data sample size d_max (n = 256)"
    ~categories:(List.map (fun f -> Printf.sprintf "d_max=%d n_min" f) factors)
    ~reps ~seed
    ~params_of:(fun ci ->
      let f = List.nth factors ci in
      { (Round.default_params ~peers:256) with d_max = f * 5 })
    deviation

let fig6d ?(reps = 5) ~seed () =
  let cases =
    [ ("theory n_min=5", Round.Theory, 5); ("heur n_min=5", Round.Heuristic, 5);
      ("theory n_min=10", Round.Theory, 10); ("heur n_min=10", Round.Heuristic, 10) ]
  in
  fig6_grid ~title:"Figure 6(d): theoretical vs heuristic probabilities (n = 256)"
    ~categories:(List.map (fun (l, _, _) -> l) cases)
    ~reps ~seed
    ~params_of:(fun ci ->
      let _, mode, n_min = List.nth cases ci in
      { (Round.default_params ~peers:256) with mode; n_min; d_max = 10 * n_min })
    deviation

let fig6e ?(reps = 5) ~seed () =
  let sizes = [ 256; 512; 1024 ] in
  fig6_grid ~title:"Figure 6(e): construction interactions per peer"
    ~categories:(List.map (fun n -> Printf.sprintf "n=%d" n) sizes)
    ~reps ~seed
    ~params_of:(fun ci -> Round.default_params ~peers:(List.nth sizes ci))
    Round.interactions_per_peer

let fig6f ?(reps = 5) ~seed () =
  let sizes = [ 256; 512; 1024 ] in
  fig6_grid ~title:"Figure 6(f): data keys moved per peer (construction bandwidth)"
    ~categories:(List.map (fun n -> Printf.sprintf "n=%d" n) sizes)
    ~reps ~seed
    ~params_of:(fun ci -> Round.default_params ~peers:(List.nth sizes ci))
    Round.keys_moved_per_peer

(* --- PlanetLab substitute (Figures 7-9, Table 1) ----------------------- *)

let planetlab_cache : (int * int, Net_engine.outcome) Hashtbl.t = Hashtbl.create 4

let planetlab_run ?(peers = 296) ~seed () =
  match Hashtbl.find_opt planetlab_cache (peers, seed) with
  | Some o -> o
  | None ->
    let rng = Rng.create ~seed in
    let params = Net_engine.default_params ~peers in
    let o = Net_engine.run rng params ~spec:Distribution.paper_text in
    Hashtbl.add planetlab_cache (peers, seed) o;
    o

let fig7 ?peers ~seed () =
  let o = planetlab_run ?peers ~seed () in
  Series.figure ~title:"Figure 7: number of participating peers" ~x_label:"minutes"
    ~y_label:"online peers"
    [
      Series.make "peers"
        (List.map (fun (t, c) -> (t, float_of_int c)) o.Net_engine.online_series);
    ]

let fig8 ?peers ~seed () =
  let o = planetlab_run ?peers ~seed () in
  Series.figure ~title:"Figure 8: aggregate bandwidth consumption per peer"
    ~x_label:"minutes" ~y_label:"bytes/second"
    [
      Series.make "maintenance" o.Net_engine.maintenance_bw;
      Series.make "queries" o.Net_engine.query_bw;
    ]

let fig9 ?peers ~seed () =
  let o = planetlab_run ?peers ~seed () in
  let mean = List.map (fun (t, m, _) -> (t, m)) o.Net_engine.latency_series in
  let std = List.map (fun (t, _, s) -> (t, s)) o.Net_engine.latency_series in
  Series.figure ~title:"Figure 9: query latency" ~x_label:"minutes"
    ~y_label:"seconds"
    [ Series.make "average" mean; Series.make "stddev" std ]

let table1 ?peers ~seed () =
  let o = planetlab_run ?peers ~seed () in
  let qs = o.Net_engine.query_stats in
  let st = o.Net_engine.stats in
  let success_rate =
    100. *. float_of_int qs.Net_engine.succeeded /. float_of_int (max 1 qs.Net_engine.issued)
  in
  let columns = [ "statistic"; "paper"; "measured" ] in
  let rows =
    [
      [ "load-balance deviation"; "0.38 (sim) / 0.39 (experiment)";
        Table.fmt_float o.Net_engine.deviation ];
      [ "mean path length"; "slightly below 6";
        Table.fmt_float st.Pgrid_core.Overlay.mean_path_length ];
      [ "mean query hops"; "~3 (half the mean path)";
        Table.fmt_float qs.Net_engine.mean_hops ];
      [ "hops / log2(partitions)"; "~0.5";
        Table.fmt_float
          (qs.Net_engine.mean_hops
          /. (log (float_of_int (max 2 st.Pgrid_core.Overlay.partitions)) /. log 2.)) ];
      [ "mean replication factor"; "5";
        Table.fmt_float st.Pgrid_core.Overlay.mean_replication ];
      [ "query success rate"; "95-100%"; Table.fmt_float success_rate ^ "%" ];
      [ "peers"; "296"; string_of_int st.Pgrid_core.Overlay.peers ];
      [ "partitions"; "-"; string_of_int st.Pgrid_core.Overlay.partitions ];
    ]
  in
  (columns, rows)

(* --- resilience sweep (construction & queries under faults) ------------- *)

module Fault = Pgrid_simnet.Fault
module Churn = Pgrid_simnet.Churn

type resilience_row = {
  severity : float;
  deviation : float;
  success_pct : float;
  mean_latency : float;
  issued : int;
  succeeded : int;
  timeouts : int;
  retries : int;
  give_ups : int;
  evictions : int;
  crashes : int;
  loss_drops : int;
  partition_drops : int;
}

(* One fixed fault-plan shape scaled by [severity]: a Gilbert-Elliott
   bursty-loss chain over construction and queries, a partition cutting
   off a minority during part of the query phase, and Poisson
   crash-restarts late in the run.  Severity 0 keeps the hardened
   tracker active but injects nothing — the fault-free baseline the
   other rows are judged against. *)
let resilience_plan (phases : Net_engine.phases) severity =
  if severity <= 0. then []
  else begin
    let qs = phases.Net_engine.query_start and te = phases.Net_engine.end_time in
    let span = te -. qs in
    [
      Fault.Bursty_loss
        {
          start = phases.Net_engine.construct_start;
          stop = te;
          step = 5.;
          p_gb = 0.02 *. severity;
          p_bg = 0.2;
          loss_good = 0.;
          loss_bad = 0.6 *. severity;
        };
      Fault.Partition
        {
          start = qs +. (0.25 *. span);
          stop = qs +. (0.40 *. span);
          frac = 0.15 *. severity;
        };
      Fault.Crash_restart
        {
          start = qs +. (0.50 *. span);
          stop = qs +. (0.85 *. span);
          rate = severity /. 4000.;
          down_min = 30.;
          down_max = 120.;
        };
    ]
  end

let resilience_run ~peers ~seed severity =
  let rng = Rng.create ~seed in
  let base = Net_engine.default_params ~peers in
  let phases = base.Net_engine.phases in
  (* Churn off (empty window): the sweep isolates the injected faults. *)
  let no_churn =
    Churn.paper_params ~start:phases.Net_engine.end_time
      ~stop:phases.Net_engine.end_time
  in
  let params =
    {
      base with
      Net_engine.robust = Some Net_engine.default_robust;
      fault_plan = resilience_plan phases severity;
      fault_seed = seed + 7;
      churn = Some no_churn;
    }
  in
  let o = Net_engine.run rng params ~spec:Distribution.paper_text in
  let qs = o.Net_engine.query_stats in
  let rs = o.Net_engine.robust_stats in
  let crashes, loss_drops, partition_drops =
    match o.Net_engine.fault_stats with
    | Some f -> (f.Fault.crashes, f.Fault.loss_drops, f.Fault.partition_drops)
    | None -> (0, 0, 0)
  in
  {
    severity;
    deviation = o.Net_engine.deviation;
    success_pct =
      100.
      *. float_of_int qs.Net_engine.succeeded
      /. float_of_int (max 1 qs.Net_engine.issued);
    mean_latency = qs.Net_engine.mean_latency;
    issued = qs.Net_engine.issued;
    succeeded = qs.Net_engine.succeeded;
    timeouts = rs.Net_engine.timeouts;
    retries = rs.Net_engine.retries;
    give_ups = rs.Net_engine.give_ups;
    evictions = rs.Net_engine.evictions;
    crashes;
    loss_drops;
    partition_drops;
  }

let resilience ?(peers = 128) ?(severities = [ 0.0; 0.5; 1.0 ]) ~seed () =
  List.map (resilience_run ~peers ~seed) severities

let resilience_table rows =
  let columns =
    [ "severity"; "deviation"; "success"; "latency"; "issued"; "timeouts";
      "retries"; "give-ups"; "evictions"; "crashes"; "loss drops"; "cut drops" ]
  in
  ( columns,
    List.map
      (fun r ->
        [
          Printf.sprintf "%.1f" r.severity;
          Table.fmt_float r.deviation;
          Table.fmt_float ~decimals:1 r.success_pct ^ "%";
          Table.fmt_float ~decimals:3 r.mean_latency ^ "s";
          string_of_int r.issued;
          string_of_int r.timeouts;
          string_of_int r.retries;
          string_of_int r.give_ups;
          string_of_int r.evictions;
          string_of_int r.crashes;
          string_of_int r.loss_drops;
          string_of_int r.partition_drops;
        ])
      rows )

(* --- ablations ---------------------------------------------------------- *)

let ablation_sequential ?(sizes = [ 64; 128; 256; 512 ]) ~seed () =
  let columns =
    [ "n"; "seq msgs"; "seq latency (serial RTTs)"; "par msgs";
      "par latency (rounds)"; "seq dev"; "par dev" ]
  in
  let rows =
    List.map
      (fun n ->
        let rng = Rng.create ~seed in
        let seq = Sequential.run rng (Sequential.default_params ~peers:n)
            ~spec:Distribution.Uniform
        in
        let rng2 = Rng.create ~seed in
        let par = Round.run rng2 (Round.default_params ~peers:n)
            ~spec:Distribution.Uniform
        in
        [
          string_of_int n;
          string_of_int seq.Sequential.messages;
          string_of_int seq.Sequential.serial_latency;
          string_of_int par.Round.interactions;
          string_of_int par.Round.rounds;
          Table.fmt_float seq.Sequential.deviation;
          Table.fmt_float par.Round.deviation;
        ])
      sizes
  in
  (columns, rows)

let ablation_cost ?(sizes = [ 250; 500; 1000; 2000 ]) ?(reps = 20) ~seed () =
  let columns =
    [ "n"; "eager/n"; "ln 2"; "AUT/n"; "2 ln 2"; "AEP/n (p=0.3)"; "t_lambda/n (p=0.3)" ]
  in
  let ln2 = log 2. in
  let rows =
    List.map
      (fun n ->
        let mean strategy p =
          let rng = Rng.create ~seed in
          let m = Moments.create () in
          for _ = 1 to reps do
            let o = Discrete.run rng strategy ~n ~p ~samples:10 in
            Moments.add m (float_of_int o.Discrete.interactions /. float_of_int n)
          done;
          Moments.mean m
        in
        [
          string_of_int n;
          Table.fmt_float (mean Discrete.Eager 0.5);
          Table.fmt_float ln2;
          Table.fmt_float (mean Discrete.Autonomous 0.5);
          Table.fmt_float (2. *. ln2);
          Table.fmt_float (mean Discrete.Oracle 0.3);
          Table.fmt_float (Aep_math.t_lambda ~n ~p:0.3 /. float_of_int n);
        ])
      sizes
  in
  (columns, rows)

let ablation_correction ?(n = 1000) ?(samples = 10) ?(reps = 50) ~seed () =
  let columns = [ "p"; "AEP (none)"; "COR-T (Eqs. 9-10)"; "COR (calibrated)" ] in
  let rows =
    List.map
      (fun p ->
        let mean strategy =
          let rng = Rng.create ~seed in
          let m = Moments.create () in
          for _ = 1 to reps do
            let o = Discrete.run rng strategy ~n ~p ~samples in
            Moments.add m (float_of_int o.Discrete.p0 -. (float_of_int n *. p))
          done;
          Moments.mean m
        in
        [
          Table.fmt_float ~decimals:2 p;
          Table.fmt_float (mean Discrete.Aep);
          Table.fmt_float (mean Discrete.CorTaylor);
          Table.fmt_float (mean Discrete.Cor);
        ])
      [ 0.05; 0.1; 0.2; 0.3; 0.4; 0.5 ]
  in
  (columns, rows)

(* --- X4: order-preserving overlay vs PHT-over-DHT ----------------------- *)

let ablation_pht ?(peers = 256) ?(keys = 2560) ~seed () =
  let rng = Rng.create ~seed in
  let key_pop = Distribution.generate rng Distribution.Uniform ~n:keys in
  let overlay =
    Pgrid_core.Builder.index rng ~peers ~keys:key_pop ~d_max:50 ~n_min:5
      ~refs_per_level:2
  in
  let dht = Pgrid_baseline.Hash_dht.create rng ~nodes:peers in
  let pht = Pgrid_baseline.Pht.create dht ~block:50 in
  Array.iter
    (fun k ->
      ignore (Pgrid_baseline.Pht.insert pht ~from:(Rng.int rng peers) k "v"))
    key_pop;
  let columns =
    [ "range width"; "P-Grid partitions"; "P-Grid hops"; "PHT node accesses";
      "PHT hops" ]
  in
  let row width =
    let stats = Moments.create () and parts = Moments.create () in
    let pht_hops = Moments.create () and pht_accesses = Moments.create () in
    for _ = 1 to 30 do
      let start = Rng.float rng *. (1. -. width) in
      let lo = Pgrid_keyspace.Key.of_float start in
      let hi = Pgrid_keyspace.Key.of_float (start +. width) in
      let from = Rng.int rng peers in
      let r = Pgrid_core.Overlay.range_search overlay ~from ~lo ~hi in
      Moments.add stats (float_of_int r.Pgrid_core.Overlay.total_hops);
      Moments.add parts (float_of_int (List.length r.Pgrid_core.Overlay.visited));
      let _, c = Pgrid_baseline.Pht.range pht ~from ~lo ~hi in
      Moments.add pht_hops (float_of_int c.Pgrid_baseline.Pht.hops);
      Moments.add pht_accesses (float_of_int c.Pgrid_baseline.Pht.dht_lookups)
    done;
    [
      Table.fmt_float ~decimals:2 width;
      Table.fmt_float ~decimals:1 (Moments.mean parts);
      Table.fmt_float ~decimals:1 (Moments.mean stats);
      Table.fmt_float ~decimals:1 (Moments.mean pht_accesses);
      Table.fmt_float ~decimals:1 (Moments.mean pht_hops);
    ]
  in
  (columns, List.map row [ 0.01; 0.05; 0.1; 0.2 ])

(* --- X5: merging independently created indices --------------------------- *)

let ablation_merge ?(peers = 128) ~seed () =
  let half = peers / 2 in
  let params = Round.default_params ~peers:half in
  let build s =
    Round.run (Rng.create ~seed:s) params ~spec:Distribution.Uniform
  in
  let a = build seed and b = build (seed + 7) in
  let config =
    {
      Pgrid_construction.Engine.n_min = params.Round.n_min;
      d_max = params.Round.d_max;
      max_fruitless = params.Round.max_fruitless;
      refer_hops = params.Round.refer_hops;
      mode = Pgrid_construction.Engine.Theory;
    }
  in
  let merged =
    Pgrid_construction.Merge.overlays (Rng.create ~seed:(seed + 13)) ~config
      ~max_rounds:500 a.Round.overlay b.Round.overlay
  in
  let fresh = Round.run (Rng.create ~seed:(seed + 21)) { params with Round.peers } ~spec:Distribution.Uniform in
  let columns = [ "configuration"; "peers"; "rounds"; "interactions"; "deviation" ] in
  let rows =
    [
      [ "community A alone"; string_of_int half; string_of_int a.Round.rounds;
        string_of_int a.Round.interactions; Table.fmt_float a.Round.deviation ];
      [ "community B alone"; string_of_int half; string_of_int b.Round.rounds;
        string_of_int b.Round.interactions; Table.fmt_float b.Round.deviation ];
      [ "merge of A and B"; string_of_int peers;
        string_of_int merged.Pgrid_construction.Merge.rounds;
        string_of_int
          merged.Pgrid_construction.Merge.counters.Pgrid_construction.Engine.interactions;
        Table.fmt_float merged.Pgrid_construction.Merge.deviation ];
      [ "fresh build over union"; string_of_int peers; string_of_int fresh.Round.rounds;
        string_of_int fresh.Round.interactions; Table.fmt_float fresh.Round.deviation ];
    ]
  in
  (columns, rows)

(* --- X6: maintenance after churn ------------------------------------------ *)

let ablation_maintenance ?(peers = 200) ~seed () =
  let rng = Rng.create ~seed in
  let o = Round.run rng (Round.default_params ~peers) ~spec:Distribution.Uniform in
  let overlay = o.Round.overlay in
  let keys =
    let tbl = Hashtbl.create 1024 in
    for i = 0 to peers - 1 do
      List.iter
        (fun k -> Hashtbl.replace tbl k ())
        (Pgrid_core.Node.keys (Pgrid_core.Overlay.node overlay i))
    done;
    Array.of_list (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
  in
  let success () =
    let s = Pgrid_query.Query.lookup_batch (Rng.create ~seed:(seed + 3)) overlay ~keys ~count:400 in
    100. *. float_of_int s.Pgrid_query.Query.routed /. 400.
  in
  let rows = ref [] in
  let record step value = rows := [ step; value ] :: !rows in
  record "query success, healthy" (Printf.sprintf "%.1f%%" (success ()));
  (* 30%% of the population leaves gracefully. *)
  let leavers =
    Rng.sample_without_replacement rng ~k:(3 * peers / 10) ~n:peers
  in
  let handed =
    Array.fold_left
      (fun acc id -> acc + Pgrid_core.Maintenance.leave rng overlay id)
      0 leavers
  in
  record "graceful leaves (30% of peers)"
    (Printf.sprintf "%d payload copies handed over" handed);
  record "query success, degraded" (Printf.sprintf "%.1f%%" (success ()));
  let rep = Pgrid_core.Maintenance.repair rng overlay ~redundancy:2 in
  record "repair"
    (Printf.sprintf "%d dead refs dropped, %d added, %d unfixable"
       rep.Pgrid_core.Maintenance.dead_refs_dropped
       rep.Pgrid_core.Maintenance.refs_added
       rep.Pgrid_core.Maintenance.unfixable_levels);
  record "query success, repaired" (Printf.sprintf "%.1f%%" (success ()));
  let rejoined = ref 0 in
  Array.iter
    (fun id ->
      let entry =
        let rec pick () =
          let e = Rng.int rng peers in
          if (Pgrid_core.Overlay.node overlay e).Pgrid_core.Node.online then e else pick ()
        in
        pick ()
      in
      match Pgrid_core.Maintenance.join rng overlay id ~entry with
      | Some _ -> incr rejoined
      | None -> ())
    leavers;
  record "re-joins" (Printf.sprintf "%d of %d back" !rejoined (Array.length leavers));
  let bal = Pgrid_core.Maintenance.rebalance rng overlay ~n_min:5 ~max_rounds:200 in
  record "replication rebalance"
    (Printf.sprintf "%d migrations, spread %.2f" bal.Pgrid_core.Maintenance.migrations
       bal.Pgrid_core.Maintenance.final_spread);
  record "query success, final" (Printf.sprintf "%.1f%%" (success ()));
  ([ "step"; "result" ], List.rev !rows)

(* --- survival: hours of churn + permanent kills, daemon on vs off ------- *)

module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Latency = Pgrid_simnet.Latency
module Overlay = Pgrid_core.Overlay
module Node = Pgrid_core.Node
module Maintenance = Pgrid_core.Maintenance
module Health = Pgrid_core.Health
module Key = Pgrid_keyspace.Key
module Query = Pgrid_query.Query
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type survival_point = {
  t : float;
  online : int;
  score : float;
  ref_violations : int;
  under_replicated : int;
  at_risk : int;
  lost : int;
  success_pct : float;
  found_pct : float;
}

type survival_run = {
  daemon : bool;
  points : survival_point list;
  final_lost : int;
  min_success_pct : float;
  mean_score : float;
  kills : int;
  rereplications : int;
  exchanges : int;
  keys_synced : int;
  inserted : int;
  insert_failures : int;
}

let survival_n_min = 5

(* One arm of the experiment: construct, then [horizon] seconds of paper
   churn plus a permanent-kill wave (30% of the population dies with its
   disk wiped, uniformly over the middle of the run) while fresh keys
   keep being inserted.  The daemon-off arm shares every environmental
   seed, so churn, kills and the insert stream are identical; only the
   maintenance processes differ. *)
let survival_run_one ~peers ~horizon ~sample_every ~maint_period ~daemon ~seed =
  let rng = Rng.create ~seed in
  let built = Round.run rng (Round.default_params ~peers) ~spec:Distribution.Uniform in
  let overlay = built.Round.overlay in
  let keys0 =
    let tbl = Hashtbl.create 1024 in
    for i = 0 to peers - 1 do
      List.iter (fun k -> Hashtbl.replace tbl k ()) (Node.keys (Overlay.node overlay i))
    done;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl []
    |> List.sort Key.compare |> Array.of_list
  in
  let inserted = ref [] in
  let tracked_keys () = Array.append keys0 (Array.of_list (List.rev !inserted)) in
  let sim = Sim.create () in
  let tel = Pgrid_telemetry.Global.get () in
  Telemetry.set_clock tel (fun () -> Sim.now sim);
  let killed = Array.make peers false in
  let set_online i v =
    if not (killed.(i) && v) then begin
      let n = Overlay.node overlay i in
      if n.Node.online <> v then begin
        n.Node.online <- v;
        if Telemetry.active tel then
          Telemetry.emit tel
            (if v then Event.Churn_online { peer = i }
             else Event.Churn_offline { peer = i })
      end
    end
  in
  Churn.install ~clamp:true sim
    (Rng.create ~seed:(seed + 1))
    (Churn.paper_params ~start:0. ~stop:horizon)
    ~node_ids:(List.init peers (fun i -> i))
    ~set_online;
  (* The data-loss channel.  The unit network only hosts the fault
     processes; no messages flow through it. *)
  let net : unit Net.t =
    Net.create sim (Rng.create ~seed:(seed + 2)) ~nodes:peers
      ~latency:Latency.planetlab ~loss:0. ~bucket:60.
  in
  let fault =
    Fault.install ~telemetry:tel
      ~on_kill:(fun i ->
        killed.(i) <- true;
        let n = Overlay.node overlay i in
        n.Node.online <- false;
        Node.clear_store n)
      net ~seed:(seed + 3)
      [ Fault.Kill
          { start = 0.15 *. horizon; stop = 0.75 *. horizon; count = 3 * peers / 10 } ]
  in
  let dstats =
    if daemon then
      Some
        (Maintenance.install_daemon ~telemetry:tel ~keys:tracked_keys
           (Rng.create ~seed:(seed + 4))
           overlay
           ~schedule:(fun ~delay f -> Sim.schedule sim ~delay f)
           ~now:(fun () -> Sim.now sim)
           ~until:horizon
           {
             (Maintenance.default_daemon_config ~n_min:survival_n_min) with
             period = maint_period;
             critical = 2;
             (* Half the network can be offline at a churn trough; two
                online references per level dead-end far too often, so
                the refresh tops levels up to six. *)
             redundancy = 6;
             (* A partition that churns dark stays unroutable until the
                monitor recruits into it; a 15 s monitor (vs the 60 s
                default) shrinks that exposure window below the
                sampler's query batches. *)
             monitor_period = 15.;
           })
    else None
  in
  (* Live inserts: one fresh key every 20 s from a random online origin. *)
  let irng = Rng.create ~seed:(seed + 5) in
  let inserted_n = ref 0 and insert_failures = ref 0 in
  let online_ids () =
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) (if (Overlay.node overlay i).Node.online then i :: acc else acc)
    in
    go (peers - 1) []
  in
  let rec insert_loop () =
    if Sim.now sim < horizon then begin
      let key = Key.random irng in
      (match online_ids () with
      | [] -> incr insert_failures
      | ids -> (
        let from = Rng.pick_list irng ids in
        match
          Overlay.insert overlay ~from key (Printf.sprintf "doc-%d" !inserted_n)
        with
        | Some _ ->
          inserted := key :: !inserted;
          incr inserted_n
        | None -> incr insert_failures));
      Sim.schedule sim ~delay:20. insert_loop
    end
  in
  Sim.schedule_at sim ~time:60. insert_loop;
  (* Sampler: health + a 200-query batch at every multiple of
     [sample_every], including t = 0 and t = horizon. *)
  let points = ref [] in
  let samples = int_of_float (horizon /. sample_every) in
  for k = 0 to samples do
    let at = float_of_int k *. sample_every in
    Sim.schedule_at sim ~time:at (fun () ->
        let keys = tracked_keys () in
        let r = Health.check ~keys ~n_min:survival_n_min overlay in
        Health.emit ~telemetry:tel r;
        (* [heal] turns on the base protocol's correction-on-use (evict
           the dead reference, refill, retry once) for both arms, so
           the daemon arms are compared on top of — not instead of —
           the paper's passive repair. *)
        let q =
          Query.lookup_batch ~heal:true
            (Rng.create ~seed:(seed + (7919 * (k + 1))))
            overlay ~keys ~count:200
        in
        let pct n = 100. *. float_of_int n /. float_of_int (max 1 q.Query.issued) in
        points :=
          {
            t = at;
            online = r.Health.online;
            score = r.Health.score;
            ref_violations = r.Health.ref_integrity;
            under_replicated = r.Health.under_replicated;
            at_risk = r.Health.at_risk;
            lost = r.Health.lost;
            success_pct = pct q.Query.routed;
            found_pct = pct q.Query.found;
          }
          :: !points)
  done;
  Sim.run sim;
  let final_lost = match !points with [] -> 0 | last :: _ -> last.lost in
  let points = List.rev !points in
  let min_success_pct =
    List.fold_left (fun m p -> Float.min m p.success_pct) 100. points
  in
  let mean_score =
    List.fold_left (fun s p -> s +. p.score) 0. points
    /. float_of_int (max 1 (List.length points))
  in
  {
    daemon;
    points;
    final_lost;
    min_success_pct;
    mean_score;
    kills = (Fault.stats fault).Fault.kills;
    rereplications =
      (match dstats with Some d -> d.Maintenance.rereplications | None -> 0);
    exchanges = (match dstats with Some d -> d.Maintenance.exchanges | None -> 0);
    keys_synced = (match dstats with Some d -> d.Maintenance.keys_synced | None -> 0);
    inserted = !inserted_n;
    insert_failures = !insert_failures;
  }

type survival = {
  peers : int;
  horizon : float;
  sample_every : float;
  on : survival_run;
  off : survival_run;
}

let survival ?(peers = 192) ?(horizon = 7200.) ?(sample_every = 240.)
    ?(maint_period = 30.) ~seed () =
  if horizon <= 0. then invalid_arg "Figures.survival: horizon must be positive";
  if sample_every <= 0. then
    invalid_arg "Figures.survival: sample_every must be positive";
  let arm daemon =
    survival_run_one ~peers ~horizon ~sample_every ~maint_period ~daemon ~seed
  in
  { peers; horizon; sample_every; on = arm true; off = arm false }

let survival_table s =
  let columns =
    [ "minutes"; "online"; "score on"; "score off"; "success on"; "success off";
      "lost on"; "lost off"; "at-risk on"; "at-risk off" ]
  in
  let row (on : survival_point) (off : survival_point) =
    let pct p = Table.fmt_float ~decimals:1 p.success_pct ^ "%" in
    [
      Printf.sprintf "%.0f" (on.t /. 60.);
      string_of_int on.online;
      Table.fmt_float ~decimals:3 on.score;
      Table.fmt_float ~decimals:3 off.score;
      pct on;
      pct off;
      string_of_int on.lost;
      string_of_int off.lost;
      string_of_int on.at_risk;
      string_of_int off.at_risk;
    ]
  in
  (columns, List.map2 row s.on.points s.off.points)

let survival_summary s =
  let columns = [ "statistic"; "daemon on"; "daemon off" ] in
  let both f = [ f s.on; f s.off ] in
  let rows =
    [
      "min query success"
      :: both (fun r -> Table.fmt_float ~decimals:1 r.min_success_pct ^ "%");
      "mean health score" :: both (fun r -> Table.fmt_float ~decimals:3 r.mean_score);
      "lost keys at end" :: both (fun r -> string_of_int r.final_lost);
      "permanent kills" :: both (fun r -> string_of_int r.kills);
      "emergency re-replications" :: both (fun r -> string_of_int r.rereplications);
      "anti-entropy exchanges" :: both (fun r -> string_of_int r.exchanges);
      "keys synced" :: both (fun r -> string_of_int r.keys_synced);
      "keys inserted during run" :: both (fun r -> string_of_int r.inserted);
    ]
  in
  (columns, rows)

(* --- balance: skewed insert storm, online balancing on vs off ----------- *)

module Balance = Pgrid_core.Balance

type balance_point = {
  t : float;
  partitions : int;
  max_load : int;
  mean_load : float;
  score : float;
  success_pct : float;
  found_pct : float;
}

type balance_run = {
  balanced : bool;
  points : balance_point list;
  final_max_load : int;
  peak_max_load : int;
  final_partitions : int;
  min_success_pct : float;
  mean_score : float;
  splits : int;
  retracts : int;
  keys_moved : int;
  inserted : int;
  insert_failures : int;
}

(* Balancing floors: partitions may subdivide down to pairs, so the
   membership floor (and the health audit's replication target) sits
   well below the construction-time [n_min]. *)
let balance_n_min = 2

(* Splits fire on a period while the storm streams continuously, and
   membership floors bound how deep a partition can subdivide, so the
   balanced arm's load is held within a slack factor of [d_max] rather
   than at it. *)
let balance_slack = 2.0

(* One arm: construct a U-built overlay with one key per peer (few fat
   partitions, so runtime splits have membership to work with), then a
   Pareto-1.5 insert storm — the paper's most skewed synthetic
   distribution — concentrated on the low end of the key space.  Both
   arms share the storm seed; only the daemon differs. *)
let balance_run_one ~peers ~horizon ~sample_every ~d_max ~balanced ~seed =
  let rng = Rng.create ~seed in
  let built =
    Round.run rng
      { (Round.default_params ~peers) with Round.keys_per_peer = 1; d_max }
      ~spec:Distribution.Uniform
  in
  let overlay = built.Round.overlay in
  let keys0 =
    let tbl = Hashtbl.create 1024 in
    for i = 0 to peers - 1 do
      List.iter (fun k -> Hashtbl.replace tbl k ()) (Node.keys (Overlay.node overlay i))
    done;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl []
    |> List.sort Key.compare |> Array.of_list
  in
  let inserted = ref [] in
  let tracked_keys () = Array.append keys0 (Array.of_list (List.rev !inserted)) in
  let sim = Sim.create () in
  let tel = Pgrid_telemetry.Global.get () in
  Telemetry.set_clock tel (fun () -> Sim.now sim);
  let dstats =
    if balanced then
      Some
        (Maintenance.install_daemon ~telemetry:tel ~keys:tracked_keys
           (Rng.create ~seed:(seed + 4))
           overlay
           ~schedule:(fun ~delay f -> Sim.schedule sim ~delay f)
           ~now:(fun () -> Sim.now sim)
           ~until:horizon
           {
             (Maintenance.default_daemon_config ~n_min:balance_n_min) with
             Maintenance.balance =
               Some (Balance.default_config ~d_max ~n_min:balance_n_min);
           })
    else None
  in
  (* The storm: one Pareto-1.5 key every 3 s from a random online
     origin, starting after a minute of quiet. *)
  let irng = Rng.create ~seed:(seed + 5) in
  let sample_key = Distribution.sampler (Distribution.Pareto 1.5) irng in
  let inserted_n = ref 0 and insert_failures = ref 0 in
  let rec insert_loop () =
    if Sim.now sim < horizon then begin
      let key = sample_key () in
      let from = Rng.int irng peers in
      (match Overlay.insert overlay ~from key (Printf.sprintf "doc-%d" !inserted_n) with
      | Some _ ->
        inserted := key :: !inserted;
        incr inserted_n
      | None -> incr insert_failures);
      Sim.schedule sim ~delay:3. insert_loop
    end
  in
  Sim.schedule_at sim ~time:60. insert_loop;
  (* Per-partition storage load over the online population. *)
  let partition_loads () =
    let tbl = Hashtbl.create 64 in
    for i = 0 to Overlay.size overlay - 1 do
      let n = Overlay.node overlay i in
      if n.Node.online then begin
        let key = Pgrid_keyspace.Path.to_string n.Node.path in
        let load = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
        Hashtbl.replace tbl key (max load (Node.key_count n))
      end
    done;
    Hashtbl.fold (fun _ load acc -> load :: acc) tbl []
  in
  let points = ref [] in
  let samples = int_of_float (horizon /. sample_every) in
  for k = 0 to samples do
    let at = float_of_int k *. sample_every in
    Sim.schedule_at sim ~time:at (fun () ->
        let keys = tracked_keys () in
        let r = Health.check ~keys ~n_min:balance_n_min overlay in
        Health.emit ~telemetry:tel r;
        let q =
          Query.lookup_batch
            (Rng.create ~seed:(seed + (7919 * (k + 1))))
            overlay ~keys ~count:200
        in
        let pct n = 100. *. float_of_int n /. float_of_int (max 1 q.Query.issued) in
        let loads = partition_loads () in
        let max_load = List.fold_left max 0 loads in
        let mean_load =
          float_of_int (List.fold_left ( + ) 0 loads)
          /. float_of_int (max 1 (List.length loads))
        in
        points :=
          {
            t = at;
            partitions = List.length loads;
            max_load;
            mean_load;
            score = r.Health.score;
            success_pct = pct q.Query.routed;
            found_pct = pct q.Query.found;
          }
          :: !points)
  done;
  Sim.run sim;
  let final = match !points with [] -> None | last :: _ -> Some last in
  let points = List.rev !points in
  {
    balanced;
    points;
    final_max_load = (match final with Some p -> p.max_load | None -> 0);
    peak_max_load = List.fold_left (fun m p -> max m p.max_load) 0 points;
    final_partitions = (match final with Some p -> p.partitions | None -> 0);
    min_success_pct =
      List.fold_left (fun m p -> Float.min m p.success_pct) 100. points;
    mean_score =
      List.fold_left (fun s p -> s +. p.score) 0. points
      /. float_of_int (max 1 (List.length points));
    splits = (match dstats with Some d -> d.Maintenance.balance_splits | None -> 0);
    retracts = (match dstats with Some d -> d.Maintenance.balance_retracts | None -> 0);
    keys_moved =
      (match dstats with Some d -> d.Maintenance.balance_keys_moved | None -> 0);
    inserted = !inserted_n;
    insert_failures = !insert_failures;
  }

type balance = {
  peers : int;
  horizon : float;
  sample_every : float;
  d_max : int;
  on : balance_run;
  off : balance_run;
}

let balance ?(peers = 192) ?(horizon = 3600.) ?(sample_every = 180.) ?(d_max = 50)
    ~seed () =
  if horizon <= 0. then invalid_arg "Figures.balance: horizon must be positive";
  if sample_every <= 0. then
    invalid_arg "Figures.balance: sample_every must be positive";
  if d_max < 1 then invalid_arg "Figures.balance: d_max must be >= 1";
  let arm balanced = balance_run_one ~peers ~horizon ~sample_every ~d_max ~balanced ~seed in
  { peers; horizon; sample_every; d_max; on = arm true; off = arm false }

let balance_table b =
  let columns =
    [ "minutes"; "parts on"; "parts off"; "max load on"; "max load off";
      "score on"; "score off"; "success on"; "success off" ]
  in
  let row (on : balance_point) (off : balance_point) =
    let pct p = Table.fmt_float ~decimals:1 p.success_pct ^ "%" in
    [
      Printf.sprintf "%.0f" (on.t /. 60.);
      string_of_int on.partitions;
      string_of_int off.partitions;
      string_of_int on.max_load;
      string_of_int off.max_load;
      Table.fmt_float ~decimals:3 on.score;
      Table.fmt_float ~decimals:3 off.score;
      pct on;
      pct off;
    ]
  in
  (columns, List.map2 row b.on.points b.off.points)

let balance_summary b =
  let columns = [ "statistic"; "balanced"; "unbalanced" ] in
  let both f = [ f b.on; f b.off ] in
  let bound = string_of_int (int_of_float (balance_slack *. float_of_int b.d_max)) in
  let rows =
    [
      "final max partition load" :: both (fun r -> string_of_int r.final_max_load);
      "peak max partition load" :: both (fun r -> string_of_int r.peak_max_load);
      [ Printf.sprintf "load bound (slack %.1f x d_max %d)" balance_slack b.d_max;
        bound; bound ];
      "partitions at end" :: both (fun r -> string_of_int r.final_partitions);
      "runtime splits" :: both (fun r -> string_of_int r.splits);
      "retractions" :: both (fun r -> string_of_int r.retracts);
      "keys moved by balancing" :: both (fun r -> string_of_int r.keys_moved);
      "min query success"
      :: both (fun r -> Table.fmt_float ~decimals:1 r.min_success_pct ^ "%");
      "mean health score" :: both (fun r -> Table.fmt_float ~decimals:3 r.mean_score);
      "keys inserted during storm" :: both (fun r -> string_of_int r.inserted);
    ]
  in
  (columns, rows)

(* --- txn: atomic document indexing under crash-during-commit faults ------ *)

module Txn = Pgrid_core.Txn

type txn_point = {
  severity : float;
  submitted : int;
  committed : int;
  aborted : int;
  still_pending : int;
  commit_pct : float;
  torn : int;
  lost_committed : int;
  abort_residue : int;
  recovered : int;
  redelivered : int;
  undos : int;
  timeouts : int;
  txn_retries : int;
  crashes : int;
  intents_left : int;
}

type txn_outcome = {
  txn_peers : int;
  txn_horizon : float;
  doc_interval : float;
  points : txn_point list;
}

let txn_n_min = 5

(* One severity arm: construct, then stream multi-key document inserts
   through the transaction coordinator while a Poisson crash-restart
   process (rate scaled by [severity]) keeps knocking peers over —
   including mid-commit.  Protocol messages ride a lossy, latency-bearing
   simulated network, so prepares and commit pushes genuinely race the
   crashes.  A 60 s recovery pass replays intent logs throughout, and a
   final sweep (after the presumed-abort window) settles everything the
   crashes orphaned.  The audit then judges the durable stores directly:
   every settled document must be fully indexed (committed) or fully
   scrubbed (aborted). *)
let txn_run_one ~peers ~horizon ~doc_interval ~severity ~seed =
  let rng = Rng.create ~seed in
  let built = Round.run rng (Round.default_params ~peers) ~spec:Distribution.Uniform in
  let overlay = built.Round.overlay in
  let keys0 =
    let tbl = Hashtbl.create 1024 in
    for i = 0 to peers - 1 do
      List.iter (fun k -> Hashtbl.replace tbl k ()) (Node.keys (Overlay.node overlay i))
    done;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl []
    |> List.sort Key.compare |> Array.of_list
  in
  let sim = Sim.create () in
  let tel = Pgrid_telemetry.Global.get () in
  Telemetry.set_clock tel (fun () -> Sim.now sim);
  (* The protocol network: messages carry their delivery continuation,
     so loss and offline destinations genuinely drop protocol steps. *)
  let net : (unit -> unit) Net.t =
    Net.create ~telemetry:tel sim
      (Rng.create ~seed:(seed + 2))
      ~nodes:peers ~latency:Latency.planetlab ~loss:0.02 ~bucket:60.
  in
  Net.set_handler net (fun _dst deliver -> deliver ());
  let transport =
    {
      Txn.send =
        (fun ~phase ~src ~dst ~deliver ->
          let bytes = 200 + (match phase with Txn.Prepare -> 64 | _ -> 0) in
          Net.send net ~src ~dst ~bytes ~kind:Net.Maintenance deliver);
    }
  in
  let mgr =
    Txn.create ~telemetry:tel
      (Rng.create ~seed:(seed + 4))
      overlay ~transport
      ~schedule:(fun ~delay f -> Sim.schedule sim ~delay f)
      ~now:(fun () -> Sim.now sim)
  in
  let set_online i v =
    let n = Overlay.node overlay i in
    if n.Node.online <> v then begin
      n.Node.online <- v;
      Net.set_online net i v;
      if Telemetry.active tel then
        Telemetry.emit tel
          (if v then Event.Churn_online { peer = i }
           else Event.Churn_offline { peer = i })
    end
  in
  let fault =
    if severity <= 0. then None
    else
      Some
        (Fault.install ~telemetry:tel
           ~on_crash:(fun i ->
             (* Crash wipes volatile state only: in-flight coordinations
                die, the store and the intent log survive. *)
             Txn.note_crash mgr i;
             set_online i false)
           ~on_restart:(fun i -> set_online i true)
           net ~seed:(seed + 3)
           [
             Fault.Crash_restart
               {
                 start = 120.;
                 stop = 0.8 *. horizon;
                 rate = 0.0005 *. severity;
                 down_min = 30.;
                 down_max = 120.;
               };
           ])
  in
  (* Document stream: every [doc_interval] seconds a random coordinator
     atomically indexes one fresh document under 3-6 distinct keys. *)
  let drng = Rng.create ~seed:(seed + 5) in
  let submitted = ref 0 in
  let doc_stop = 0.85 *. horizon in
  let rec doc_loop () =
    if Sim.now sim < doc_stop then begin
      let coordinator = Rng.int drng peers in
      let k = 3 + Rng.int drng 4 in
      let picks =
        Rng.sample_without_replacement drng ~k ~n:(Array.length keys0)
      in
      if (Overlay.node overlay coordinator).Node.online then begin
        let doc = Printf.sprintf "doc-%05d" !submitted in
        incr submitted;
        let ops =
          Array.to_list picks
          |> List.map (fun i -> Txn.Put { key = keys0.(i); payload = doc })
        in
        ignore (Txn.submit mgr ~coordinator ops)
      end;
      Sim.schedule sim ~delay:doc_interval doc_loop
    end
  in
  Sim.schedule_at sim ~time:60. doc_loop;
  let rec recover_loop () =
    if Sim.now sim < horizon then begin
      ignore (Txn.recover_pass mgr);
      Sim.schedule sim ~delay:60. recover_loop
    end
  in
  Sim.schedule_at sim ~time:120. recover_loop;
  (* Final sweeps, after the last crash has restarted and the
     presumed-abort window of any orphaned transaction has elapsed. *)
  let final_at = horizon +. (Txn.config mgr).Txn.recover_after +. 60. in
  Sim.schedule_at sim ~time:final_at (fun () -> ignore (Txn.recover_pass mgr));
  Sim.schedule_at sim ~time:(final_at +. 60.) (fun () ->
      ignore (Txn.recover_pass mgr));
  Sim.run sim;
  (* --- audit ----------------------------------------------------------- *)
  let settled = Txn.settled_docs mgr in
  let postings = Hashtbl.create 4096 in
  for i = 0 to peers - 1 do
    Hashtbl.iter
      (fun k ps -> List.iter (fun p -> Hashtbl.replace postings (k, p) ()) ps)
      (Overlay.node overlay i).Node.store
  done;
  let present (doc, ks) =
    Array.fold_left
      (fun acc k -> if Hashtbl.mem postings (k, doc) then acc + 1 else acc)
      0 ks
  in
  let docs = Array.of_list (List.map (fun (d, ks, _) -> (d, ks)) settled) in
  let report = Health.check ~keys:keys0 ~docs ~n_min:txn_n_min overlay in
  Health.emit ~telemetry:tel report;
  let committed, aborted =
    List.partition (fun (_, _, c) -> c) settled
  in
  let lost_committed =
    List.length
      (List.filter
         (fun (d, ks, _) -> Array.length ks > 0 && present (d, ks) = 0)
         committed)
  in
  let abort_residue =
    List.length (List.filter (fun (d, ks, _) -> present (d, ks) > 0) aborted)
  in
  let s = Txn.stats mgr in
  {
    severity;
    submitted = !submitted;
    committed = List.length committed;
    aborted = List.length aborted;
    still_pending = Txn.in_flight mgr;
    commit_pct =
      100. *. float_of_int (List.length committed)
      /. float_of_int (max 1 !submitted);
    torn = report.Health.torn;
    lost_committed;
    abort_residue;
    recovered = s.Txn.recovered;
    redelivered = s.Txn.redelivered;
    undos = s.Txn.undos;
    timeouts = s.Txn.timeouts;
    txn_retries = s.Txn.retries;
    crashes = (match fault with Some f -> (Fault.stats f).Fault.crashes | None -> 0);
    intents_left = Txn.intent_count mgr;
  }

let txn ?(peers = 192) ?(horizon = 3600.) ?(doc_interval = 6.)
    ?(severities = [ 0.; 0.3; 0.6 ]) ~seed () =
  if horizon <= 0. then invalid_arg "Figures.txn: horizon must be positive";
  if doc_interval <= 0. then
    invalid_arg "Figures.txn: doc_interval must be positive";
  {
    txn_peers = peers;
    txn_horizon = horizon;
    doc_interval;
    points =
      List.map
        (fun severity -> txn_run_one ~peers ~horizon ~doc_interval ~severity ~seed)
        severities;
  }

let txn_table o =
  let columns =
    [ "severity"; "submitted"; "committed"; "aborted"; "pending"; "commit %";
      "torn"; "lost"; "residue"; "recovered"; "timeouts"; "crashes"; "intents" ]
  in
  let rows =
    List.map
      (fun p ->
        [
          Table.fmt_float ~decimals:1 p.severity;
          string_of_int p.submitted;
          string_of_int p.committed;
          string_of_int p.aborted;
          string_of_int p.still_pending;
          Table.fmt_float ~decimals:1 p.commit_pct ^ "%";
          string_of_int p.torn;
          string_of_int p.lost_committed;
          string_of_int p.abort_residue;
          string_of_int p.recovered;
          string_of_int p.timeouts;
          string_of_int p.crashes;
          string_of_int p.intents_left;
        ])
      o.points
  in
  (columns, rows)

(* --- overload: Zipf query storm, admission control on vs off ------------- *)

module Storm = Pgrid_query.Storm
module Breaker = Pgrid_simnet.Breaker
module Sample = Pgrid_prng.Sample

type overload_point = {
  t : float;  (* window start, seconds *)
  offered : float;  (* queries issued per second *)
  goodput : float;  (* successful completions per second *)
  shed : int;  (* service-queue sheds during the window *)
  backlog : int;  (* messages queued network-wide at window end *)
  in_flight : int;  (* client requests awaiting reply or timeout *)
}

type overload_run = {
  protected : bool;
  points : overload_point list;
  pre_goodput : float;
  post_goodput : float;
  recovery_ratio : float;
  recovered : bool;
  time_to_recover : float;
  p50_completion : float;
  p99_completion : float;
  shed_ratio : float;
  messages_sent : int;
  messages_dropped : int;
  storm_stats : Storm.stats;
}

let overload_service_rate = 2.

(* One arm: build the overlay, then drive a Zipf-1.1 lookup storm through
   the simulated network while every peer services messages at a bounded
   rate.  Offered load ramps [warm -> storm -> recovery]; under the skew
   the binding constraint is the service capacity of the hottest
   partitions' replica sets, which the storm plateau exceeds severalfold.
   The environment (arrival times, key choices, origins) comes from its
   own seeded streams, so both arms see the identical storm; only the
   protection differs.  The unprotected arm has effectively unbounded
   queues, no breakers and no hedging: queues on hot replicas grow
   through the plateau and keep absorbing service slots long after the
   ramp ends, while client retries amplify the residual load - goodput
   stays depressed (metastable collapse).  The protected arm sheds at
   arrival, breaks circuits to saturated replicas and hedges slow hops,
   so it returns to the pre-ramp baseline within a few windows. *)
let overload_run_one ~peers ~horizon ~base_rate ~peak_rate ~protected ~seed =
  let rng = Rng.create ~seed in
  let built = Round.run rng (Round.default_params ~peers) ~spec:Distribution.Uniform in
  let overlay = built.Round.overlay in
  let keys =
    let tbl = Hashtbl.create 1024 in
    for i = 0 to peers - 1 do
      List.iter (fun k -> Hashtbl.replace tbl k ()) (Node.keys (Overlay.node overlay i))
    done;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl []
    |> List.sort Key.compare |> Array.of_list
  in
  (* Decorrelate popularity rank from key-space position: without the
     shuffle the sorted hot head would pile into one partition. *)
  Rng.shuffle (Rng.create ~seed:(seed + 1)) keys;
  let zipf = Sample.Zipf.create ~n:(Array.length keys) ~s:1.1 in
  let sim = Sim.create () in
  let tel = Pgrid_telemetry.Global.get () in
  Telemetry.set_clock tel (fun () -> Sim.now sim);
  let service =
    if protected then
      Some
        {
          Net.service_rate = overload_service_rate;
          queue_capacity = 16;
          (* A query admitted behind more than 6 others waits > 3 s for
             service — past most of its 4 s timeout, so it would only
             burn a slot on an answer nobody is waiting for.  Shed it
             instead; maintenance tolerates the full queue. *)
          query_threshold = 6;
        }
    else
      (* Same service capacity, but queues deep enough to never shed:
         saturation turns into unbounded backlog instead. *)
      Some
        {
          Net.service_rate = overload_service_rate;
          queue_capacity = max_int / 2;
          query_threshold = max_int / 2;
        }
  in
  let net : Storm.wire Net.t =
    Net.create ~telemetry:tel ?service sim
      (Rng.create ~seed:(seed + 2))
      ~nodes:peers ~latency:Latency.planetlab ~loss:0.02 ~bucket:60.
  in
  let cfg =
    {
      Storm.default_config with
      hedge_after = (if protected then Some 2. else None);
      breaker = (if protected then Some Breaker.default_config else None);
    }
  in
  let storm =
    Storm.create ~telemetry:tel sim (Rng.create ~seed:(seed + 3)) overlay net cfg
  in
  let warm_end = horizon /. 6. and storm_end = horizon /. 2. in
  let rate now = if now >= warm_end && now < storm_end then peak_rate else base_rate in
  (* Arrival process: Poisson at the phase rate, key by Zipf popularity,
     origin uniform - all from [arng], so the two arms receive the very
     same storm. *)
  let arng = Rng.create ~seed:(seed + 4) in
  let rec arrivals () =
    let now = Sim.now sim in
    if now < horizon then begin
      let key = keys.(Sample.Zipf.draw zipf arng - 1) in
      let origin = Rng.int arng peers in
      Storm.issue storm ~origin ~key;
      Sim.schedule sim ~delay:(Sample.exponential arng ~rate:(rate now)) arrivals
    end
  in
  Sim.schedule_at sim ~time:(Sample.exponential arng ~rate:base_rate) arrivals;
  (* Light background maintenance traffic (a heartbeat per peer per
     minute): under the protected arm's priority policy it keeps flowing
     while queries shed first. *)
  let hrng = Rng.create ~seed:(seed + 5) in
  Array.iteri
    (fun i _ ->
      let rec beat () =
        if Sim.now sim < horizon then begin
          let dst = Rng.int hrng peers in
          if dst <> i then Storm.heartbeat storm ~src:i ~dst;
          Sim.schedule sim ~delay:60. beat
        end
      in
      Sim.schedule_at sim ~time:(Sample.uniform hrng ~lo:0. ~hi:60.) beat)
    (Array.make peers ());
  (* Windowed sampler: deltas of the storm counters per [horizon/24]. *)
  let window = horizon /. 24. in
  let points = ref [] in
  let last = ref (0, 0, 0) in
  for k = 1 to 24 do
    let at = float_of_int k *. window in
    Sim.schedule_at sim ~time:at (fun () ->
        let s = Storm.stats storm in
        let pi, ps, psh = !last in
        last := (s.Storm.issued, s.Storm.succeeded, s.Storm.sheds);
        points :=
          {
            t = at -. window;
            offered = float_of_int (s.Storm.issued - pi) /. window;
            goodput = float_of_int (s.Storm.succeeded - ps) /. window;
            shed = s.Storm.sheds - psh;
            backlog = Net.backlog net;
            in_flight = Storm.in_flight storm;
          }
          :: !points)
  done;
  Sim.run sim;
  let points = List.rev !points in
  let mean_goodput filter =
    let sel = List.filter filter points in
    List.fold_left (fun s p -> s +. p.goodput) 0. sel
    /. float_of_int (max 1 (List.length sel))
  in
  (* Baseline: the settled half of the warm phase. Recovery: the final
     quarter of the run, half the recovery phase after the ramp ends. *)
  let pre_goodput =
    mean_goodput (fun p -> p.t >= warm_end /. 2. && p.t < warm_end)
  in
  let post_goodput = mean_goodput (fun p -> p.t >= 0.75 *. horizon) in
  let recovery_ratio = if pre_goodput > 0. then post_goodput /. pre_goodput else 0. in
  let time_to_recover, recovered =
    (* Sustained recovery: the first post-ramp window from which goodput
       never again falls below 90% of the baseline.  A one-window spike
       does not count — right after the ramp ends the unprotected arm
       still completes a burst of long-queued lookups before sliding
       back into its backlog, and that blip must not read as recovery. *)
    let healthy p = p.goodput >= 0.9 *. pre_goodput in
    let post = List.filter (fun p -> p.t >= storm_end) points in
    let rec scan = function
      | [] -> (horizon -. storm_end, false)
      | p :: rest ->
        if healthy p && List.for_all healthy rest then
          (p.t +. window -. storm_end, true)
        else scan rest
    in
    scan post
  in
  let p50_completion, p99_completion =
    let lat =
      List.filter_map
        (fun c ->
          if c.Storm.success then Some (c.Storm.finished_at -. c.Storm.issued_at)
          else None)
        (Storm.completions storm)
      |> Array.of_list
    in
    Array.sort compare lat;
    let pick q =
      if Array.length lat = 0 then 0.
      else lat.(min (Array.length lat - 1)
                 (int_of_float (q *. float_of_int (Array.length lat))))
    in
    (pick 0.50, pick 0.99)
  in
  let stats = Storm.stats storm in
  {
    protected;
    points;
    pre_goodput;
    post_goodput;
    recovery_ratio;
    recovered;
    time_to_recover;
    p50_completion;
    p99_completion;
    shed_ratio =
      float_of_int stats.Storm.sheds
      /. float_of_int (max 1 (Net.messages_sent net));
    messages_sent = Net.messages_sent net;
    messages_dropped = Net.messages_dropped net;
    storm_stats = stats;
  }

type overload = {
  peers : int;
  horizon : float;
  base_rate : float;
  peak_rate : float;
  on : overload_run;
  off : overload_run;
}

let overload ?(peers = 10_000) ?(horizon = 1440.) ?(base_rate = 30.)
    ?(peak_rate = 300.) ~seed () =
  if peers < 8 then invalid_arg "Figures.overload: need at least 8 peers";
  if horizon <= 0. then invalid_arg "Figures.overload: horizon must be positive";
  if base_rate <= 0. || peak_rate <= 0. then
    invalid_arg "Figures.overload: rates must be positive";
  let arm protected =
    overload_run_one ~peers ~horizon ~base_rate ~peak_rate ~protected ~seed
  in
  { peers; horizon; base_rate; peak_rate; on = arm true; off = arm false }

let overload_table o =
  let columns =
    [ "minutes"; "offered/s"; "goodput on"; "goodput off"; "shed on"; "shed off";
      "backlog on"; "backlog off" ]
  in
  let row (on : overload_point) (off : overload_point) =
    [
      Printf.sprintf "%.0f" (on.t /. 60.);
      Table.fmt_float ~decimals:1 on.offered;
      Table.fmt_float ~decimals:1 on.goodput;
      Table.fmt_float ~decimals:1 off.goodput;
      string_of_int on.shed;
      string_of_int off.shed;
      string_of_int on.backlog;
      string_of_int off.backlog;
    ]
  in
  (columns, List.map2 row o.on.points o.off.points)

let overload_summary o =
  let columns = [ "statistic"; "protected"; "unprotected" ] in
  let both f = [ f o.on; f o.off ] in
  let rows =
    [
      "pre-ramp goodput/s" :: both (fun r -> Table.fmt_float ~decimals:1 r.pre_goodput);
      "post-ramp goodput/s" :: both (fun r -> Table.fmt_float ~decimals:1 r.post_goodput);
      "recovery ratio" :: both (fun r -> Table.fmt_float ~decimals:3 r.recovery_ratio);
      "time to recover (s)"
      :: both (fun r ->
             if r.recovered then Table.fmt_float ~decimals:0 r.time_to_recover
             else Printf.sprintf ">%.0f" r.time_to_recover);
      "p50 completion (s)" :: both (fun r -> Table.fmt_float ~decimals:2 r.p50_completion);
      "p99 completion (s)" :: both (fun r -> Table.fmt_float ~decimals:2 r.p99_completion);
      "shed ratio" :: both (fun r -> Table.fmt_float ~decimals:4 r.shed_ratio);
      "queries issued" :: both (fun r -> string_of_int r.storm_stats.Storm.issued);
      "succeeded" :: both (fun r -> string_of_int r.storm_stats.Storm.succeeded);
      "timeouts" :: both (fun r -> string_of_int r.storm_stats.Storm.timeouts);
      "retries" :: both (fun r -> string_of_int r.storm_stats.Storm.retries);
      "sheds (query)" :: both (fun r -> string_of_int r.storm_stats.Storm.sheds_query);
      "sheds (maintenance)"
      :: both (fun r -> string_of_int r.storm_stats.Storm.sheds_maintenance);
      "breaker opens" :: both (fun r -> string_of_int r.storm_stats.Storm.breaker_opens);
      "breaker skips" :: both (fun r -> string_of_int r.storm_stats.Storm.breaker_skips);
      "hedges" :: both (fun r -> string_of_int r.storm_stats.Storm.hedges);
      "hedge wins" :: both (fun r -> string_of_int r.storm_stats.Storm.hedge_wins);
      "queue peak" :: both (fun r -> string_of_int r.storm_stats.Storm.queue_peak);
    ]
  in
  (columns, rows)

(* --- partition: split-brain window, reconciliation on vs off ------------- *)

module Reconcile = Pgrid_core.Reconcile

type partition_point = {
  t : float;
  score : float;
  lost : int;
  resurrected : int;
  diverged : int;
  tombstones : int;
  success_pct : float;
  found_pct : float;
}

type partition_run = {
  reconciling : bool;
  points : partition_point list;
  converged_at : float option;
      (* seconds after heal until the first clean sample that stays clean *)
  final_resurrected : int;
  final_diverged : int;
  final_lost : int;
  peak_resurrected : int;
  peak_diverged : int;
  inserted : int;
  deleted : int;
  insert_failures : int;
  delete_failures : int;
  syncs : int;
  repairs : int;
  tombstones_purged : int;
  splits : int;
}

let partition_n_min = 2

(* One arm of the split-brain experiment: construct, cut the network in
   half for [stop - start] seconds while a skewed insert storm and a
   routed delete stream keep hitting both sides (each gated by
   {!Fault.connected}, so writes only reach the origin's island), with
   load balancing live on both sides — the overloaded paths split
   independently per island — then heal and watch the version audits.
   Both arms share every environmental seed; only [reconcile] differs. *)
let partition_run_one ~peers ~horizon ~sample_every ~start ~stop ~bound
    ~reconciling ~seed =
  let rng = Rng.create ~seed in
  let built = Round.run rng (Round.default_params ~peers) ~spec:Distribution.Uniform in
  let overlay = built.Round.overlay in
  let keys0 =
    let tbl = Hashtbl.create 1024 in
    for i = 0 to peers - 1 do
      List.iter (fun k -> Hashtbl.replace tbl k ()) (Node.keys (Overlay.node overlay i))
    done;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl []
    |> List.sort Key.compare |> Array.of_list
  in
  (* The keys that *should* exist: initial and inserted, minus routed
     deletes.  A deleted key must stay gone — if it is findable again
     the audit reports it as resurrected, not lost. *)
  let live = ref (Array.to_list keys0) in
  let live_n = ref (Array.length keys0) in
  let tracked_keys () = Array.of_list !live in
  let sim = Sim.create () in
  let tel = Pgrid_telemetry.Global.get () in
  Telemetry.set_clock tel (fun () -> Sim.now sim);
  let net : unit Net.t =
    Net.create sim (Rng.create ~seed:(seed + 2)) ~nodes:peers
      ~latency:Latency.planetlab ~loss:0. ~bucket:60.
  in
  let fault =
    Fault.install ~telemetry:tel net ~seed:(seed + 3)
      [ Fault.Partition { start; stop; frac = 0.5 } ]
  in
  let adm src dst = Fault.connected fault ~src ~dst in
  let d_max = (Round.default_params ~peers).Round.d_max in
  let dstats =
    Maintenance.install_daemon ~telemetry:tel ~keys:tracked_keys
      (Rng.create ~seed:(seed + 4))
      overlay
      ~schedule:(fun ~delay f -> Sim.schedule sim ~delay f)
      ~now:(fun () -> Sim.now sim)
      ~until:horizon
      {
        (Maintenance.default_daemon_config ~n_min:partition_n_min) with
        (* Construction leaves ~5 members per partition, so one island
           sees 2-3 of them: a balance floor of 1 lets an island-local
           view split once it has three members and an overloaded
           store.  [d_max] matches construction, so only storm-fed
           paths split. *)
        Maintenance.balance = Some (Balance.default_config ~d_max ~n_min:1);
        admit = Some adm;
        reconcile =
          (if reconciling then
             Some
               {
                 Reconcile.default_config with
                 Reconcile.period = 60.;
                 (* Tombstones must outlive the cut plus the time
                    reconciliation is allowed to take, or GC would turn
                    un-synced deletes back into resurrections. *)
                 gc_after = stop -. start +. bound;
               }
           else None);
      }
  in
  (* The storm: one Pareto-1.5 key every 10 s — skewed, so the hot
     low-end paths keep crossing [d_max] and split *during* the cut. *)
  let irng = Rng.create ~seed:(seed + 5) in
  let sample_key = Distribution.sampler (Distribution.Pareto 1.5) irng in
  let inserted_n = ref 0 and insert_failures = ref 0 in
  let rec insert_loop () =
    if Sim.now sim < horizon then begin
      let key = sample_key () in
      let from = Rng.int irng peers in
      (match
         Overlay.insert ~admit:adm ~stamp:(Sim.now sim) overlay ~from key
           (Printf.sprintf "doc-%d" !inserted_n)
       with
      | Some _ ->
        live := key :: !live;
        incr live_n;
        incr inserted_n
      | None -> incr insert_failures);
      Sim.schedule sim ~delay:10. insert_loop
    end
  in
  Sim.schedule_at sim ~time:60. insert_loop;
  (* The delete stream: every 30 s one routed whole-key delete of a
     random live key.  During the cut only the origin's island applies
     it; the other side's copies are exactly the stale state
     reconciliation must outvote after heal. *)
  let drng = Rng.create ~seed:(seed + 6) in
  let deleted_n = ref 0 and delete_failures = ref 0 in
  let rec delete_loop () =
    if Sim.now sim < horizon then begin
      (if !live_n > 0 then begin
         let at = Rng.int drng !live_n in
         let key = List.nth !live at in
         let from = Rng.int drng peers in
         match Overlay.delete ~admit:adm ~stamp:(Sim.now sim) overlay ~from key with
         | Some _ ->
           live := List.filteri (fun i _ -> i <> at) !live;
           decr live_n;
           incr deleted_n
         | None -> incr delete_failures
       end);
      Sim.schedule sim ~delay:30. delete_loop
    end
  in
  Sim.schedule_at sim ~time:90. delete_loop;
  (* Sampler: a version-aware health audit (both arms — the baseline
     maintains the sidecar too, it just never acts on it) plus a
     200-query batch at every multiple of [sample_every]. *)
  let points = ref [] in
  let samples = int_of_float (horizon /. sample_every) in
  for k = 0 to samples do
    let at = float_of_int k *. sample_every in
    Sim.schedule_at sim ~time:at (fun () ->
        let keys = tracked_keys () in
        let r = Health.check ~keys ~versions:true ~n_min:partition_n_min overlay in
        Health.emit ~telemetry:tel r;
        let q =
          Query.lookup_batch ~heal:true
            (Rng.create ~seed:(seed + (7919 * (k + 1))))
            overlay ~keys ~count:200
        in
        let pct n = 100. *. float_of_int n /. float_of_int (max 1 q.Query.issued) in
        points :=
          {
            t = at;
            score = r.Health.score;
            lost = r.Health.lost;
            resurrected = r.Health.resurrected;
            diverged = r.Health.diverged;
            tombstones = r.Health.tombstone_debt;
            success_pct = pct q.Query.routed;
            found_pct = pct q.Query.found;
          }
          :: !points)
  done;
  Sim.run sim;
  let final = match !points with [] -> None | last :: _ -> Some last in
  let points = List.rev !points in
  let clean p = p.resurrected = 0 && p.diverged = 0 && p.lost = 0 in
  let converged_at =
    let rec scan = function
      | [] -> None
      | p :: rest ->
        if p.t >= stop && clean p && List.for_all clean rest then Some (p.t -. stop)
        else scan rest
    in
    scan points
  in
  {
    reconciling;
    points;
    converged_at;
    final_resurrected = (match final with Some p -> p.resurrected | None -> 0);
    final_diverged = (match final with Some p -> p.diverged | None -> 0);
    final_lost = (match final with Some p -> p.lost | None -> 0);
    peak_resurrected = List.fold_left (fun m p -> max m p.resurrected) 0 points;
    peak_diverged = List.fold_left (fun m p -> max m p.diverged) 0 points;
    inserted = !inserted_n;
    deleted = !deleted_n;
    insert_failures = !insert_failures;
    delete_failures = !delete_failures;
    syncs = dstats.Maintenance.exchanges;
    repairs = dstats.Maintenance.divergences_repaired;
    tombstones_purged = dstats.Maintenance.tombstones_purged;
    splits = dstats.Maintenance.balance_splits;
  }

type partition = {
  peers : int;
  horizon : float;
  sample_every : float;
  heal_at : float;
  bound : float;
  on : partition_run;
  off : partition_run;
}

let partition ?(peers = 1024) ?(horizon = 14400.) ?(sample_every = 240.) ~seed () =
  if horizon <= 0. then invalid_arg "Figures.partition: horizon must be positive";
  if sample_every <= 0. then
    invalid_arg "Figures.partition: sample_every must be positive";
  let start = 0.25 *. horizon and stop = 0.75 *. horizon in
  let bound = 0.125 *. horizon in
  let arm reconciling =
    partition_run_one ~peers ~horizon ~sample_every ~start ~stop ~bound
      ~reconciling ~seed
  in
  { peers; horizon; sample_every; heal_at = stop; bound; on = arm true; off = arm false }

let partition_table x =
  let columns =
    [ "minutes"; "resurrected on"; "resurrected off"; "diverged on";
      "diverged off"; "lost on"; "lost off"; "tombstones on"; "tombstones off";
      "score on"; "score off" ]
  in
  let row (on : partition_point) (off : partition_point) =
    [
      Printf.sprintf "%.0f" (on.t /. 60.);
      string_of_int on.resurrected;
      string_of_int off.resurrected;
      string_of_int on.diverged;
      string_of_int off.diverged;
      string_of_int on.lost;
      string_of_int off.lost;
      string_of_int on.tombstones;
      string_of_int off.tombstones;
      Table.fmt_float ~decimals:3 on.score;
      Table.fmt_float ~decimals:3 off.score;
    ]
  in
  (columns, List.map2 row x.on.points x.off.points)

let partition_summary x =
  let columns = [ "statistic"; "reconciling"; "baseline" ] in
  let both f = [ f x.on; f x.off ] in
  let conv r =
    match r.converged_at with
    | Some s -> Table.fmt_float ~decimals:0 s ^ " s"
    | None -> "never"
  in
  let rows =
    [
      Printf.sprintf "converged within bound (%.0f s)" x.bound
      :: both (fun r ->
             match r.converged_at with
             | Some s when s <= x.bound -> "yes"
             | _ -> "no");
      "time to converge after heal" :: both conv;
      "resurrected deletes at end" :: both (fun r -> string_of_int r.final_resurrected);
      "diverged partitions at end" :: both (fun r -> string_of_int r.final_diverged);
      "lost keys at end" :: both (fun r -> string_of_int r.final_lost);
      "peak resurrected deletes" :: both (fun r -> string_of_int r.peak_resurrected);
      "peak diverged partitions" :: both (fun r -> string_of_int r.peak_diverged);
      "sync exchanges" :: both (fun r -> string_of_int r.syncs);
      "structural repairs" :: both (fun r -> string_of_int r.repairs);
      "tombstones purged" :: both (fun r -> string_of_int r.tombstones_purged);
      "runtime splits" :: both (fun r -> string_of_int r.splits);
      "keys inserted during run" :: both (fun r -> string_of_int r.inserted);
      "keys deleted during run" :: both (fun r -> string_of_int r.deleted);
      "insert failures" :: both (fun r -> string_of_int r.insert_failures);
      "delete failures" :: both (fun r -> string_of_int r.delete_failures);
    ]
  in
  (columns, rows)

(* --- queries: million-lookup Zipf storm, route/result caching on vs off -- *)

module Engine = Pgrid_query.Engine
module Qcache = Pgrid_query.Qcache
module Path = Pgrid_keyspace.Path

type queries_arm = {
  cached : bool;
  issued : int;
  routed : int;
  found : int;
  mean_hops : float;
  p50_hops : int;
  p99_hops : int;
  peak_hops : int;
  seconds : float;  (* CPU seconds; the only machine-dependent field *)
  qps : float;
  hit_ratio : float;
  result_hits : int;
  route_hits : int;
  stale_probes : int;
}

type queries_storm = {
  storm_queries : int;
  storm_routed : int;
  wrong_responsible : int;  (* must be 0: validation on use *)
  storm_stale : int;  (* stale hits that fell back to routing *)
  storm_mismatch : int;  (* cached answer disagreed with the live store *)
  storm_splits : int;
  storm_invalidations : int;
  storm_hit_ratio : float;
}

type queries_batch = {
  batch_groups : int;
  batch_keys : int;
  batch_messages : int;  (* forwards sent by the shared walks *)
  batch_naive : int;  (* what the same resolutions cost walked alone *)
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

(* Smallest hop count at or below which a [frac] share of routed queries
   completed. *)
let queries_percentile hist routed frac =
  let want =
    int_of_float (ceil (frac *. float_of_int routed)) |> max 1
  in
  let rec go h acc =
    if h >= Array.length hist then Array.length hist - 1
    else begin
      let acc = acc + hist.(h) in
      if acc >= want then h else go (h + 1) acc
    end
  in
  if routed = 0 then 0 else go 0 0

(* Modeled-network service costs behind [qps].  In-process, a routing
   hop is a function call and a cache probe a hash lookup, so wall
   clock inverts the real economics; deployed, every hop is a network
   message (PlanetLab median one-way delay — the same
   [Latency.planetlab] shape the daemon experiments sample) that dwarfs
   a local probe.  Charging those costs makes [qps] the serial-replay
   throughput over the modeled network — and fully seed-deterministic,
   so CI can compare it exactly, unlike the wall-clock [seconds]. *)
let queries_hop_seconds = 0.15
let queries_probe_seconds = 1e-5

(* The two arms replay one pregenerated (origin, key) trace — identical
   draws by construction, not by RNG-discipline luck.  Construction is
   followed by one global anti-entropy round so every replica of a
   partition answers key presence identically; with both arms then
   reading the same stores, [routed] and [found] must agree exactly and
   any divergence is a cache-correctness bug. *)
let queries_run ~peers ~count ~seed =
  let rng = Rng.create ~seed in
  let built = Round.run rng (Round.default_params ~peers) ~spec:Distribution.Uniform in
  let overlay = built.Round.overlay in
  ignore (Overlay.anti_entropy overlay);
  let keys =
    let tbl = Hashtbl.create 1024 in
    for i = 0 to peers - 1 do
      List.iter (fun k -> Hashtbl.replace tbl k ()) (Node.keys (Overlay.node overlay i))
    done;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl []
    |> List.sort Key.compare |> Array.of_list
  in
  (* Responsibility closure over the queried key universe.  Exact-path
     anti-entropy leaves a node whose path is a strict prefix of a
     deeper group's without that group's keys — yet a walk can
     legitimately terminate at either, and the two arms' walks for the
     same query may terminate at different ones (a cache jump picks a
     different replica).  Giving every responsible node each queried key
     (bare presence plus the full payload union) makes [found] depend
     only on the trace, never on which valid terminal a walk reached. *)
  let () =
    let canonical = Hashtbl.create (Array.length keys) in
    for i = 0 to peers - 1 do
      Hashtbl.iter
        (fun k payloads ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt canonical k) in
          let missing = List.filter (fun p -> not (List.mem p existing)) payloads in
          Hashtbl.replace canonical k (missing @ existing))
        (Overlay.node overlay i).Node.store
    done;
    (* First index whose key is >= [target]; [keys] is still sorted. *)
    let lower_bound target =
      let lo = ref 0 and hi = ref (Array.length keys) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Key.to_int keys.(mid) < target then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    for i = 0 to peers - 1 do
      let n = Overlay.node overlay i in
      let lo, hi = Path.interval_keys n.Node.path in
      for j = lower_bound lo to lower_bound hi - 1 do
        let k = keys.(j) in
        (* [ensure_key] propagates bare presence: construction indexes
           keys without payloads, which a payload-union pass would skip
           entirely. *)
        Node.ensure_key n k;
        List.iter
          (fun p -> ignore (Node.insert_new n k p))
          (Option.value ~default:[] (Hashtbl.find_opt canonical k))
      done
    done
  in
  (* Decorrelate popularity rank from key-space position, as in the
     overload storm. *)
  Rng.shuffle (Rng.create ~seed:(seed + 1)) keys;
  let zipf = Sample.Zipf.create ~n:(Array.length keys) ~s:1.1 in
  let trng = Rng.create ~seed:(seed + 2) in
  let origins = Array.make count 0 in
  let qkeys = Array.make count keys.(0) in
  for i = 0 to count - 1 do
    origins.(i) <- Rng.int trng peers;
    qkeys.(i) <- keys.(Sample.Zipf.draw zipf trng - 1)
  done;
  let arm cached =
    let cache = if cached then Some (Qcache.create overlay) else None in
    let hist = Array.make (Overlay.max_hops + 2) 0 in
    let routed = ref 0 and found = ref 0 in
    let hops_sum = ref 0 and peak = ref 0 in
    (* All messages paid, successful or not — failed walks still cost
       their hops on the modeled network. *)
    let all_hops = ref 0 in
    let t0 = Sys.time () in
    for i = 0 to count - 1 do
      let r = Engine.lookup ?cache overlay ~from:origins.(i) qkeys.(i) in
      all_hops := !all_hops + r.Engine.hops;
      match r.Engine.responsible with
      | Some _ ->
        incr routed;
        if r.Engine.key_present then incr found;
        hops_sum := !hops_sum + r.Engine.hops;
        if r.Engine.hops > !peak then peak := r.Engine.hops;
        let h = min r.Engine.hops (Array.length hist - 1) in
        hist.(h) <- hist.(h) + 1
      | None -> ()
    done;
    let seconds = Sys.time () -. t0 in
    let cstats =
      match cache with
      | Some c -> Qcache.stats c
      | None ->
        {
          Qcache.route_hits = 0; result_hits = 0; misses = 0; stale = 0;
          invalidations = 0; evictions = 0; route_entries = 0;
          result_entries = 0;
        }
    in
    {
      cached;
      issued = count;
      routed = !routed;
      found = !found;
      mean_hops =
        (if !routed = 0 then 0.
         else float_of_int !hops_sum /. float_of_int !routed);
      p50_hops = queries_percentile hist !routed 0.5;
      p99_hops = queries_percentile hist !routed 0.99;
      peak_hops = !peak;
      seconds;
      qps =
        (let probes =
           cstats.Qcache.route_hits + cstats.Qcache.result_hits
           + cstats.Qcache.misses + cstats.Qcache.stale
         in
         let net_seconds =
           (float_of_int !all_hops *. queries_hop_seconds)
           +. (float_of_int probes *. queries_probe_seconds)
         in
         if net_seconds > 0. then float_of_int count /. net_seconds
         else float_of_int count);
      hit_ratio = Qcache.hit_ratio cstats;
      result_hits = cstats.Qcache.result_hits;
      route_hits = cstats.Qcache.route_hits;
      stale_probes = cstats.Qcache.stale;
    }
  in
  let off = arm false in
  let on = arm true in
  (* Batched lookups, measured without caches so [messages] vs [naive]
     isolates the prefix-sharing win. *)
  let batch =
    let brng = Rng.create ~seed:(seed + 3) in
    let groups = 200 and group_size = 32 in
    let messages = ref 0 and naive = ref 0 in
    let unresolved = ref 0 and bkeys = ref 0 in
    for _ = 1 to groups do
      let from = Rng.int brng peers in
      let ks =
        List.init group_size (fun _ -> keys.(Sample.Zipf.draw zipf brng - 1))
      in
      bkeys := !bkeys + group_size;
      let b = Engine.lookup_many overlay ~from ks in
      messages := !messages + b.Engine.messages;
      naive := !naive + b.Engine.naive_messages;
      unresolved := !unresolved + b.Engine.unresolved
    done;
    {
      batch_groups = groups;
      batch_keys = !bkeys;
      batch_messages = !messages;
      batch_naive = !naive;
      batch_unresolved = !unresolved;
    }
  in
  (* Stale-cache correctness under a live balance storm: a skewed insert
     stream pushes hot partitions past [d_max] so Balance.pass keeps
     splitting (re-homed members invalidate cache entries through the
     overlay's change feed), while churn toggles peers offline so
     entries go stale the invalidation feed cannot see.  Every answered
     query is audited: the responsible peer returned must genuinely be
     online and responsible, and a cache-served answer must match the
     live store. *)
  let storm =
    let cache = Qcache.create overlay in
    let srng = Rng.create ~seed:(seed + 4) in
    let sample_key = Distribution.sampler (Distribution.Pareto 1.5) srng in
    let d_max = (Round.default_params ~peers).Round.d_max in
    let bcfg = Balance.default_config ~d_max ~n_min:1 in
    let rounds = 20 in
    let inserts_per_round = max 20 (peers / 100) in
    let queries_per_round = max 200 (count / 2000) in
    let churn_per_round = max 2 (peers / 200) in
    let q = ref 0 and routed = ref 0 and wrong = ref 0 and mismatch = ref 0 in
    let splits = ref 0 in
    let offline = ref [] in
    for _round = 1 to rounds do
      for i = 1 to inserts_per_round do
        let from = Rng.int srng peers in
        if (Overlay.node overlay from).Node.online then
          ignore (Overlay.insert overlay ~from (sample_key ())
                    (Printf.sprintf "storm-%d" i))
      done;
      (* Churn: take a few peers down (their cached entries turn stale),
         bring the previous round's victims back. *)
      List.iter
        (fun i -> (Overlay.node overlay i).Node.online <- true)
        !offline;
      offline := [];
      for _ = 1 to churn_per_round do
        let i = Rng.int srng peers in
        let n = Overlay.node overlay i in
        if n.Node.online then begin
          n.Node.online <- false;
          offline := i :: !offline
        end
      done;
      for _ = 1 to queries_per_round do
        incr q;
        let from = Rng.int srng peers in
        let k = qkeys.(Rng.int srng count) in
        let r = Engine.lookup ~cache overlay ~from k in
        match r.Engine.responsible with
        | None -> ()
        | Some id ->
          incr routed;
          let n = Overlay.node overlay id in
          if not (n.Node.online && Node.responsible_for n k) then incr wrong;
          if r.Engine.key_present <> Node.has_key n k then incr mismatch
      done;
      let report = Balance.pass srng overlay bcfg in
      splits := !splits + report.Balance.splits
    done;
    List.iter (fun i -> (Overlay.node overlay i).Node.online <- true) !offline;
    let cstats = Qcache.stats cache in
    {
      storm_queries = !q;
      storm_routed = !routed;
      wrong_responsible = !wrong;
      storm_stale = cstats.Qcache.stale;
      storm_mismatch = !mismatch;
      storm_splits = !splits;
      storm_invalidations = cstats.Qcache.invalidations;
      storm_hit_ratio = Qcache.hit_ratio cstats;
    }
  in
  { peers; count; on; off; storm; batch }

let queries ?(peers = 10_000) ?(count = 1_000_000) ~seed () =
  if peers < 8 then invalid_arg "Figures.queries: need at least 8 peers";
  if count < 1 then invalid_arg "Figures.queries: count must be >= 1";
  queries_run ~peers ~count ~seed

let queries_summary q =
  let columns = [ "statistic"; "cache on"; "cache off" ] in
  let both f = [ f q.on; f q.off ] in
  let rows =
    [
      "queries issued" :: both (fun a -> string_of_int a.issued);
      "routed" :: both (fun a -> string_of_int a.routed);
      "found" :: both (fun a -> string_of_int a.found);
      "mean hops" :: both (fun a -> Table.fmt_float ~decimals:3 a.mean_hops);
      "p50 hops" :: both (fun a -> string_of_int a.p50_hops);
      "p99 hops" :: both (fun a -> string_of_int a.p99_hops);
      "max hops" :: both (fun a -> string_of_int a.peak_hops);
      "queries/s (modeled net)" :: both (fun a -> Table.fmt_float ~decimals:2 a.qps);
      "cpu seconds" :: both (fun a -> Table.fmt_float ~decimals:2 a.seconds);
      "hit ratio" :: both (fun a -> Table.fmt_float ~decimals:4 a.hit_ratio);
      "result-cache hits" :: both (fun a -> string_of_int a.result_hits);
      "route-cache hits" :: both (fun a -> string_of_int a.route_hits);
      "stale probes" :: both (fun a -> string_of_int a.stale_probes);
    ]
  in
  (columns, rows)

let queries_storm_summary q =
  let columns = [ "statistic"; "value" ] in
  let s = q.storm and b = q.batch in
  let rows =
    [
      [ "storm queries"; string_of_int s.storm_queries ];
      [ "storm routed"; string_of_int s.storm_routed ];
      [ "wrong responsible"; string_of_int s.wrong_responsible ];
      [ "stale fallbacks"; string_of_int s.storm_stale ];
      [ "store mismatches"; string_of_int s.storm_mismatch ];
      [ "splits during storm"; string_of_int s.storm_splits ];
      [ "invalidations"; string_of_int s.storm_invalidations ];
      [ "storm hit ratio"; Table.fmt_float ~decimals:4 s.storm_hit_ratio ];
      [ "batch groups"; string_of_int b.batch_groups ];
      [ "batch keys"; string_of_int b.batch_keys ];
      [ "batch messages"; string_of_int b.batch_messages ];
      [ "batch naive messages"; string_of_int b.batch_naive ];
      [ "batch unresolved"; string_of_int b.batch_unresolved ];
    ]
  in
  (columns, rows)
