(* Tests for Pgrid_experiment: every figure generator produces well-formed,
   paper-shaped data (small repetitions for speed). *)

module Figures = Pgrid_experiment.Figures
module Experiment = Pgrid_experiment.Experiment
module Series = Pgrid_stats.Series

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let series_by_name fig name =
  match List.find_opt (fun s -> s.Series.name = name) fig.Series.series with
  | Some s -> s
  | None -> Alcotest.failf "series %s missing" name

let value_at s x =
  let found = ref nan in
  Array.iter (fun (px, py) -> if Float.abs (px -. x) < 1e-9 then found := py) s.Series.points;
  !found

let test_fig3_shape () =
  let fig = Figures.fig3 () in
  let s = series_by_name fig "alpha''" in
  checkb "has points" true (Array.length s.Series.points > 10);
  Array.iter (fun (_, y) -> checkb "positive" true (y > 0.)) s.Series.points

let fig45 = lazy (Figures.fig4 ~n:400 ~reps:8 ~seed:123 (), Figures.fig5 ~n:400 ~reps:8 ~seed:123 ())

let test_fig4_shape () =
  let fig4, _ = Lazy.force fig45 in
  checki "five models" 5 (List.length fig4.Series.series);
  let aep = series_by_name fig4 "AEP" in
  let aut = series_by_name fig4 "AUT" in
  (* AEP biased upward at small p, AUT close to zero. *)
  checkb "AEP bias visible" true (value_at aep 0.1 > 5.);
  checkb "AUT near zero" true (Float.abs (value_at aut 0.1) < 6.)

let test_fig5_shape () =
  let _, fig5 = Lazy.force fig45 in
  let aut = series_by_name fig5 "AUT" in
  let mva = series_by_name fig5 "MVA" in
  (* AUT costs more than the AEP mean-value prediction at p = 1/2, and the
     AEP cost rises as p falls. *)
  checkb "AUT above MVA at 1/2" true (value_at aut 0.5 > value_at mva 0.5);
  checkb "cost rises for small p" true (value_at mva 0.05 > value_at mva 0.5)

let test_fig6_table_rendering () =
  let f =
    {
      Figures.title = "demo";
      categories = [ "n=1"; "n=2" ];
      distributions = [ "U"; "A" ];
      values = [| [| 0.1; 0.2 |]; [| 0.3; 0.4 |] |];
    }
  in
  let s = Figures.fig6_table f in
  checkb "mentions category" true (Test_util.contains s "n=2");
  checkb "mentions value" true (Test_util.contains s "0.400")

let test_planetlab_artifacts () =
  (* One shared small run behind figures 7-9 and table 1. *)
  let fig7 = Figures.fig7 ~peers:48 ~seed:7 () in
  let fig8 = Figures.fig8 ~peers:48 ~seed:7 () in
  let fig9 = Figures.fig9 ~peers:48 ~seed:7 () in
  let columns, rows = Figures.table1 ~peers:48 ~seed:7 () in
  checki "fig7 one series" 1 (List.length fig7.Series.series);
  checki "fig8 two series" 2 (List.length fig8.Series.series);
  checki "fig9 two series" 2 (List.length fig9.Series.series);
  checki "table has three columns" 3 (List.length columns);
  checkb "table has the paper's stats" true (List.length rows >= 6);
  (* Memoization: the three figures came from a single simulation. *)
  let o1 = Figures.planetlab_run ~peers:48 ~seed:7 () in
  let o2 = Figures.planetlab_run ~peers:48 ~seed:7 () in
  checkb "memoized" true (o1 == o2)

let test_survival_smoke () =
  (* A short survival run: both arms sampled on a shared environment.
     The daemon arm must never lose data the control arm keeps. *)
  let s =
    Figures.survival ~peers:96 ~horizon:1200. ~sample_every:300. ~seed:5 ()
  in
  let on = s.Figures.on and off = s.Figures.off in
  checki "same sample count" (List.length on.Figures.points)
    (List.length off.Figures.points);
  checki "five samples" 5 (List.length on.Figures.points);
  checkb "kill waves match across arms" true (on.Figures.kills = off.Figures.kills);
  checkb "daemon arm did maintenance" true (on.Figures.exchanges > 0);
  checkb "control arm did none" true (off.Figures.exchanges = 0 && off.Figures.rereplications = 0);
  checkb "daemon arm loses nothing the control keeps" true
    (on.Figures.final_lost <= off.Figures.final_lost);
  let columns, rows = Figures.survival_table s in
  checki "ten data columns" 10 (List.length columns);
  checki "one row per sample" 5 (List.length rows);
  let _, srows = Figures.survival_summary s in
  checkb "summary has rows" true (List.length srows >= 6);
  (* Deterministic: the same parameters give the same tables. *)
  let s2 =
    Figures.survival ~peers:96 ~horizon:1200. ~sample_every:300. ~seed:5 ()
  in
  checkb "same table" true (Figures.survival_table s2 = (columns, rows));
  checkb "same summary" true (Figures.survival_summary s2 = Figures.survival_summary s)

let test_overload_smoke () =
  (* A miniature storm: both arms share the identical offered load; the
     protected arm sheds and the unprotected arm builds backlog. *)
  let o =
    Figures.overload ~peers:128 ~horizon:360. ~base_rate:10. ~peak_rate:120.
      ~seed:6 ()
  in
  let on = o.Figures.on and off = o.Figures.off in
  checkb "arms tagged" true (on.Figures.protected && not off.Figures.protected);
  checki "same window count" (List.length on.Figures.points)
    (List.length off.Figures.points);
  checki "24 windows" 24 (List.length on.Figures.points);
  checkb "identical offered load across arms" true
    (List.for_all2
       (fun (a : Figures.overload_point) (b : Figures.overload_point) ->
         a.Figures.offered = b.Figures.offered)
       on.Figures.points off.Figures.points);
  checkb "same storm issued on both arms" true
    (on.Figures.storm_stats.Pgrid_query.Storm.issued
    = off.Figures.storm_stats.Pgrid_query.Storm.issued);
  checkb "protected arm sheds" true
    (on.Figures.storm_stats.Pgrid_query.Storm.sheds > 0);
  checkb "unprotected arm never sheds" true
    (off.Figures.storm_stats.Pgrid_query.Storm.sheds = 0);
  checkb "unprotected queues run deeper" true
    (off.Figures.storm_stats.Pgrid_query.Storm.queue_peak
    > on.Figures.storm_stats.Pgrid_query.Storm.queue_peak);
  checkb "protected arm hedges" true
    (on.Figures.storm_stats.Pgrid_query.Storm.hedges > 0);
  checkb "shed ratio sane" true
    (on.Figures.shed_ratio >= 0. && on.Figures.shed_ratio < 1.);
  let columns, rows = Figures.overload_table o in
  checki "eight columns" 8 (List.length columns);
  checki "one row per window" 24 (List.length rows);
  let _, srows = Figures.overload_summary o in
  checkb "summary has rows" true (List.length srows >= 10);
  (* Deterministic: the same parameters give the same tables (checked
     on a shorter storm, which costs a fraction of the one above). *)
  let short () =
    Figures.overload ~peers:32 ~horizon:120. ~base_rate:10. ~peak_rate:60. ~seed:6 ()
  in
  let o1 = short () and o2 = short () in
  checkb "same table" true (Figures.overload_table o1 = Figures.overload_table o2);
  checkb "same summary" true (Figures.overload_summary o1 = Figures.overload_summary o2)

let test_ablation_sequential () =
  let columns, rows = Figures.ablation_sequential ~sizes:[ 32; 64 ] ~seed:3 () in
  checki "columns" 7 (List.length columns);
  checki "one row per size" 2 (List.length rows);
  (* Serialized latency grows with n. *)
  let latency row = int_of_string (List.nth row 2) in
  checkb "latency grows" true (latency (List.nth rows 1) > latency (List.nth rows 0))

let test_ablation_cost () =
  let columns, rows = Figures.ablation_cost ~sizes:[ 300 ] ~reps:5 ~seed:3 () in
  checki "columns" 7 (List.length columns);
  match rows with
  | [ row ] ->
    let eager = float_of_string (List.nth row 1) in
    let aut = float_of_string (List.nth row 3) in
    checkb "eager near ln 2" true (Float.abs (eager -. log 2.) < 0.15);
    checkb "AUT near 2 ln 2" true (Float.abs (aut -. (2. *. log 2.)) < 0.3)
  | _ -> Alcotest.fail "one row expected"

let test_ablation_correction () =
  let _, rows = Figures.ablation_correction ~n:300 ~reps:5 ~seed:3 () in
  checki "six p values" 6 (List.length rows)

(* --- the registry ----------------------------------------------------------- *)

let test_registry_names_unique () =
  let names = List.map Experiment.name Experiment.all in
  checki "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_registry_covers_bench_targets () =
  List.iter
    (fun target ->
      checkb ("registered: " ^ target) true (Experiment.find target <> None))
    [
      "fig3"; "fig4"; "fig5"; "fig6a"; "fig6b"; "fig6c"; "fig6d"; "fig6e"; "fig6f";
      "fig7"; "fig8"; "fig9"; "table1"; "resilience"; "ablation-seq";
      "ablation-cost"; "ablation-cor"; "ablation-pht"; "ablation-merge";
      "ablation-maintain"; "survival"; "balance"; "txn"; "overload"; "queries";
      "partition"; "scale"; "micro";
    ]

(* Every gate with a value set it holds on and one that violates it:
   (gate, [ (metric, passing value, violating value) ]). *)
let gate_cases =
  let zero_audit name = (name ^ " == 0", [ (name, 0., 1.) ]) in
  [
    ("on/final_lost <= off/final_lost", [ ("on/final_lost", 0., 2.); ("off/final_lost", 1., 1.) ]);
    ("dominance/ge_frac == 1.0", [ ("dominance/ge_frac", 1., 0.9) ]);
    ( "on/peak_max_load <= bound/max_load",
      [ ("on/peak_max_load", 90., 110.); ("bound/max_load", 100., 100.) ] );
    ( "off/peak_max_load > bound/max_load",
      [ ("off/peak_max_load", 200., 100.); ("bound/max_load", 100., 100.) ] );
    ( "on/min_success_pct >= off/min_success_pct",
      [ ("on/min_success_pct", 99., 90.); ("off/min_success_pct", 95., 95.) ] );
    zero_audit "on/insert_failures";
    ("s0.3/commit_pct >= 95.0", [ ("s0.3/commit_pct", 97., 94.) ]);
    ("on/recovery_ratio >= 0.9", [ ("on/recovery_ratio", 0.95, 0.85) ]);
    ("on/recovered == 1.0", [ ("on/recovered", 1., 0.) ]);
    ("off/recovery_ratio < 0.9", [ ("off/recovery_ratio", 0.5, 0.95) ]);
    ("off/recovered == 0.0", [ ("off/recovered", 0., 1.) ]);
    ("0.0 < on/shed_ratio < 0.5", [ ("on/shed_ratio", 0.1, 0.) ]);
    ("0.0 < on/shed_ratio < 0.5", [ ("on/shed_ratio", 0.1, 0.5) ]);
    zero_audit "off/sheds";
    ("on/converged == 1.0", [ ("on/converged", 1., 0.) ]);
    ( "on/converge_seconds <= bound/converge_seconds",
      [ ("on/converge_seconds", 300., 500.); ("bound/converge_seconds", 450., 450.) ] );
    zero_audit "on/final_resurrected";
    zero_audit "on/final_diverged";
    zero_audit "on/final_lost";
    ( "off/final_resurrected > 0 or off/final_diverged > 0",
      [ ("off/final_resurrected", 3., 0.); ("off/final_diverged", 0., 0.) ] );
    ( "smoke/on/routed == smoke/off/routed",
      [ ("smoke/on/routed", 100., 100.); ("smoke/off/routed", 100., 99.) ] );
    ( "smoke/on/found == smoke/off/found",
      [ ("smoke/on/found", 100., 100.); ("smoke/off/found", 100., 99.) ] );
    ( "smoke/on/found == smoke/on/issued",
      [ ("smoke/on/found", 100., 99.); ("smoke/on/issued", 100., 100.) ] );
    ("smoke/hop_reduction >= 0.3", [ ("smoke/hop_reduction", 0.4, 0.2) ]);
    ("smoke/speedup > 1.0", [ ("smoke/speedup", 1.5, 1.) ]);
    ("smoke/on/hit_ratio > 0.0", [ ("smoke/on/hit_ratio", 0.5, 0.) ]);
    zero_audit "smoke/storm/wrong_responsible";
    zero_audit "smoke/storm/mismatch";
    ("smoke/storm/splits > 0", [ ("smoke/storm/splits", 5., 0.) ]);
    zero_audit "smoke/batch/unresolved";
    zero_audit "route-pick/minor_words";
  ]
  @ List.concat_map
      (fun sev ->
        List.map
          (fun audit -> zero_audit (sev ^ "/" ^ audit))
          [ "torn"; "lost_committed"; "abort_residue"; "intents_left" ])
      [ "s0.0"; "s0.3"; "s0.6" ]

let test_registry_gates () =
  let values pick cases =
    List.map
      (fun case ->
        let name, _, _ = case in
        Experiment.Value { name; value = pick case; direction = Experiment.Up })
      cases
  in
  List.iter
    (fun e ->
      List.iter
        (fun gate ->
          let cases = List.filter (fun (g, _) -> g = gate) gate_cases in
          checkb ("gate has cases: " ^ gate) true (cases <> []);
          List.iter
            (fun (_, metrics) ->
              let failing pick =
                List.mem gate (Experiment.failures e (values pick metrics))
              in
              checkb ("holds: " ^ gate) false (failing (fun (_, ok, _) -> ok));
              checkb ("fails, naming itself: " ^ gate) true
                (failing (fun (_, _, bad) -> bad)))
            cases)
        (Experiment.gates e))
    Experiment.all;
  let registered = List.concat_map Experiment.gates Experiment.all in
  List.iter
    (fun (g, _) -> checkb ("case names a registered gate: " ^ g) true (List.mem g registered))
    gate_cases

let suite =
  [
    Alcotest.test_case "fig3 shape" `Quick test_fig3_shape;
    Alcotest.test_case "fig4 shape" `Slow test_fig4_shape;
    Alcotest.test_case "fig5 shape" `Slow test_fig5_shape;
    Alcotest.test_case "fig6 rendering" `Quick test_fig6_table_rendering;
    Alcotest.test_case "planetlab artifacts" `Slow test_planetlab_artifacts;
    Alcotest.test_case "survival smoke" `Slow test_survival_smoke;
    Alcotest.test_case "overload smoke" `Slow test_overload_smoke;
    Alcotest.test_case "ablation sequential" `Quick test_ablation_sequential;
    Alcotest.test_case "ablation cost" `Slow test_ablation_cost;
    Alcotest.test_case "ablation correction" `Slow test_ablation_correction;
    Alcotest.test_case "registry names unique" `Quick test_registry_names_unique;
    Alcotest.test_case "registry covers bench targets" `Quick
      test_registry_covers_bench_targets;
    Alcotest.test_case "registry gates" `Quick test_registry_gates;
  ]
