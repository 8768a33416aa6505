(* Tests for Pgrid_core.Balance: online storage-load balancing via
   runtime partition splits and retractions. *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Balance = Pgrid_core.Balance
module Health = Pgrid_core.Health
module Maintenance = Pgrid_core.Maintenance
module Round = Pgrid_construction.Round
module Figures = Pgrid_experiment.Figures

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A U-built overlay with one key per peer: few fat partitions, plenty
   of membership for runtime splits to divide. *)
let build seed =
  let rng = Rng.create ~seed in
  let built =
    Round.run rng
      { (Round.default_params ~peers:192) with Round.keys_per_peer = 1; d_max = 50 }
      ~spec:Distribution.Uniform
  in
  let overlay = built.Round.overlay in
  let keys =
    let tbl = Hashtbl.create 256 in
    for i = 0 to Overlay.size overlay - 1 do
      List.iter (fun k -> Hashtbl.replace tbl k ()) (Node.keys (Overlay.node overlay i))
    done;
    Hashtbl.fold (fun k () acc -> k :: acc) tbl []
    |> List.sort Key.compare |> Array.of_list
  in
  (overlay, keys)

let census_paths overlay =
  let tbl = Hashtbl.create 64 in
  for i = 0 to Overlay.size overlay - 1 do
    let n = Overlay.node overlay i in
    Hashtbl.replace tbl (Path.to_string n.Node.path) ()
  done;
  Hashtbl.fold (fun p () acc -> p :: acc) tbl [] |> List.sort compare

let assert_all_keys_findable overlay keys =
  Array.iter
    (fun k ->
      for from = 0 to 15 do
        let r = Overlay.search overlay ~from k in
        (match r.Overlay.responsible with
        | None -> Alcotest.fail "routing dead-ended after balancing"
        | Some _ -> checkb "key present at responsible peer" true r.Overlay.key_present)
      done)
    keys

let test_split_reduces_load () =
  let overlay, keys = build 11 in
  let cfg = Balance.default_config ~d_max:10 ~n_min:2 in
  let r = Balance.pass (Rng.create ~seed:42) overlay cfg in
  checkb "splits happened" true (r.Balance.splits > 0);
  checkb "load brought under d_max" true (r.Balance.max_load <= 10);
  checkb "keys migrated off the wrong halves" true (r.Balance.migrated_keys > 0);
  checki "no routing violations" 0 (Overlay.integrity_errors overlay);
  let h = Health.check ~keys ~n_min:2 overlay in
  checki "no ref-integrity violations" 0 h.Health.ref_integrity;
  checki "no keys lost" 0 h.Health.lost;
  assert_all_keys_findable overlay keys

let test_split_respects_floor () =
  let overlay, _ = build 12 in
  let before = census_paths overlay in
  let cfg = Balance.default_config ~d_max:10 ~n_min:3 in
  let r = Balance.pass (Rng.create ~seed:43) overlay cfg in
  checkb "splits happened" true (r.Balance.splits > 0);
  (* Every partition a split created keeps at least n_min members
     (pre-existing partitions below the floor are the construction's
     business, not balancing's). *)
  let members = Hashtbl.create 64 in
  for i = 0 to Overlay.size overlay - 1 do
    let p = Path.to_string (Overlay.node overlay i).Node.path in
    Hashtbl.replace members p (1 + Option.value ~default:0 (Hashtbl.find_opt members p))
  done;
  Hashtbl.iter
    (fun p count ->
      if not (List.mem p before) then
        checkb "membership floor held in split halves" true (count >= 3))
    members

let test_retract_merges () =
  let overlay, keys = build 13 in
  ignore
    (Balance.pass (Rng.create ~seed:44) overlay
       (Balance.default_config ~d_max:10 ~n_min:2));
  let before = List.length (census_paths overlay) in
  (* Generous floors force the now-sparse leaves to merge back up. *)
  let cfg =
    {
      (Balance.default_config ~d_max:50 ~n_min:2) with
      Balance.retract_members = 12;
      retract_load = 12;
    }
  in
  let r = Balance.pass (Rng.create ~seed:45) overlay cfg in
  checkb "retractions happened" true (r.Balance.retracts > 0);
  checkb "partition count shrank" true (List.length (census_paths overlay) < before);
  checkb "merged partitions stay under d_max" true (r.Balance.max_load <= 50);
  let h = Health.check ~keys ~n_min:2 overlay in
  checki "no ref-integrity violations" 0 h.Health.ref_integrity;
  checki "no keys lost" 0 h.Health.lost;
  assert_all_keys_findable overlay keys

let test_same_seed_deterministic () =
  let run () =
    let overlay, _ = build 14 in
    let r =
      Balance.pass (Rng.create ~seed:46) overlay
        (Balance.default_config ~d_max:10 ~n_min:2)
    in
    (r, census_paths overlay)
  in
  let r1, c1 = run () and r2, c2 = run () in
  checki "same splits" r1.Balance.splits r2.Balance.splits;
  checki "same migrations" r1.Balance.migrated_keys r2.Balance.migrated_keys;
  checkb "same resulting trie" true (c1 = c2)

let test_noop_when_within_bounds () =
  let overlay, _ = build 15 in
  let before = census_paths overlay in
  (* Construction already enforces d_max = 50; nothing to do. *)
  let r =
    Balance.pass (Rng.create ~seed:47) overlay
      (Balance.default_config ~d_max:50 ~n_min:2)
  in
  checki "no splits" 0 r.Balance.splits;
  checki "no retractions" 0 r.Balance.retracts;
  checkb "trie untouched" true (census_paths overlay = before)

let test_skips_partitions_with_offline_members () =
  let overlay, _ = build 16 in
  (* Take one member of every partition offline: balancing must refuse
     to act (an absent member would come back with a stale path). *)
  let seen = Hashtbl.create 64 in
  for i = 0 to Overlay.size overlay - 1 do
    let p = Path.to_string (Overlay.node overlay i).Node.path in
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      (Overlay.node overlay i).Node.online <- false
    end
  done;
  let before = census_paths overlay in
  let r =
    Balance.pass (Rng.create ~seed:48) overlay
      (Balance.default_config ~d_max:10 ~n_min:2)
  in
  checki "no splits with offline members" 0 r.Balance.splits;
  checki "no retractions with offline members" 0 r.Balance.retracts;
  checkb "trie untouched" true (census_paths overlay = before)

let test_validate_rejects_bad_config () =
  let base = Balance.default_config ~d_max:20 ~n_min:2 in
  let rejects cfg =
    match Balance.validate cfg with
    | () -> Alcotest.fail "validate accepted a bad config"
    | exception Invalid_argument _ -> ()
  in
  rejects { base with Balance.d_max = 0 };
  rejects { base with Balance.n_min = 0 };
  rejects { base with Balance.retract_load = 20 };
  rejects { base with Balance.seed_refs = 0 };
  rejects { base with Balance.period = 0. }

let test_daemon_defaults_off () =
  let c = Maintenance.default_daemon_config ~n_min:2 in
  checkb "balance disabled by default" true (c.Maintenance.balance = None)

let test_figures_balance_smoke () =
  let b = Figures.balance ~peers:64 ~horizon:240. ~sample_every:120. ~d_max:50 ~seed:7 () in
  let on = (b : Figures.balance).Figures.on and off = b.Figures.off in
  checkb "balanced arm sampled" true (on.Figures.points <> []);
  checkb "unbalanced arm sampled" true (off.Figures.points <> []);
  checki "unbalanced arm never splits" 0 off.Figures.splits;
  checkb "both arms track inserts" true (on.Figures.inserted > 0 && off.Figures.inserted > 0)

let suite =
  [
    Alcotest.test_case "split reduces load, keeps data findable" `Slow
      test_split_reduces_load;
    Alcotest.test_case "split respects membership floor" `Slow test_split_respects_floor;
    Alcotest.test_case "retract merges starved leaves" `Slow test_retract_merges;
    Alcotest.test_case "same seed, same trie" `Slow test_same_seed_deterministic;
    Alcotest.test_case "no-op within bounds" `Quick test_noop_when_within_bounds;
    Alcotest.test_case "skips partitions with offline members" `Quick
      test_skips_partitions_with_offline_members;
    Alcotest.test_case "validate rejects bad configs" `Quick
      test_validate_rejects_bad_config;
    Alcotest.test_case "daemon ships with balancing off" `Quick test_daemon_defaults_off;
    Alcotest.test_case "figures balance smoke" `Slow test_figures_balance_smoke;
  ]
