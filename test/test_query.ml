(* Tests for Pgrid_query: batch lookup, range measurement, and the
   caching engine (Qcache + Engine). *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Distribution = Pgrid_workload.Distribution
module Builder = Pgrid_core.Builder
module Overlay = Pgrid_core.Overlay
module Node = Pgrid_core.Node
module Balance = Pgrid_core.Balance
module Reconcile = Pgrid_core.Reconcile
module Event = Pgrid_telemetry.Event
module Query = Pgrid_query.Query
module Engine = Pgrid_query.Engine
module Qcache = Pgrid_query.Qcache
module Storm = Pgrid_query.Storm
module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Latency = Pgrid_simnet.Latency
module Breaker = Pgrid_simnet.Breaker

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let build seed =
  let rng = Rng.create ~seed in
  let keys = Distribution.generate rng Distribution.Uniform ~n:1500 in
  let overlay = Builder.index rng ~peers:150 ~keys ~d_max:50 ~n_min:5 ~refs_per_level:2 in
  (overlay, keys)

let test_lookup_batch () =
  let overlay, keys = build 1 in
  let rng = Rng.create ~seed:11 in
  let s = Query.lookup_batch rng overlay ~keys ~count:300 in
  checki "all issued" 300 s.Query.issued;
  checki "all routed on a healthy overlay" 300 s.Query.routed;
  checki "all found" 300 s.Query.found;
  checkb "hops positive and bounded" true (s.Query.mean_hops >= 0. && s.Query.max_hops <= 2 * Key.bits)

let test_lookup_hops_law () =
  (* The paper observes hops ~ half the trie depth. *)
  let overlay, keys = build 2 in
  let rng = Rng.create ~seed:12 in
  let s = Query.lookup_batch rng overlay ~keys ~count:500 in
  let stats = Overlay.stats overlay in
  let expectation = stats.Overlay.mean_path_length /. 2. in
  checkb "mean hops near half the path length" true
    (Float.abs (s.Query.mean_hops -. expectation) < 1.0)

let test_lookup_under_failures () =
  (* Extra reference redundancy, as a deployment under churn would use. *)
  let rng0 = Rng.create ~seed:3 in
  let all_keys = Distribution.generate rng0 Distribution.Uniform ~n:1500 in
  let overlay =
    Builder.index rng0 ~peers:150 ~keys:all_keys ~d_max:50 ~n_min:5 ~refs_per_level:4
  in
  let keys = all_keys in
  let rng = Rng.create ~seed:13 in
  for i = 0 to Overlay.size overlay - 1 do
    if Rng.float rng < 0.15 then Node.set_online (Overlay.node overlay i) false
  done;
  let s = Query.lookup_batch rng overlay ~keys ~count:300 in
  checkb "most lookups survive failures" true (s.Query.routed > 240)

let test_lookup_invalid () =
  let overlay, _ = build 4 in
  let rng = Rng.create ~seed:14 in
  Alcotest.check_raises "no keys" (Invalid_argument "Query.lookup_batch: no keys")
    (fun () -> ignore (Query.lookup_batch rng overlay ~keys:[||] ~count:5))

let test_range_batch () =
  let overlay, _ = build 5 in
  let rng = Rng.create ~seed:15 in
  let s = Query.range_batch rng overlay ~count:50 ~width:0.05 in
  checki "ranges issued" 50 s.Query.ranges;
  checkb "visits at least one partition" true (s.Query.mean_partitions >= 1.);
  (* 5% of 1500 uniform keys is about 75 results. *)
  checkb "plausible result volume" true
    (s.Query.mean_results > 40. && s.Query.mean_results < 120.)

let test_range_width_scaling () =
  let overlay, _ = build 6 in
  let rng = Rng.create ~seed:16 in
  let narrow = Query.range_batch rng overlay ~count:40 ~width:0.02 in
  let wide = Query.range_batch rng overlay ~count:40 ~width:0.2 in
  checkb "wider ranges touch more partitions" true
    (wide.Query.mean_partitions > narrow.Query.mean_partitions);
  checkb "wider ranges return more results" true
    (wide.Query.mean_results > narrow.Query.mean_results)

let test_range_invalid () =
  let overlay, _ = build 7 in
  let rng = Rng.create ~seed:17 in
  Alcotest.check_raises "zero width" (Invalid_argument "Query.range_batch: bad width")
    (fun () -> ignore (Query.range_batch rng overlay ~count:5 ~width:0.));
  Alcotest.check_raises "width above one"
    (Invalid_argument "Query.range_batch: bad width") (fun () ->
      ignore (Query.range_batch rng overlay ~count:5 ~width:1.000001))

let test_range_full_width () =
  (* width = 1.0 is a legal full scan: every range must cover the whole
     key space and return every stored key. *)
  let overlay, keys = build 10 in
  let rng = Rng.create ~seed:18 in
  let s = Query.range_batch rng overlay ~count:10 ~width:1.0 in
  checki "ranges issued" 10 s.Query.ranges;
  let distinct =
    float_of_int (List.length (List.sort_uniq Key.compare (Array.to_list keys)))
  in
  checkb "full scans return the entire key population" true
    (s.Query.mean_results >= distinct -. 0.5)

let test_conjunctive () =
  let overlay, _ = build 8 in
  let k1 = Key.of_float 0.111 and k2 = Key.of_float 0.777 in
  ignore (Overlay.insert overlay ~from:0 k1 "doc-a");
  ignore (Overlay.insert overlay ~from:0 k1 "doc-b");
  ignore (Overlay.insert overlay ~from:0 k2 "doc-b");
  ignore (Overlay.insert overlay ~from:0 k2 "doc-c");
  let r = Query.conjunctive overlay ~from:9 [ k1; k2 ] in
  Alcotest.check (Alcotest.list Alcotest.string) "intersection" [ "doc-b" ] r.Query.matches;
  checki "both resolved" 2 r.Query.resolved;
  checkb "hops accumulated" true (r.Query.total_hops >= 0)

let test_conjunctive_empty_keys () =
  let overlay, _ = build 9 in
  Alcotest.check_raises "no keys" (Invalid_argument "Query.conjunctive: no keys")
    (fun () -> ignore (Query.conjunctive overlay ~from:0 []))

(* Take every replica of [key]'s partition offline, so lookups for it
   dead-end. *)
let darken_partition overlay key =
  let origin = ref None in
  for i = 0 to Overlay.size overlay - 1 do
    let n = Overlay.node overlay i in
    if Node.responsible_for n key then Node.set_online n false
    else if !origin = None && n.Node.online then origin := Some i
  done;
  Option.get !origin

let test_conjunctive_skips_unresolved () =
  (* Regression: an unresolved key must be skipped, not treated as an
     empty posting list that annihilates the whole intersection. *)
  let overlay, _ = build 8 in
  let k1 = Key.of_float 0.111 and k2 = Key.of_float 0.777 in
  ignore (Overlay.insert overlay ~from:0 k1 "doc-a");
  ignore (Overlay.insert overlay ~from:0 k1 "doc-b");
  ignore (Overlay.insert overlay ~from:0 k2 "doc-b");
  let from = darken_partition overlay k2 in
  let r = Query.conjunctive overlay ~from [ k1; k2 ] in
  checki "only the live key resolved" 1 r.Query.resolved;
  Alcotest.check (Alcotest.list Alcotest.string)
    "dark partition does not annihilate the intersection" [ "doc-a"; "doc-b" ]
    r.Query.matches

let test_conjunctive_all_unresolved () =
  let overlay, _ = build 9 in
  let k = Key.of_float 0.42 in
  ignore (Overlay.insert overlay ~from:0 k "doc-a");
  let from = darken_partition overlay k in
  let r = Query.conjunctive overlay ~from [ k; k ] in
  checki "nothing resolved" 0 r.Query.resolved;
  Alcotest.check (Alcotest.list Alcotest.string) "no fabricated matches" []
    r.Query.matches

let test_conjunctive_duplicate_keys () =
  (* The same key twice is idempotent: its posting list intersected with
     itself. *)
  let overlay, _ = build 8 in
  let k = Key.of_float 0.333 in
  ignore (Overlay.insert overlay ~from:0 k "doc-a");
  ignore (Overlay.insert overlay ~from:0 k "doc-b");
  let r = Query.conjunctive overlay ~from:9 [ k; k; k ] in
  checki "every instance resolved" 3 r.Query.resolved;
  Alcotest.check (Alcotest.list Alcotest.string) "idempotent intersection"
    [ "doc-a"; "doc-b" ] r.Query.matches

let test_conjunctive_dedups_payloads () =
  (* Replicated payloads must not produce duplicate matches, and the
     result comes back sorted. *)
  let overlay, _ = build 8 in
  let k1 = Key.of_float 0.2 and k2 = Key.of_float 0.9 in
  List.iter
    (fun p ->
      ignore (Overlay.insert overlay ~from:0 k1 p);
      ignore (Overlay.insert overlay ~from:1 k2 p))
    [ "doc-z"; "doc-m"; "doc-a"; "doc-m" ];
  let r = Query.conjunctive overlay ~from:5 [ k1; k2 ] in
  Alcotest.check (Alcotest.list Alcotest.string) "sorted, deduplicated"
    [ "doc-a"; "doc-m"; "doc-z" ] r.Query.matches

(* The sort-then-merge intersection must agree with the quadratic
   pairwise [List.mem] filter it replaced, on the same searched posting
   lists: build an overlay, index random documents under random key
   sets, and compare both algorithms on random conjunctive queries. *)
let qcheck_conjunctive_merge_equiv =
  QCheck.Test.make ~name:"merge intersection = pairwise filter" ~count:30
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let keys = Distribution.generate rng Distribution.Uniform ~n:400 in
      let overlay =
        Builder.index rng ~peers:60 ~keys ~d_max:50 ~n_min:3 ~refs_per_level:2
      in
      for d = 0 to 39 do
        let doc = Printf.sprintf "doc-%03d" d in
        let n_keys = 1 + Rng.int rng 5 in
        for _ = 1 to n_keys do
          let k = keys.(Rng.int rng (Array.length keys)) in
          ignore (Overlay.insert overlay ~from:(Rng.int rng 60) k doc)
        done
      done;
      let reference query_keys ~from =
        let postings =
          List.filter_map
            (fun k ->
              let r = Overlay.search overlay ~from k in
              match r.Overlay.responsible with
              | Some _ -> Some (List.sort_uniq compare r.Overlay.payloads)
              | None -> None)
            query_keys
        in
        match postings with
        | [] -> []
        | first :: rest ->
          List.fold_left
            (fun acc l -> List.filter (fun d -> List.mem d l) acc)
            first rest
      in
      let ok = ref true in
      for _ = 1 to 20 do
        let n_keys = 1 + Rng.int rng 4 in
        let query_keys =
          List.init n_keys (fun _ -> keys.(Rng.int rng (Array.length keys)))
        in
        let from = Rng.int rng 60 in
        let expected = reference query_keys ~from in
        let got = (Query.conjunctive overlay ~from query_keys).Query.matches in
        if got <> expected then ok := false
      done;
      !ok)

(* --- Storm: asynchronous lookups over the simulated network --------------- *)

let storm_setup ?service ?(cfg = Storm.default_config) ?(loss = 0.) seed =
  let overlay, keys = build seed in
  let sim = Sim.create () in
  let net =
    Net.create ?service sim (Rng.create ~seed:(seed + 50))
      ~nodes:(Overlay.size overlay) ~latency:(Latency.Fixed 0.05) ~loss ~bucket:60.
  in
  let storm = Storm.create sim (Rng.create ~seed:(seed + 51)) overlay net cfg in
  (overlay, keys, sim, net, storm)

let test_storm_completes () =
  let _overlay, keys, sim, _net, storm = storm_setup 21 in
  let rng = Rng.create ~seed:61 in
  for _ = 1 to 200 do
    checkb "origin found" true
      (Storm.issue_random storm ~key:keys.(Rng.int rng (Array.length keys)))
  done;
  Sim.run sim;
  let s = Storm.stats storm in
  checki "all issued" 200 s.Storm.issued;
  checki "all succeed on a healthy lossless net" 200 s.Storm.succeeded;
  checki "none in flight at quiescence" 0 (Storm.in_flight storm);
  checki "completions recorded" 200 (List.length (Storm.completions storm));
  (* An origin that is itself responsible completes in the same instant,
     so latency is >= 0, not strictly positive. *)
  checkb "latency non-negative" true
    (List.for_all
       (fun c -> c.Storm.finished_at >= c.Storm.issued_at)
       (Storm.completions storm))

let test_storm_deterministic () =
  let run () =
    let _overlay, keys, sim, _net, storm = storm_setup 22 in
    let rng = Rng.create ~seed:62 in
    for _ = 1 to 100 do
      ignore (Storm.issue_random storm ~key:keys.(Rng.int rng (Array.length keys)))
    done;
    Sim.run sim;
    let s = Storm.stats storm in
    (s.Storm.succeeded, s.Storm.timeouts,
     List.map (fun c -> c.Storm.finished_at) (Storm.completions storm))
  in
  Alcotest.(check (triple int int (list (float 0.)))) "same seeds, same run"
    (run ()) (run ())

let test_storm_sheds_under_burst () =
  (* Service rate 1 msg/s against a same-instant burst: almost the whole
     burst must shed at the lone responsible replicas. *)
  let service =
    { Net.service_rate = 1.; queue_capacity = 4; query_threshold = 2 }
  in
  let _overlay, keys, sim, net, storm = storm_setup ~service 23 in
  for _ = 1 to 300 do
    ignore (Storm.issue_random storm ~key:keys.(0))
  done;
  Sim.run sim;
  let s = Storm.stats storm in
  checkb "queries shed" true (s.Storm.sheds_query > 0);
  checki "sheds all query class" s.Storm.sheds s.Storm.sheds_query;
  checkb "queue bounded" true ((Storm.stats storm).Storm.queue_peak <= 4);
  checki "net agrees" (Net.messages_shed net) s.Storm.sheds

let test_storm_hedge_dodges_dead_primary () =
  (* Kill one peer without telling the network layer's churn hooks: its
     requests time out.  With hedging the walk detours long before the
     full retry ladder (3 x 4 s backoff) elapses. *)
  let cfg =
    { Storm.default_config with hedge_after = Some 0.5; max_retries = 0 }
  in
  let overlay, keys, sim, net, storm = storm_setup ~cfg 24 in
  ignore overlay;
  (* Make every peer's first-choice reference look dead by dropping 30%
     of peers from the network (they stay "online" in the overlay, so
     routing still tries them). *)
  let rng = Rng.create ~seed:64 in
  for i = 0 to Net.nodes net - 1 do
    if Rng.float rng < 0.2 then Net.set_online net i false
  done;
  let orng = Rng.create ~seed:65 in
  let issued = ref 0 in
  for _ = 1 to 150 do
    (* Originate from peers still attached to the network. *)
    let origin = Rng.int orng (Net.nodes net) in
    if Net.online net origin then begin
      incr issued;
      Storm.issue storm ~origin ~key:keys.(Rng.int orng (Array.length keys))
    end
  done;
  Sim.run sim;
  let s = Storm.stats storm in
  checki "every lookup resolved" !issued (s.Storm.succeeded + s.Storm.failed);
  checkb "hedges launched" true (s.Storm.hedges > 0);
  checkb "some hedges won" true (s.Storm.hedge_wins > 0);
  (* With only two references per level a hop can find both choices
     dead, so demand a solid majority rather than near-perfection. *)
  checkb "most lookups still succeed" true
    (float_of_int s.Storm.succeeded >= 0.6 *. float_of_int !issued)

let test_storm_breaker_opens () =
  let cfg =
    {
      Storm.default_config with
      req_timeout = 0.5;
      max_retries = 0;
      breaker = Some { Breaker.failures = 2; cooldown = 1000. };
    }
  in
  let _overlay, keys, sim, net, storm = storm_setup ~cfg 25 in
  (* Detach a third of the peers: repeated timeouts against them must
     trip their circuits and stop the hammering. *)
  let rng = Rng.create ~seed:66 in
  for i = 0 to Net.nodes net - 1 do
    if Rng.float rng < 0.3 then Net.set_online net i false
  done;
  let orng = Rng.create ~seed:67 in
  for _ = 1 to 300 do
    let origin = Rng.int orng (Net.nodes net) in
    if Net.online net origin then
      Storm.issue storm ~origin ~key:keys.(Rng.int orng (Array.length keys))
  done;
  Sim.run sim;
  let s = Storm.stats storm in
  checkb "circuits opened" true (s.Storm.breaker_opens > 0);
  checkb "open circuits skipped on later walks" true (s.Storm.breaker_skips > 0)

let test_storm_rejects_nan () =
  List.iter
    (fun (name, cfg) ->
      Alcotest.check_raises name (Invalid_argument ("Storm.create: " ^ name)) (fun () ->
          ignore (storm_setup ~cfg 21)))
    [
      ("req_timeout must be positive", { Storm.default_config with req_timeout = nan });
      ("backoff must be >= 1", { Storm.default_config with backoff = nan });
      ("hedge_after must be positive", { Storm.default_config with hedge_after = Some nan });
    ]

(* Storm fingerprint, pinned from the run before the hop state became a
   flat record and the event heap 4-ary: a 300-peer protected storm whose
   burst exceeds the service knee, so every defence fires, with a churn
   window on top.  Retry, hedge and breaker order all feed back into the
   RNG stream, so any reordering of the walk's side effects moves these
   values. *)
let test_storm_fingerprint () =
  let rng = Rng.create ~seed:31 in
  let keys = Distribution.generate rng Distribution.Uniform ~n:3000 in
  let overlay = Builder.index rng ~peers:300 ~keys ~d_max:50 ~n_min:5 ~refs_per_level:2 in
  let n = Overlay.size overlay in
  let sim = Sim.create () in
  let net =
    Net.create ~service:Net.default_overload sim (Rng.create ~seed:32) ~nodes:n
      ~latency:Latency.planetlab ~loss:0.02 ~bucket:60.
  in
  let storm =
    Storm.create sim (Rng.create ~seed:33) overlay net
      { Storm.default_config with hedge_after = Some 2.; breaker = Some Breaker.default_config }
  in
  (* 5 q/s for 100 s, a 60 q/s burst for 60 s, then 5 q/s under churn. *)
  let arrivals = Rng.create ~seed:34 in
  let t = ref 0. in
  while !t < 300. do
    let key = keys.(Rng.int arrivals (Array.length keys)) and origin = Rng.int arrivals n in
    Sim.schedule_at sim ~time:!t (fun () -> Storm.issue storm ~origin ~key);
    let rate = if !t >= 100. && !t < 160. then 60. else 5. in
    t := !t +. Pgrid_prng.Sample.exponential arrivals ~rate
  done;
  Pgrid_simnet.Churn.install ~clamp:true sim (Rng.create ~seed:35)
    (Pgrid_simnet.Churn.paper_params ~start:200. ~stop:300.)
    ~node_ids:(List.init n Fun.id) ~set_online:(Net.set_online net);
  Sim.run sim;
  let s = Storm.stats storm in
  List.iter
    (fun (name, expected, got) -> checki name expected got)
    [
      ("issued", 4800, s.Storm.issued);
      ("succeeded", 3869, s.Storm.succeeded);
      ("failed", 931, s.Storm.failed);
      ("timeouts", 13530, s.Storm.timeouts);
      ("retries", 8407, s.Storm.retries);
      ("give_ups", 5123, s.Storm.give_ups);
      ("hedges", 7964, s.Storm.hedges);
      ("hedge_wins", 1261, s.Storm.hedge_wins);
      ("breaker_opens", 861, s.Storm.breaker_opens);
      ("breaker_skips", 399, s.Storm.breaker_skips);
      ("sheds", 4496, s.Storm.sheds);
      ("sheds_maintenance", 0, s.Storm.sheds_maintenance);
      ("sheds_query", 4496, s.Storm.sheds_query);
      ("queue_peak", 12, s.Storm.queue_peak);
      ("processed", 153635, Sim.processed sim);
      ("sent", 56202, Net.messages_sent net);
      ("dropped", 1110, Net.messages_dropped net);
      ("shed", 4496, Net.messages_shed net);
      ("in_flight", 0, Storm.in_flight storm);
    ];
  let b = Buffer.create 65_536 in
  List.iter
    (fun c ->
      Printf.bprintf b "%.17g %.17g %b\n" c.Storm.issued_at c.Storm.finished_at c.Storm.success)
    (Storm.completions storm);
  Alcotest.(check string)
    "completions" "9181e0eb8d88a821b2ee33963bfdb4df"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_lookup_batch_nobody_online () =
  (* Satellite: a batch against a fully-killed overlay returns a partial
     result (zero issued) instead of hanging in rejection sampling. *)
  let overlay, keys = build 26 in
  for i = 0 to Overlay.size overlay - 1 do
    Node.set_online (Overlay.node overlay i) false
  done;
  let rng = Rng.create ~seed:68 in
  let s = Query.lookup_batch rng overlay ~keys ~count:100 in
  checki "nothing issued" 0 s.Query.issued;
  checki "nothing routed" 0 s.Query.routed;
  checki "nothing found" 0 s.Query.found;
  Alcotest.check (Alcotest.float 0.) "mean hops defined" 0. s.Query.mean_hops;
  (* And the call consumed no RNG draws, so downstream seeding is
     unaffected by the early exit. *)
  let r1 = Rng.create ~seed:69 and r2 = Rng.create ~seed:69 in
  ignore (Query.lookup_batch r1 overlay ~keys ~count:100);
  checki "no draws consumed" (Rng.int r2 1000000) (Rng.int r1 1000000)

let test_range_batch_nobody_online () =
  (* Satellite: like [test_lookup_batch_nobody_online], a range batch
     against a fully-killed overlay must report zero *issued* queries —
     the old code reported [ranges = count] — and burn no RNG draws. *)
  let overlay, _ = build 27 in
  for i = 0 to Overlay.size overlay - 1 do
    Node.set_online (Overlay.node overlay i) false
  done;
  let rng = Rng.create ~seed:70 in
  let s = Query.range_batch rng overlay ~count:50 ~width:0.1 in
  checki "nothing issued" 0 s.Query.ranges;
  Alcotest.check (Alcotest.float 0.) "mean partitions defined" 0.
    s.Query.mean_partitions;
  let r1 = Rng.create ~seed:71 and r2 = Rng.create ~seed:71 in
  ignore (Query.range_batch r1 overlay ~count:50 ~width:0.1);
  checki "no draws consumed" (Rng.int r2 1000000) (Rng.int r1 1000000)

let test_conjunctive_uneven_postings () =
  (* Regression for the decorated length sort: posting lists of very
     different lengths must still intersect correctly (the shortest
     list leads the k-way merge). *)
  let overlay, _ = build 8 in
  let k1 = Key.of_float 0.15 and k2 = Key.of_float 0.65 in
  for d = 0 to 29 do
    ignore (Overlay.insert overlay ~from:0 k1 (Printf.sprintf "doc-%02d" d))
  done;
  ignore (Overlay.insert overlay ~from:0 k2 "doc-07");
  ignore (Overlay.insert overlay ~from:0 k2 "doc-23");
  ignore (Overlay.insert overlay ~from:0 k2 "zz-not-under-k1");
  let r = Query.conjunctive overlay ~from:3 [ k1; k2 ] in
  Alcotest.check (Alcotest.list Alcotest.string) "uneven intersection"
    [ "doc-07"; "doc-23" ] r.Query.matches

(* --- Engine + Qcache: the caching query engine --------------------------- *)

let test_engine_cacheless_matches_search () =
  (* With no cache the engine must be Overlay.search exactly: same
     outcome, same hops, same RNG draws.  Two identically-seeded
     overlays keep the internal draw streams aligned. *)
  let overlay_s, keys = build 30 in
  let overlay_e, _ = build 30 in
  for i = 0 to 199 do
    let k = keys.(i mod Array.length keys) in
    let from = i mod Overlay.size overlay_s in
    let s = Overlay.search overlay_s ~from k in
    let e = Engine.lookup overlay_e ~from k in
    checkb "same responsible" true (s.Overlay.responsible = e.Engine.responsible);
    checki "same hops" s.Overlay.hops e.Engine.hops;
    checkb "same presence" true (s.Overlay.key_present = e.Engine.key_present)
  done

(* Route a key once so we know a genuine (origin, target) pair with
   origin <> target, then the cache tests can plant entries by hand. *)
let planted_pair overlay keys =
  let rec hunt i =
    if i >= Array.length keys then Alcotest.fail "no multi-hop lookup found"
    else begin
      let k = keys.(i) in
      let r = Overlay.search overlay ~from:0 k in
      match r.Overlay.responsible with
      | Some t when t <> 0 -> (k, t)
      | _ -> hunt (i + 1)
    end
  in
  hunt 0

let test_qcache_lru_eviction () =
  let overlay, keys = build 31 in
  let cache = Qcache.create ~route_cap:2 ~result_cap:2 overlay in
  for i = 0 to 19 do
    let k = keys.(i) in
    match (Overlay.search overlay ~from:0 k).Overlay.responsible with
    | Some t when t <> 0 ->
      Qcache.learn cache ~at:0 ~key:k ~target:t ~present:true ~payloads:[]
    | _ -> ()
  done;
  let s = Qcache.stats cache in
  checkb "route entries bounded by cap" true (s.Qcache.route_entries <= 2);
  checkb "result entries bounded by cap" true (s.Qcache.result_entries <= 2);
  checkb "evictions happened" true (s.Qcache.evictions > 0)

let test_qcache_invalidation_kinds () =
  let overlay, keys = build 32 in
  let cache = Qcache.create overlay in
  let k, t = planted_pair overlay keys in
  let plant () =
    Qcache.learn cache ~at:0 ~key:k ~target:t ~present:true ~payloads:[]
  in
  let probe () = Qcache.probe cache ~at:0 k in
  plant ();
  (match probe () with
  | Qcache.Hit_result { target; present; _ } ->
    checki "result hit names the planted target" t target;
    checkb "present as planted" true present
  | _ -> Alcotest.fail "expected a result hit after learn");
  (* Peer_changed retires every entry pointing at the peer. *)
  Qcache.invalidate cache (Overlay.Peer_changed t);
  (match probe () with
  | Qcache.Miss -> ()
  | _ -> Alcotest.fail "expected a miss after Peer_changed");
  (* Key_written retires the key's result entry but spares the route. *)
  plant ();
  Qcache.invalidate cache (Overlay.Key_written k);
  (match probe () with
  | Qcache.Hit_route target -> checki "route survives a key write" t target
  | _ -> Alcotest.fail "expected a route hit after Key_written");
  (* Flush retires everything. *)
  plant ();
  Qcache.invalidate cache Overlay.Flush;
  (match probe () with
  | Qcache.Miss -> ()
  | _ -> Alcotest.fail "expected a miss after Flush");
  checkb "invalidations counted" true ((Qcache.stats cache).Qcache.invalidations > 0)

let test_qcache_observe_events () =
  let overlay, keys = build 33 in
  let cache = Qcache.create overlay in
  let k, t = planted_pair overlay keys in
  let plant () =
    Qcache.learn cache ~at:0 ~key:k ~target:t ~present:true ~payloads:[]
  in
  let expect_miss label =
    match Qcache.probe cache ~at:0 k with
    | Qcache.Miss -> ()
    | _ -> Alcotest.fail ("expected a miss after " ^ label)
  in
  plant ();
  Qcache.observe cache (Event.Migrate { peer = t; level = 0; keys = 1 });
  expect_miss "Migrate";
  plant ();
  Qcache.observe cache (Event.Ref_evict { peer = 0; level = 0; target = t });
  expect_miss "Ref_evict";
  plant ();
  Qcache.observe cache
    (Event.Balance_split { path = "0"; level = 0; zeros = 1; ones = 1 });
  expect_miss "Balance_split";
  plant ();
  Qcache.observe cache (Event.Retract { path = "0"; members = 2; merged_keys = 0 });
  expect_miss "Retract";
  plant ();
  Qcache.observe cache (Event.Partition_heal { fault = "cut"; cut = 1 });
  expect_miss "Partition_heal";
  (* Unrelated events leave entries alone. *)
  plant ();
  Qcache.observe cache (Event.Query_issue { qid = 1; origin = 0 });
  (match Qcache.probe cache ~at:0 k with
  | Qcache.Hit_result _ -> ()
  | _ -> Alcotest.fail "unrelated event must not invalidate")

(* Reconciliation changes stores behind the caches' back, so it must
   invalidate them.  [diverge_and_sync] caches an answer for [k] at a
   non-responsible origin, then makes the cached peer [t] the one
   replica still holding the old state: [stale_others] rewrites every
   other responsible peer directly (as writes [t] missed would have).
   [Reconcile.sync_pair] then brings [t] up to date, and the next
   cached lookup must see the new state. *)
let sync_key = Key.of_float 0.4321

let diverge_and_sync ~prepare ~stale_others =
  let overlay, _ = build 41 in
  let k = sync_key in
  let responsible = ref [] and origin = ref None in
  Overlay.iter overlay (fun n ->
      if Node.responsible_for n k then responsible := n :: !responsible
      else if !origin = None then origin := Some n.Node.id);
  let from = Option.get !origin in
  List.iter prepare !responsible;
  let cache = Qcache.create overlay in
  let first = Engine.lookup ~cache overlay ~from k in
  let t = Option.get first.Engine.responsible in
  let others = List.filter (fun n -> n.Node.id <> t) !responsible in
  List.iter stale_others others;
  let cached = Engine.lookup ~cache overlay ~from k in
  checkb "answer served from the result cache" true
    (cached.Engine.served = Engine.Result_cache);
  checkb "cached answer unchanged" first.Engine.key_present cached.Engine.key_present;
  let r = Reconcile.sync_pair overlay ~a:t ~b:(List.hd others).Node.id ~budget:100 in
  checkb "sync changed the cached peer" true (r.Reconcile.copied + r.Reconcile.tombstoned > 0);
  (first, Engine.lookup ~cache overlay ~from k)

let test_engine_cache_after_sync_copy () =
  let first, after =
    diverge_and_sync ~prepare:ignore ~stale_others:(fun n ->
        Node.ensure_key n sync_key;
        Node.insert n sync_key "doc")
  in
  checkb "absent before the sync" false first.Engine.key_present;
  checkb "copied key found after the sync" true after.Engine.key_present

let test_engine_cache_after_sync_tombstone () =
  let first, after =
    diverge_and_sync
      ~prepare:(fun n ->
        Node.ensure_key n sync_key;
        Node.insert n sync_key "doc")
      ~stale_others:(fun n ->
        Node.remove_key n sync_key;
        Node.note_delete n sync_key ~version:1 ~stamp:1.)
  in
  checkb "present before the sync" true first.Engine.key_present;
  checkb "tombstoned key absent after the sync" false after.Engine.key_present

let test_engine_stale_fallback () =
  (* A cached target that went offline must cost a stale fallback, never
     return a wrong responsible peer. *)
  let overlay, keys = build 34 in
  let cache = Qcache.create overlay in
  let k, t = planted_pair overlay keys in
  Qcache.learn cache ~at:0 ~key:k ~target:t ~present:true ~payloads:[];
  Node.set_online (Overlay.node overlay t) false;
  let r = Engine.lookup ~cache overlay ~from:0 k in
  (match r.Engine.responsible with
  | None -> Alcotest.fail "routing must still resolve past a stale entry"
  | Some id ->
    let n = Overlay.node overlay id in
    checkb "returned peer is online" true n.Node.online;
    checkb "returned peer is responsible" true (Node.responsible_for n k));
  checkb "stale probe recorded" true (r.Engine.stale >= 1);
  checkb "stale entry evicted and counted" true
    ((Qcache.stats cache).Qcache.stale >= 1)

let test_engine_lookup_many () =
  let overlay, keys = build 35 in
  let group = Array.to_list (Array.sub keys 0 48) in
  let b = Engine.lookup_many overlay ~from:0 group in
  checki "every key resolved on a healthy overlay" 0 b.Engine.unresolved;
  checkb "shared walk beats naive per-key walks" true
    (b.Engine.messages <= b.Engine.naive_messages);
  Array.iter
    (fun item ->
      match item.Engine.bresponsible with
      | None -> Alcotest.fail "unresolved item"
      | Some t ->
        checkb "item target is responsible" true
          (Node.responsible_for (Overlay.node overlay t) item.Engine.bkey))
    b.Engine.items

(* Qcache.Lru against a list-based reference LRU: the flat table must make
   every decision the reference makes — hit or miss, eviction victim and
   its value, size — after every step of a random operation sequence. *)
module Model_lru = struct
  type t = { cap : int; mutable items : (int * int) list (* most recent first *) }

  let create cap = { cap; items = [] }
  let length t = List.length t.items
  let mem t k = List.mem_assoc k t.items

  let find t k =
    match List.assoc_opt k t.items with
    | None -> None
    | Some v ->
      t.items <- (k, v) :: List.remove_assoc k t.items;
      Some v

  let remove t k = t.items <- List.remove_assoc k t.items

  let put t k v =
    if mem t k then begin
      t.items <- (k, v) :: List.remove_assoc k t.items;
      None
    end
    else begin
      t.items <- (k, v) :: t.items;
      if length t > t.cap then begin
        let victim = List.nth t.items t.cap in
        t.items <- List.filteri (fun i _ -> i < t.cap) t.items;
        Some victim
      end
      else None
    end

  let clear t = t.items <- []
end

type lru_op = Put of int * int | Find of int | Mem of int | Remove of int | Clear

let show_lru_op = function
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"

(* Mostly caps 1-8 over a small key domain; one case in four takes a cap
   past the table's initial slot count, so its growth path runs too. *)
let lru_case =
  let open QCheck.Gen in
  let case =
    frequency [ (3, int_range 1 8); (1, int_range 9 40) ] >>= fun cap ->
    let key = int_range 0 (cap + (cap / 2) + 3) in
    let op =
      frequency
        [
          (20, map2 (fun k v -> Put (k, v)) key (int_range 0 999));
          (10, map (fun k -> Find k) key);
          (4, map (fun k -> Mem k) key);
          (5, map (fun k -> Remove k) key);
          (1, return Clear);
        ]
    in
    pair (return cap) (list_size (int_range 0 200) op)
  in
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap %d: %s" cap (String.concat "; " (List.map show_lru_op ops)))
    case

let qcheck_lru_matches_model =
  QCheck.Test.make ~name:"Qcache.Lru = reference LRU" ~count:300 lru_case
    (fun (cap, ops) ->
      let lru = Qcache.Lru.create ~fields:1 ~cap "" in
      let model = Model_lru.create cap in
      (* The field and the boxed value carry the same number, so both
         storage paths are checked against the model. *)
      let read s =
        let v = Qcache.Lru.field lru s 0 in
        if Qcache.Lru.value lru s <> string_of_int v then
          QCheck.Test.fail_reportf "field %d and value %S disagree" v
            (Qcache.Lru.value lru s);
        v
      in
      List.iter
        (fun op ->
          let agree what a b =
            if a <> b then QCheck.Test.fail_reportf "%s: %s differs" (show_lru_op op) what
          in
          (match op with
          | Put (k, v) ->
            let s = Qcache.Lru.put lru k in
            let victim = Qcache.Lru.victim lru in
            let evicted = if victim >= 0 then Some (victim, read s) else None in
            Qcache.Lru.set_field lru s 0 v;
            Qcache.Lru.set_value lru s (string_of_int v);
            agree "evicted entry" (Model_lru.put model k v) evicted
          | Find k ->
            let s = Qcache.Lru.find lru k in
            agree "result" (Model_lru.find model k) (if s < 0 then None else Some (read s))
          | Mem k -> agree "membership" (Model_lru.mem model k) (Qcache.Lru.mem lru k)
          | Remove k ->
            Model_lru.remove model k;
            Qcache.Lru.remove lru k
          | Clear ->
            Model_lru.clear model;
            Qcache.Lru.clear lru);
          agree "length" (Model_lru.length model) (Qcache.Lru.length lru))
        ops;
      true)

(* Peer ids index an array inside the cache, so an id outside the overlay
   must be rejected at the boundary, not create a cache or read out of
   bounds. *)
let test_qcache_rejects_bad_peer () =
  let overlay, keys = build 34 in
  let cache = Qcache.create overlay in
  let k, t = planted_pair overlay keys in
  let n = Overlay.size overlay in
  List.iter
    (fun at ->
      let rejected f =
        match f () with
        | () -> Alcotest.failf "peer %d accepted" at
        | exception Invalid_argument _ -> ()
      in
      rejected (fun () ->
          Qcache.learn cache ~at ~key:k ~target:t ~present:true ~payloads:[]);
      rejected (fun () -> ignore (Qcache.probe cache ~at k)))
    [ -1; n; n + 5; min_int ];
  let s = Qcache.stats cache in
  checki "no entry was created" 0 (s.Qcache.route_entries + s.Qcache.result_entries);
  checki "no probe was counted" 0 (s.Qcache.misses + s.Qcache.route_hits + s.Qcache.result_hits)

(* The tentpole's correctness property: cached lookups agree with plain
   routing on responsibility and key presence before, during and after a
   balance split storm — stale entries may cost hops, never answers. *)
let qcheck_cached_agrees_under_balance_storm =
  QCheck.Test.make ~name:"cached = uncached under balance splits" ~count:10
    QCheck.small_signed_int (fun seed ->
      let rng = Rng.create ~seed in
      let keys = Distribution.generate rng Distribution.Uniform ~n:600 in
      let overlay =
        Builder.index rng ~peers:64 ~keys ~d_max:12 ~n_min:2 ~refs_per_level:2
      in
      let cache = Qcache.create overlay in
      let ok = ref true in
      let audit () =
        for _ = 1 to 30 do
          let k = keys.(Rng.int rng (Array.length keys)) in
          let from = Rng.int rng 64 in
          let r = Engine.lookup ~cache overlay ~from k in
          match r.Engine.responsible with
          | None -> ()
          | Some t ->
            let n = Overlay.node overlay t in
            if not (n.Node.online && Node.responsible_for n k) then ok := false;
            if r.Engine.key_present <> Node.has_key n k then ok := false
        done
      in
      audit ();
      let bcfg = Balance.default_config ~d_max:12 ~n_min:1 in
      for i = 1 to 4 do
        (* Skewed inserts overload the low partitions until splits fire. *)
        for j = 1 to 120 do
          let from = Rng.int rng 64 in
          if (Overlay.node overlay from).Node.online then
            ignore
              (Overlay.insert overlay ~from
                 (Key.of_float (Rng.float rng *. 0.05))
                 (Printf.sprintf "storm-%d-%d" i j))
        done;
        ignore (Balance.pass rng overlay bcfg);
        audit ()
      done;
      audit ();
      !ok)

let suite =
  [
    Alcotest.test_case "lookup batch" `Quick test_lookup_batch;
    Alcotest.test_case "hops ~ half path" `Quick test_lookup_hops_law;
    Alcotest.test_case "lookups under failures" `Quick test_lookup_under_failures;
    Alcotest.test_case "lookup invalid args" `Quick test_lookup_invalid;
    Alcotest.test_case "range batch" `Quick test_range_batch;
    Alcotest.test_case "range width scaling" `Quick test_range_width_scaling;
    Alcotest.test_case "range invalid args" `Quick test_range_invalid;
    Alcotest.test_case "range full width" `Quick test_range_full_width;
    Alcotest.test_case "conjunctive query" `Quick test_conjunctive;
    Alcotest.test_case "conjunctive empty" `Quick test_conjunctive_empty_keys;
    Alcotest.test_case "conjunctive skips unresolved" `Quick
      test_conjunctive_skips_unresolved;
    Alcotest.test_case "conjunctive all unresolved" `Quick
      test_conjunctive_all_unresolved;
    Alcotest.test_case "conjunctive duplicate keys" `Quick
      test_conjunctive_duplicate_keys;
    Alcotest.test_case "conjunctive payload dedup" `Quick
      test_conjunctive_dedups_payloads;
    Alcotest.test_case "storm completes" `Quick test_storm_completes;
    Alcotest.test_case "storm deterministic" `Quick test_storm_deterministic;
    Alcotest.test_case "storm sheds under burst" `Quick test_storm_sheds_under_burst;
    Alcotest.test_case "storm hedge dodges dead primary" `Quick
      test_storm_hedge_dodges_dead_primary;
    Alcotest.test_case "storm breaker opens" `Quick test_storm_breaker_opens;
    Alcotest.test_case "storm fingerprint" `Quick test_storm_fingerprint;
    Alcotest.test_case "storm rejects NaN" `Quick test_storm_rejects_nan;
    Alcotest.test_case "lookup batch nobody online" `Quick
      test_lookup_batch_nobody_online;
    Alcotest.test_case "range batch nobody online" `Quick
      test_range_batch_nobody_online;
    Alcotest.test_case "conjunctive uneven postings" `Quick
      test_conjunctive_uneven_postings;
    Alcotest.test_case "engine cacheless = search" `Quick
      test_engine_cacheless_matches_search;
    Alcotest.test_case "qcache lru eviction" `Quick test_qcache_lru_eviction;
    Alcotest.test_case "qcache invalidation kinds" `Quick
      test_qcache_invalidation_kinds;
    Alcotest.test_case "qcache observes events" `Quick test_qcache_observe_events;
    Alcotest.test_case "qcache rejects bad peer ids" `Quick test_qcache_rejects_bad_peer;
    Alcotest.test_case "engine stale fallback" `Quick test_engine_stale_fallback;
    Alcotest.test_case "engine batched lookups" `Quick test_engine_lookup_many;
    Alcotest.test_case "engine cache after sync copy" `Quick
      test_engine_cache_after_sync_copy;
    Alcotest.test_case "engine cache after sync tombstone" `Quick
      test_engine_cache_after_sync_tombstone;
    QCheck_alcotest.to_alcotest qcheck_conjunctive_merge_equiv;
    QCheck_alcotest.to_alcotest qcheck_cached_agrees_under_balance_storm;
    QCheck_alcotest.to_alcotest qcheck_lru_matches_model;
  ]
