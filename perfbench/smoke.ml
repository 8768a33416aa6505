(* Smoke test of the benchmark at tiny sizes: every workload, traced and
   untraced, passes its gates and emits every named metric; the metrics
   that are exact for a seed repeat across two in-process runs; a
   held-out seed passes the same gates; BENCHMARK.json and
   interactions.json match the catalogue they are generated from. *)

open Pbench

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

let run ~workload ~seed ~trace =
  let out = Out.create () in
  (match Bench.run out ~workload ~scale:Bench.Tiny ~seed ~seconds:1 ~trace with
  | Ok _ -> ()
  | Error e -> fail "%s" e);
  if not (Out.correct out) then fail "%s seed %d trace %b: a correctness gate failed" workload seed trace;
  (match Bench.result_line out ~trace with
  | _ -> ()
  | exception Failure e -> fail "%s seed %d trace %b: %s" workload seed trace e);
  out

(* Metrics that must repeat exactly for a seed. *)
let exact_e2e = function
  | "build" -> [ "build_deviation"; "msgs_per_op"; "success_ratio" ]
  | "serve" -> [ "build_deviation"; "msgs_per_op"; "success_ratio" ]
  | _ -> [ "build_deviation"; "msgs_per_op"; "success_ratio"; "latency_p50_ms"; "latency_p99_ms" ]

let exact_layer name =
  List.exists
    (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
    [ "construction.interactions"; "construction.refer_steps"; "construction.keys_moved"; "construction.rounds";
      "qcache."; "balance."; "reconcile."; "health."; "core.write_hops"; "core.range_peers"; "storm.";
      "simnet.events"; "simnet.msgs"; "simnet.queue_peak"; "simnet.backlog_peak"; "telemetry.events" ]
  && not (List.mem name [ "qcache.probe_ns"; "storm.issue_ns" ])

let same_values ~what names a b =
  List.iter
    (fun name ->
      match (Out.value a name, Out.value b name) with
      | Some x, Some y when Float.equal x y -> ()
      | x, y ->
        let s = function Some v -> Printf.sprintf "%.17g" v | None -> "missing" in
        fail "%s: %s differs between two runs (%s vs %s)" what name (s x) (s y))
    names

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  Out.verbose := false;
  List.iter
    (fun workload ->
      let a = run ~workload ~seed:1 ~trace:false and b = run ~workload ~seed:1 ~trace:false in
      same_values ~what:workload (exact_e2e workload) a b;
      let ta = run ~workload ~seed:1 ~trace:true and tb = run ~workload ~seed:1 ~trace:true in
      let layer = List.filter exact_layer (List.map (fun (n, _, _) -> n) Catalog.per_layer) in
      same_values ~what:(workload ^ " traced") layer ta tb;
      ignore (run ~workload ~seed:987_654 ~trace:false))
    (List.map fst Catalog.workloads);
  if read_file "../BENCHMARK.json" <> Catalog.benchmark_json ~run_seconds:Bench.run_seconds then
    fail "BENCHMARK.json is stale: regenerate it with main.exe --print-benchmark-json";
  if read_file "interactions.json" <> Catalog.interactions_json () then
    fail "interactions.json is stale: regenerate it with main.exe --print-interactions";
  if !failures > 0 then exit 1
