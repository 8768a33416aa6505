(* pgrid: command-line front end for the P-Grid reproduction.

   Subcommands:
     construct -- run the decentralized construction and report the overlay
     bisect    -- simulate one key-space bisection with a chosen strategy
     planetlab -- run the full simulated deployment (Figures 7-9)
     reference -- print the Algorithm 1 partitioning for a workload
     figure    -- regenerate one of the paper's figures/tables
     trace     -- replay a JSON-Lines telemetry trace into a summary

   Experiment subcommands accept --trace FILE.jsonl (write every
   telemetry event) and --metrics (print the metrics summary). *)

open Cmdliner

module Rng = Pgrid_prng.Rng
module Table = Pgrid_stats.Table
module Series = Pgrid_stats.Series
module Reference = Pgrid_partition.Reference
module Discrete = Pgrid_partition.Discrete
module Distribution = Pgrid_workload.Distribution
module Overlay = Pgrid_core.Overlay
module Round = Pgrid_construction.Round
module Net_engine = Pgrid_construction.Net_engine
module Experiment = Pgrid_experiment.Experiment
module Telemetry = Pgrid_telemetry.Telemetry
module Sink = Pgrid_telemetry.Sink
module Summary = Pgrid_telemetry.Summary

(* --- shared arguments ---------------------------------------------------- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.jsonl"
        ~doc:"Write every telemetry event to $(docv) (JSON Lines).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Print the telemetry metrics summary after the run.")

(* Build a telemetry handle from the flags, install it as the process
   default (so nested layers pick it up), run, then summarize/close. *)
let with_telemetry ~trace ~metrics f =
  if trace = None && not metrics then f Telemetry.disabled
  else begin
    let tel = Telemetry.create () in
    Option.iter
      (fun path ->
        match Sink.jsonl_file path with
        | sink -> Telemetry.add_sink tel sink
        | exception Sys_error reason ->
          Printf.eprintf "pgrid: cannot open trace file: %s\n" reason;
          exit 1)
      trace;
    Pgrid_telemetry.Global.set tel;
    Fun.protect
      ~finally:(fun () ->
        Telemetry.close tel;
        Pgrid_telemetry.Global.reset ())
      (fun () ->
        f tel;
        if metrics then Summary.print tel;
        Option.iter
          (fun path ->
            Printf.printf "trace: %d events written to %s\n"
              (Telemetry.events_recorded tel) path)
          trace)
  end

let peers_arg default =
  Arg.(value & opt int default & info [ "peers"; "n" ] ~docv:"N" ~doc:"Number of peers.")

let distribution_arg =
  let parse s =
    match String.uppercase_ascii s with
    | "U" -> Ok Distribution.Uniform
    | "P0.5" -> Ok (Distribution.Pareto 0.5)
    | "P1.0" | "P1" -> Ok (Distribution.Pareto 1.0)
    | "P1.5" -> Ok (Distribution.Pareto 1.5)
    | "N" -> Ok Distribution.paper_normal
    | "A" -> Ok Distribution.paper_text
    | other -> Error (`Msg (Printf.sprintf "unknown distribution %s (use U, P0.5, P1.0, P1.5, N, A)" other))
  in
  let print fmt spec = Format.pp_print_string fmt (Distribution.label spec) in
  Arg.(
    value
    & opt (conv (parse, print)) Distribution.Uniform
    & info [ "distribution"; "d" ] ~docv:"DIST"
        ~doc:"Key distribution: U, P0.5, P1.0, P1.5, N or A.")

let n_min_arg =
  Arg.(value & opt int 5 & info [ "n-min" ] ~docv:"R" ~doc:"Minimal replication factor.")

let d_max_arg =
  Arg.(value & opt int 50 & info [ "d-max" ] ~docv:"D" ~doc:"Maximal keys per partition.")

let keys_per_peer_arg =
  Arg.(value & opt int 10 & info [ "keys-per-peer" ] ~docv:"K" ~doc:"Keys owned per peer.")

(* --- construct ------------------------------------------------------------ *)

let construct seed peers spec n_min d_max keys_per_peer show_trie trace metrics =
  with_telemetry ~trace ~metrics @@ fun telemetry ->
  let rng = Rng.create ~seed in
  let params = { (Round.default_params ~peers) with Round.n_min; d_max; keys_per_peer } in
  let o = Round.run ~telemetry rng params ~spec in
  let s = Overlay.stats o.Round.overlay in
  Table.print ~title:(Printf.sprintf "decentralized construction (%s keys)" (Distribution.label spec))
    ~columns:[ "metric"; "value" ]
    ~rows:
      [
        [ "peers"; string_of_int s.Overlay.peers ];
        [ "partitions"; string_of_int s.Overlay.partitions ];
        [ "mean path length"; Table.fmt_float s.Overlay.mean_path_length ];
        [ "mean replication"; Table.fmt_float s.Overlay.mean_replication ];
        [ "rounds"; string_of_int o.Round.rounds ];
        [ "interactions / peer"; Table.fmt_float (Round.interactions_per_peer o) ];
        [ "keys moved / peer"; Table.fmt_float (Round.keys_moved_per_peer o) ];
        [ "splits / follows / merges";
          Printf.sprintf "%d / %d / %d" o.Round.splits o.Round.follows o.Round.merges ];
        [ "deviation vs Algorithm 1"; Table.fmt_float o.Round.deviation ];
        [ "routing violations"; string_of_int (Overlay.integrity_errors o.Round.overlay) ];
      ];
  if show_trie then print_endline (Pgrid_core.Trie_view.render o.Round.overlay)

let construct_cmd =
  let doc = "run the parallel decentralized overlay construction" in
  let trie_arg =
    Arg.(value & flag & info [ "trie" ] ~doc:"Print the resulting partition trie.")
  in
  Cmd.v (Cmd.info "construct" ~doc)
    Term.(
      const construct $ seed_arg $ peers_arg 256 $ distribution_arg $ n_min_arg
      $ d_max_arg $ keys_per_peer_arg $ trie_arg $ trace_arg $ metrics_arg)

(* --- bisect ----------------------------------------------------------------- *)

let strategy_arg =
  let all =
    [
      ("eager", Discrete.Eager);
      ("aut", Discrete.Autonomous);
      ("aep", Discrete.Aep);
      ("cor", Discrete.Cor);
      ("cor-taylor", Discrete.CorTaylor);
      ("heuristic", Discrete.Heuristic);
      ("oracle", Discrete.Oracle);
    ]
  in
  Arg.(
    value
    & opt (enum all) Discrete.Aep
    & info [ "strategy"; "s" ] ~docv:"STRATEGY"
        ~doc:"Partitioning strategy: eager, aut, aep, cor, cor-taylor, heuristic, oracle.")

let p_arg =
  Arg.(
    value & opt float 0.3
    & info [ "load-fraction"; "f" ] ~docv:"P" ~doc:"Load fraction of side 0.")

let samples_arg =
  Arg.(value & opt int 10 & info [ "samples" ] ~docv:"S" ~doc:"Local key samples per peer.")

let reps_arg default =
  Arg.(value & opt int default & info [ "reps" ] ~docv:"R" ~doc:"Repetitions.")

let bisect seed peers strategy p samples reps =
  let rng = Rng.create ~seed in
  let dev = Pgrid_stats.Moments.create () in
  let cost = Pgrid_stats.Moments.create () in
  for _ = 1 to reps do
    let o = Discrete.run rng strategy ~n:peers ~p ~samples in
    Pgrid_stats.Moments.add dev (float_of_int o.Discrete.p0 -. (float_of_int peers *. p));
    Pgrid_stats.Moments.add cost (float_of_int o.Discrete.interactions)
  done;
  Table.print
    ~title:
      (Printf.sprintf "bisection: %s, n=%d, p=%.3f, s=%d, %d reps"
         (Discrete.strategy_label strategy) peers p samples reps)
    ~columns:[ "metric"; "value" ]
    ~rows:
      [
        [ "mean deviation p0 - n p"; Table.fmt_float (Pgrid_stats.Moments.mean dev) ];
        [ "stddev of deviation"; Table.fmt_float (Pgrid_stats.Moments.stddev dev) ];
        [ "mean interactions"; Table.fmt_float (Pgrid_stats.Moments.mean cost) ];
        [ "interactions / peer";
          Table.fmt_float (Pgrid_stats.Moments.mean cost /. float_of_int peers) ];
        [ "theory t_lambda";
          (try Table.fmt_float (Pgrid_partition.Aep_math.t_lambda ~n:peers ~p)
           with Invalid_argument _ -> "-") ];
      ]

let bisect_cmd =
  let doc = "simulate one decentralized key-space bisection" in
  Cmd.v (Cmd.info "bisect" ~doc)
    Term.(const bisect $ seed_arg $ peers_arg 1000 $ strategy_arg $ p_arg $ samples_arg
          $ reps_arg 100)

(* --- planetlab ---------------------------------------------------------------- *)

let fault_plan_arg =
  let parse s =
    match Pgrid_simnet.Fault.parse s with
    | Ok plan -> Ok plan
    | Error reason -> Error (`Msg reason)
  in
  let print fmt plan = Format.pp_print_string fmt (Pgrid_simnet.Fault.to_string plan) in
  Arg.(
    value
    & opt (conv (parse, print)) []
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Inject faults during the run: semicolon-separated specs from the \
           mini-language burst/partition/crash/latency/dup, times in seconds \
           (see DESIGN.md section 9). A non-empty plan switches the query \
           path to the hardened request/response tracker.")

let robust_arg =
  Arg.(
    value & flag
    & info [ "robust" ]
        ~doc:
          "Use the hardened request/response tracker (liveness pings, \
           timeouts, retries with backoff, stale-reference eviction) even \
           without a fault plan.")

let maint_period_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "maint-period" ] ~docv:"SECONDS"
        ~doc:
          "Enable the self-healing maintenance daemon with the given \
           per-peer anti-entropy period (see DESIGN.md section 10).")

let no_daemon_arg =
  Arg.(
    value & flag
    & info [ "no-daemon" ]
        ~doc:
          "Disable the maintenance daemon (overrides $(b,--maint-period)); \
           the run is then bit-identical to pre-daemon builds.")

let balance_arg =
  Arg.(
    value & flag
    & info [ "balance" ]
        ~doc:
          "Enable online storage-load balancing (runtime partition splits \
           and retractions) inside the maintenance daemon; implies the \
           daemon with its default period unless $(b,--maint-period) sets \
           one (see DESIGN.md section 11).")

let overload_arg =
  Arg.(
    value & flag
    & info [ "overload" ]
        ~doc:
          "Enable overload protection: bounded per-peer service queues with \
           load shedding, per-(origin, target) circuit breakers on the \
           hardened tracker (implies $(b,--robust) behavior), and shed / \
           breaker accounting in the summary (see DESIGN.md section 14).")

let txn_arg =
  Arg.(
    value & flag
    & info [ "txn" ]
        ~doc:
          "Run the atomic document-indexing workload: from the query phase \
           on, random coordinators index documents under several keys with \
           two-phase commit over the simulated network, with durable intent \
           logs replayed after crashes (see DESIGN.md section 12).")

let planetlab seed peers spec fault_plan robust maint_period no_daemon balance
    txn overload trace metrics =
  with_telemetry ~trace ~metrics @@ fun telemetry ->
  let rng = Rng.create ~seed in
  let base = Net_engine.default_params ~peers in
  let maint =
    if no_daemon then None
    else if maint_period = None && not balance then None
    else begin
      let c =
        Pgrid_core.Maintenance.default_daemon_config ~n_min:base.Net_engine.n_min
      in
      let c =
        match maint_period with
        | Some period -> { c with Pgrid_core.Maintenance.period }
        | None -> c
      in
      Some
        (if balance then
           {
             c with
             Pgrid_core.Maintenance.balance =
               Some
                 (Pgrid_core.Balance.default_config ~d_max:base.Net_engine.d_max
                    ~n_min:base.Net_engine.n_min);
           }
         else c)
    end
  in
  let params =
    {
      base with
      Net_engine.fault_plan;
      fault_seed = seed + 7;
      robust = (if robust then Some Net_engine.default_robust else None);
      service = (if overload then Some Pgrid_simnet.Net.default_overload else None);
      breaker =
        (if overload then Some Pgrid_simnet.Breaker.default_config else None);
      maint;
      txn = (if txn then Some Net_engine.default_txn_workload else None);
    }
  in
  let o = Net_engine.run ~telemetry rng params ~spec in
  let qs = o.Net_engine.query_stats in
  let rs = o.Net_engine.robust_stats in
  let s = o.Net_engine.stats in
  let hardened_rows =
    if robust || fault_plan <> [] || overload then
      [
        [ "timeouts / retries";
          Printf.sprintf "%d / %d" rs.Net_engine.timeouts rs.Net_engine.retries ];
        [ "give-ups / evictions";
          Printf.sprintf "%d / %d" rs.Net_engine.give_ups rs.Net_engine.evictions ];
      ]
    else []
  in
  let overload_rows =
    if overload then
      [
        [ "messages shed / queue peak";
          Printf.sprintf "%d / %d" o.Net_engine.messages_shed
            o.Net_engine.queue_peak ];
        [ "breaker opens / skips";
          Printf.sprintf "%d / %d" rs.Net_engine.breaker_opens
            rs.Net_engine.breaker_skips ];
      ]
    else []
  in
  let fault_rows =
    match o.Net_engine.fault_stats with
    | None -> []
    | Some f ->
      [
        [ "fault crashes"; string_of_int f.Pgrid_simnet.Fault.crashes ];
        [ "fault drops (loss / cut)";
          Printf.sprintf "%d / %d" f.Pgrid_simnet.Fault.loss_drops
            f.Pgrid_simnet.Fault.partition_drops ];
      ]
  in
  let maint_rows =
    match o.Net_engine.maint_stats with
    | None -> []
    | Some m ->
      [
        [ "daemon exchanges / keys synced";
          Printf.sprintf "%d / %d" m.Pgrid_core.Maintenance.exchanges
            m.Pgrid_core.Maintenance.keys_synced ];
        [ "daemon refreshes / re-replications";
          Printf.sprintf "%d / %d" m.Pgrid_core.Maintenance.levels_refreshed
            m.Pgrid_core.Maintenance.rereplications ];
      ]
      @
      if balance then
        [
          [ "balance splits / retractions";
            Printf.sprintf "%d / %d" m.Pgrid_core.Maintenance.balance_splits
              m.Pgrid_core.Maintenance.balance_retracts ];
          [ "balance keys moved";
            string_of_int m.Pgrid_core.Maintenance.balance_keys_moved ];
        ]
      else []
  in
  let txn_rows =
    match o.Net_engine.txn_stats with
    | None -> []
    | Some t ->
      [
        [ "txns begun / committed / aborted";
          Printf.sprintf "%d / %d / %d" t.Pgrid_core.Txn.begun
            t.Pgrid_core.Txn.committed t.Pgrid_core.Txn.aborted ];
        [ "txn prepares / undos";
          Printf.sprintf "%d / %d" t.Pgrid_core.Txn.prepares
            t.Pgrid_core.Txn.undos ];
        [ "txn recovered / redelivered";
          Printf.sprintf "%d / %d" t.Pgrid_core.Txn.recovered
            t.Pgrid_core.Txn.redelivered ];
      ]
  in
  Table.print ~title:"simulated deployment (paper Section 5 timeline)"
    ~columns:[ "metric"; "value" ]
    ~rows:
      ([
         [ "peers"; string_of_int s.Overlay.peers ];
         [ "partitions"; string_of_int s.Overlay.partitions ];
         [ "mean path length"; Table.fmt_float s.Overlay.mean_path_length ];
         [ "mean replication"; Table.fmt_float s.Overlay.mean_replication ];
         [ "deviation"; Table.fmt_float o.Net_engine.deviation ];
         [ "queries issued"; string_of_int qs.Net_engine.issued ];
         [ "query success";
           Printf.sprintf "%.1f%%"
             (100. *. float_of_int qs.Net_engine.succeeded /. float_of_int (max 1 qs.Net_engine.issued)) ];
         [ "mean query hops"; Table.fmt_float qs.Net_engine.mean_hops ];
         [ "mean query latency (s)"; Table.fmt_float qs.Net_engine.mean_latency ];
       ]
      @ hardened_rows @ overload_rows @ fault_rows @ maint_rows @ txn_rows);
  Series.print
    (Series.figure ~title:"online peers" ~x_label:"minutes" ~y_label:"peers"
       [ Series.make "peers" (List.map (fun (t, c) -> (t, float_of_int c)) o.Net_engine.online_series) ])

let planetlab_cmd =
  let doc = "run the full simulated deployment (join, replicate, construct, query, churn)" in
  Cmd.v (Cmd.info "planetlab" ~doc)
    Term.(const planetlab $ seed_arg $ peers_arg 296 $ distribution_arg
          $ fault_plan_arg $ robust_arg $ maint_period_arg $ no_daemon_arg
          $ balance_arg $ txn_arg $ overload_arg $ trace_arg $ metrics_arg)

(* --- reference ------------------------------------------------------------------ *)

let reference seed peers spec n_min d_max keys_per_peer =
  let rng = Rng.create ~seed in
  let keys = Distribution.generate rng spec ~n:(peers * keys_per_peer) in
  let r = Reference.compute ~keys ~peers ~d_max ~n_min in
  let mean_depth, max_depth = Reference.depth_stats r in
  Printf.printf "Algorithm 1 on %d %s keys, %d peers (d_max=%d, n_min=%d):\n"
    (Array.length keys) (Distribution.label spec) peers d_max n_min;
  Printf.printf "%d partitions, depth mean %.2f max %d, max load %d, min peers %.2f\n\n"
    (List.length r.Reference.partitions)
    mean_depth max_depth (Reference.max_key_load r) (Reference.min_peers r);
  Table.print ~title:"partitions" ~columns:[ "path"; "peers"; "keys" ]
    ~rows:
      (List.map
         (fun p ->
           [ Pgrid_keyspace.Path.to_string p.Reference.path;
             Table.fmt_float ~decimals:2 p.Reference.peers;
             string_of_int p.Reference.keys ])
         r.Reference.partitions)

let reference_cmd =
  let doc = "print the global Algorithm 1 partitioning for a workload" in
  Cmd.v (Cmd.info "reference" ~doc)
    Term.(const reference $ seed_arg $ peers_arg 256 $ distribution_arg $ n_min_arg
          $ d_max_arg $ keys_per_peer_arg)

(* --- figure -------------------------------------------------------------------- *)

let figure_name_arg =
  let names = List.map Experiment.name Experiment.all in
  Arg.(
    required
    & pos 0 (some (enum (List.combine names Experiment.all))) None
    & info [] ~docv:"FIGURE" ~doc:("One of: " ^ String.concat " " names ^ "."))

(* Figures picks the telemetry handle up through Pgrid_telemetry.Global. *)
let figure seed experiment reps trace metrics =
  with_telemetry ~trace ~metrics @@ fun _telemetry ->
  Experiment.print ~standalone:true
    (Experiment.run experiment ~smoke:false ~seed ?reps ())

let figure_cmd =
  let doc = "regenerate one of the paper's figures or tables" in
  let reps_opt =
    Arg.(value & opt (some int) None & info [ "reps" ] ~docv:"R" ~doc:"Repetitions.")
  in
  Cmd.v (Cmd.info "figure" ~doc)
    Term.(const figure $ seed_arg $ figure_name_arg $ reps_opt $ trace_arg $ metrics_arg)

(* --- trace ----------------------------------------------------------------------- *)

let trace_replay path =
  match Sink.read_jsonl path with
  | Error (line, reason) ->
    Printf.eprintf "%s:%d: %s\n" path line reason;
    exit 1
  | Ok events ->
    let tel = Summary.replay events in
    (match events with
    | [] -> Printf.printf "%s: empty trace\n" path
    | first :: _ ->
      let last = List.nth events (List.length events - 1) in
      Printf.printf "%s: %d events, t=%.3f..%.3f\n" path (List.length events)
        first.Pgrid_telemetry.Event.time last.Pgrid_telemetry.Event.time);
    Summary.print ~title:(Printf.sprintf "replay of %s" path) tel

let trace_cmd =
  let doc = "replay a JSON-Lines telemetry trace into a metrics summary" in
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE.jsonl" ~doc:"Trace written by --trace.")
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const trace_replay $ path_arg)

(* --- main ------------------------------------------------------------------------ *)

let () =
  let doc = "P-Grid: indexing data-oriented overlay networks (VLDB 2005 reproduction)" in
  let info = Cmd.info "pgrid" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ construct_cmd; bisect_cmd; planetlab_cmd; reference_cmd; figure_cmd;
            trace_cmd ]))
