(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 and EXPERIMENTS.md).  Every target
   is one entry of Pgrid_experiment.Experiment's registry.

   Usage:
     dune exec bench/main.exe                    -- everything, in order
     dune exec bench/main.exe fig4               -- one artifact
     dune exec bench/main.exe fig6a 10           -- override repetitions
     dune exec bench/main.exe fig6a fig6e micro  -- several artifacts
     dune exec bench/main.exe -- --smoke survival  -- the fixed smoke preset

   --smoke runs each target's fixed smoke preset (shorter horizons,
   fewer peers, one repetition) instead of its full one.
   --json FILE writes a machine-readable report (wall-clock seconds and
   metric values per target, Bechamel ns/run for the micro kernels)
   for `bench/compare.exe` to diff against a baseline.
   --quota MS shortens the Bechamel per-kernel time quota (default 500).
   --trace FILE.jsonl and --metrics (anywhere on the command line) route
   every experiment's telemetry to a JSONL file / a summary table.

   Every target's acceptance gates are checked on every run; a failing
   gate is named on stderr and makes the harness exit 1. *)

module Experiment = Pgrid_experiment.Experiment

let seed = 20050830 (* VLDB 2005, Trondheim: August 30 *)

let banner title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n%!" line title line

type flags = {
  trace : string option;
  metrics : bool;
  json : string option;
  smoke : bool;
  positional : string list;
}

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n" msg;
      Printf.eprintf "available targets: %s\n"
        (String.concat ", " (List.map Experiment.name Experiment.all));
      exit 2)
    fmt

(* Pull the flags out of argv before positional parsing. *)
let split_flags argv =
  let rec go acc = function
    | [] -> { acc with positional = List.rev acc.positional }
    | "--trace" :: path :: rest -> go { acc with trace = Some path } rest
    | "--metrics" :: rest -> go { acc with metrics = true } rest
    | "--json" :: path :: rest -> go { acc with json = Some path } rest
    | "--smoke" :: rest -> go { acc with smoke = true } rest
    | "--quota" :: ms :: rest ->
      (match float_of_string_opt ms with
      | Some q when q > 0. -> Experiment.micro_quota_ms := q
      | _ -> usage_error "--quota expects a positive duration in milliseconds, got %S" ms);
      go acc rest
    | ("--trace" | "--json" | "--quota") :: [] -> usage_error "flag is missing its argument"
    | a :: rest -> go { acc with positional = a :: acc.positional } rest
  in
  go { trace = None; metrics = false; json = None; smoke = false; positional = [] } argv

(* Positional arguments: any number of target names plus at most one
   repetitions count.  Anything else is an error — a malformed
   repetitions argument must not silently fall back to the default. *)
let parse_positional args =
  let chosen, reps =
    List.fold_left
      (fun (chosen, reps) a ->
        match Experiment.find a with
        | Some e -> (e :: chosen, reps)
        | None -> (
          match int_of_string_opt a with
          | Some r when r >= 1 && reps = None -> (chosen, Some r)
          | Some r when r < 1 -> usage_error "repetitions must be >= 1, got %d" r
          | Some _ -> usage_error "more than one repetitions argument"
          | None -> usage_error "unknown target or malformed repetitions argument %S" a))
      ([], None) args
  in
  (List.rev chosen, reps)

let with_telemetry ~trace ~metrics f =
  let module Telemetry = Pgrid_telemetry.Telemetry in
  if trace = None && not metrics then f ()
  else begin
    let tel = Telemetry.create () in
    Option.iter
      (fun path ->
        match Pgrid_telemetry.Sink.jsonl_file path with
        | sink -> Telemetry.add_sink tel sink
        | exception Sys_error reason ->
          Printf.eprintf "bench: cannot open trace file: %s\n" reason;
          exit 1)
      trace;
    Pgrid_telemetry.Global.set tel;
    Fun.protect
      ~finally:(fun () ->
        Telemetry.close tel;
        Pgrid_telemetry.Global.reset ())
      (fun () ->
        f ();
        if metrics then Pgrid_telemetry.Summary.print tel;
        Option.iter
          (fun path ->
            Printf.printf "trace: %d events written to %s\n"
              (Telemetry.events_recorded tel) path)
          trace)
  end

(* Run one target: banner, notes, report; record its metrics and return
   the names of the gates that failed. *)
let run_target report ~smoke ?reps e =
  let t0 = Unix.gettimeofday () in
  banner (Experiment.title e);
  List.iter (Printf.printf "note: %s\n%!") (Experiment.notes e);
  let outcome = Experiment.run e ~smoke ~seed ?reps () in
  Experiment.print outcome;
  let seconds = Unix.gettimeofday () -. t0 in
  let metrics = Experiment.metrics outcome in
  Report.add report { Report.name = Experiment.name e; reps; seconds; metrics };
  List.map
    (fun gate -> Printf.sprintf "%s: %s" (Experiment.name e) gate)
    (Experiment.failures e metrics)

let () =
  let flags = split_flags (List.tl (Array.to_list Sys.argv)) in
  let chosen, reps = parse_positional flags.positional in
  let report = Report.create () in
  let failed = ref [] in
  with_telemetry ~trace:flags.trace ~metrics:flags.metrics (fun () ->
      let chosen =
        match chosen with
        | [] ->
          print_endline "P-Grid reproduction bench harness -- all artifacts";
          Experiment.all
        | chosen -> chosen
      in
      List.iter
        (fun e -> failed := !failed @ run_target report ~smoke:flags.smoke ?reps e)
        chosen);
  Option.iter (fun path -> Report.write report ~path ~seed) flags.json;
  List.iter (Printf.eprintf "bench: gate failed: %s\n") !failed;
  if !failed <> [] then exit 1
