(* Machine-readable bench reports (BENCH_*.json).

   A report records, for one bench invocation, the wall-clock seconds of
   every figure/ablation target that ran (plus any machine-readable
   metric values the target exposes) and the Bechamel ns/run estimates of
   the micro kernels.  `bench/compare.exe` diffs two such files and flags
   regressions, so every perf PR is judged against a recorded baseline. *)

module Experiment = Pgrid_experiment.Experiment

type wall = {
  name : string;
  reps : int option;  (** repetitions override, if any *)
  seconds : float;  (** wall-clock for the whole target *)
  metrics : Experiment.metric list;
      (** metric values (e.g. fig6 cells) and micro-kernel timings *)
}

type t = { mutable walls : wall list }

let create () = { walls = [] }
let add t w = t.walls <- w :: t.walls

let json_of_value = function
  | Experiment.Value { name; value; direction } ->
    Some
      (Json.Obj
         [
           ("name", Json.Str name);
           ("value", Json.Num value);
           ("direction", Json.Str (match direction with Up -> "up" | Down -> "down"));
         ])
  | Experiment.Kernel _ -> None

let json_of_wall w =
  let base =
    [
      ("name", Json.Str w.name);
      ("reps", match w.reps with Some r -> Json.Num (float_of_int r) | None -> Json.Null);
      ("seconds", Json.Num w.seconds);
    ]
  in
  match List.filter_map json_of_value w.metrics with
  | [] -> Json.Obj base
  | values -> Json.Obj (base @ [ ("values", Json.Arr values) ])

let json_of_kernel = function
  | Experiment.Kernel { name; ns_per_run; r_square } ->
    Some
      (Json.Obj
         ([ ("name", Json.Str name); ("ns_per_run", Json.Num ns_per_run) ]
         @
         match r_square with
         | Some r when Float.is_finite r -> [ ("r_square", Json.Num r) ]
         | _ -> []))
  | Experiment.Value _ -> None

let write t ~path ~seed =
  let walls = List.rev t.walls in
  let micros = List.concat_map (fun w -> List.filter_map json_of_kernel w.metrics) walls in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "pgrid-bench/1");
        ("created_unix", Json.Num (Unix.time ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("seed", Json.Num (float_of_int seed));
        ("targets", Json.Arr (List.map json_of_wall walls));
        ("micro", Json.Arr micros);
      ]
  in
  Json.to_file path doc;
  Printf.printf "bench: report written to %s (%d targets, %d micro kernels)\n%!" path
    (List.length walls) (List.length micros)
