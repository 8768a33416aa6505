(* What one run reports: named metrics with units, the operation tally,
   and the correctness gates.  Human-readable lines go to stdout as the
   run proceeds; [result_line] is the machine-readable last line. *)

type t = {
  mutable metrics : (string * (float * string)) list;  (* newest first *)
  mutable attempted : int;
  mutable violations : string list;
  mutable live_peak_words : int;
}

let create () = { metrics = []; attempted = 0; violations = []; live_peak_words = 0 }

(* Records the live major heap after a full collection, with [state]
   (the workload's index and inputs) held live: exact for a seed, unlike
   the heap's high-water mark, which moves with GC pacing. *)
let memory_checkpoint t state =
  Gc.full_major ();
  t.live_peak_words <- max t.live_peak_words (Gc.stat ()).Gc.live_words;
  ignore (Sys.opaque_identity state)

let live_peak_mb t = float_of_int (t.live_peak_words * (Sys.word_size / 8)) /. 1e6

let add t name unit value =
  if List.mem_assoc name t.metrics then invalid_arg ("Out.add: duplicate metric " ^ name);
  t.metrics <- (name, (value, unit)) :: t.metrics

let addi t name unit v = add t name unit (float_of_int v)
let attempt t n = t.attempted <- t.attempted + n
let verbose = ref true
let info fmt = Printf.ksprintf (fun s -> if !verbose then print_endline s) fmt

(* A gate: a violated check is reported, fails the run and makes the
   process exit non-zero. *)
let check t ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        t.violations <- msg :: t.violations;
        Printf.printf "GATE FAILED: %s\n%!" msg
      end)
    fmt

let correct t = t.violations = []
let value t name = Option.map fst (List.assoc_opt name t.metrics)

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

(* [names] fixes which metrics are printed, in order; a missing one is a
   bug in the benchmark and raises. *)
let result_line t ~names =
  let metric (name, unit) =
    match List.assoc_opt name t.metrics with
    | Some (v, u) when u = unit ->
      Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
    | Some (_, u) -> failwith (Printf.sprintf "metric %s has unit %s, expected %s" name u unit)
    | None -> failwith ("metric not measured: " ^ name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct t) t.attempted (List.length t.violations)
    (String.concat ", " (List.map metric names))
