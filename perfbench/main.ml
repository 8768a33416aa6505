(* perfbench: the repository benchmark.

     main.exe --workload build|serve|netstorm --seed N --seconds S --trace 0|1

   [--trace 0] prints every end-to-end metric, [--trace 1] every
   per-layer metric from a separate traced run (spans written to
   perfbench/out/).  The last stdout line is the JSON result; the exit
   code is non-zero when a correctness gate failed. *)

open Pbench

let usage () =
  prerr_endline
    "usage: main.exe --workload build|serve|netstorm --seed N --seconds S --trace 0|1\n\
    \       main.exe --print-benchmark-json | --print-interactions";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | [ ("--print-benchmark-json" | "--print-interactions") as f ] -> (f, "") :: acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> parse ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  if List.mem_assoc "--print-benchmark-json" opts then begin
    print_string (Catalog.benchmark_json ~run_seconds:Bench.run_seconds);
    exit 0
  end;
  if List.mem_assoc "--print-interactions" opts then begin
    print_string (Catalog.interactions_json ());
    exit 0
  end;
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "--workload" and seed = int "--seed" and seconds = int "--seconds" in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  let out = Out.create () in
  match Bench.run out ~workload ~scale:Bench.Full ~seed ~seconds ~trace with
  | Error msg ->
    prerr_endline msg;
    usage ()
  | Ok spans ->
    Option.iter
      (fun tr ->
        let dir = Filename.concat "perfbench" "out" in
        if Sys.file_exists "perfbench" then begin
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let file = Filename.concat dir (Printf.sprintf "spans-%s-%d.tsv" workload seed) in
          Span.write tr file;
          Out.info "spans: %d written to %s" (Span.count tr) file
        end)
      spans;
    print_endline (Bench.result_line out ~trace);
    if not (Out.correct out) then exit 1
