(* Workload dispatch shared by the command and the smoke test. *)

type scale = Full | Tiny

(* The [--seconds] value the benchmark is run with; BENCHMARK.json records it. *)
let run_seconds = 10

let print_layers tbl =
  let layers = Span.layers tbl in
  let total = List.fold_left (fun s (_, ns) -> s + ns) 0 layers in
  List.iter
    (fun (layer, ns) ->
      Out.info "layer %-13s self %10.3f s  %5.1f%%" layer (float_of_int ns /. 1e9)
        (100. *. float_of_int ns /. float_of_int (max 1 total)))
    layers

(* Runs one workload into [out]; [Ok spans] carries the traced run's
   spans, [Error] names an unknown workload. *)
let run out ~workload ~scale ~seed ~seconds ~trace =
  let pick full tiny = match scale with Full -> full | Tiny -> tiny in
  Calib.reset ();
  let fns =
    match workload with
    | "build" ->
      let cfg = pick Wl_build.default Wl_build.tiny in
      Some
        ( (fun () -> Wl_build.run_e2e out cfg ~seed),
          fun () -> Wl_build.run_traced out cfg ~seed )
    | "serve" ->
      let cfg = pick Wl_serve.default Wl_serve.tiny in
      Some
        ( (fun () -> Wl_serve.run_e2e out cfg ~seed ~seconds),
          fun () -> Wl_serve.run_traced out cfg ~seed ~seconds )
    | "netstorm" ->
      let cfg = pick Wl_netstorm.default Wl_netstorm.tiny in
      Some
        ( (fun () -> Wl_netstorm.run_e2e out cfg ~seed ~seconds),
          fun () -> Wl_netstorm.run_traced out cfg ~seed ~seconds )
    | _ -> None
  in
  match fns with
  | None -> Error ("unknown workload: " ^ workload)
  | Some (e2e, traced) ->
    if trace then begin
      let tr, tbl = traced () in
      print_layers tbl;
      (* A layer this workload never calls reports 0 on its metrics. *)
      let idle =
        List.filter
          (fun (name, unit, _) ->
            if Out.value out name = None then (Out.add out name unit 0.; true) else false)
          Catalog.per_layer
      in
      if idle <> [] then
        Out.info "not exercised by %s (reported 0): %s" workload
          (String.concat " " (List.map (fun (n, _, _) -> n) idle));
      Ok (Some tr)
    end
    else begin
      e2e ();
      Out.add out "mem_peak_mb" "MB" (Out.live_peak_mb out);
      Ok None
    end

let result_line out ~trace =
  let names =
    if trace then List.map (fun (n, u, _) -> (n, u)) Catalog.per_layer
    else List.map (fun m -> (m.Catalog.name, m.Catalog.unit)) Catalog.end_to_end
  in
  Out.result_line out ~names
