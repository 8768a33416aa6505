(* In-memory span recorder for the traced runs, plus the clock and the
   percentile helper every workload shares.

   A span is (name, parent, start, end) in monotonic nanoseconds.  Spans
   nest on the single benchmark thread, so a span's children never
   overlap and its self time is its duration minus theirs. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

type t = {
  mutable names : string array;
  mutable parents : int array;
  mutable starts : int array;
  mutable ends : int array;
  mutable n : int;
  mutable cur : int;  (* innermost open span, -1 at top level *)
}

let create () =
  let cap = 1024 in
  {
    names = Array.make cap "";
    parents = Array.make cap (-1);
    starts = Array.make cap 0;
    ends = Array.make cap 0;
    n = 0;
    cur = -1;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- extend t.names "";
  t.parents <- extend t.parents (-1);
  t.starts <- extend t.starts 0;
  t.ends <- extend t.ends 0

let enter t name =
  if t.n = Array.length t.names then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.names.(id) <- name;
  t.parents.(id) <- t.cur;
  t.cur <- id;
  t.starts.(id) <- now_ns ();
  id

let leave t id =
  t.ends.(id) <- now_ns ();
  t.cur <- t.parents.(id)

(* Rename a closed span once its outcome is known (e.g. an interaction
   classified by what it did). *)
let rename t id name = t.names.(id) <- name

let count t = t.n

(* [with_ tr name f]: [f ()] inside a span when tracing, bare otherwise. *)
let with_ tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let id = enter t name in
    let r = f () in
    leave t id;
    r

type agg = { calls : int; total_ns : int; self_ns : int }

(* Per-name aggregates: call count, summed duration and summed self time. *)
let summary t =
  let child = Array.make (max 1 t.n) 0 in
  for i = 0 to t.n - 1 do
    let p = t.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) + (t.ends.(i) - t.starts.(i))
  done;
  let tbl = Hashtbl.create 64 in
  for i = 0 to t.n - 1 do
    let d = t.ends.(i) - t.starts.(i) in
    let a =
      Option.value ~default:{ calls = 0; total_ns = 0; self_ns = 0 }
        (Hashtbl.find_opt tbl t.names.(i))
    in
    Hashtbl.replace tbl t.names.(i)
      { calls = a.calls + 1; total_ns = a.total_ns + d; self_ns = a.self_ns + d - child.(i) }
  done;
  tbl

let find tbl name =
  Option.value ~default:{ calls = 0; total_ns = 0; self_ns = 0 } (Hashtbl.find_opt tbl name)

(* Mean duration in ns of the spans named [name] (0 when none ran). *)
let mean_ns tbl name =
  let a = find tbl name in
  if a.calls = 0 then 0. else float_of_int a.total_ns /. float_of_int a.calls

(* Self time per layer: the span name's prefix before the first dot. *)
let layers tbl =
  let by = Hashtbl.create 8 in
  Hashtbl.iter
    (fun name a ->
      let layer =
        match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
      in
      let s = Option.value ~default:0 (Hashtbl.find_opt by layer) in
      Hashtbl.replace by layer (s + a.self_ns))
    tbl;
  Hashtbl.fold (fun l s acc -> (l, s) :: acc) by [] |> List.sort compare

(* One span per line: id, parent, name, start and end in ns relative to
   the first span. *)
let write t path =
  let oc = open_out path in
  let base = if t.n > 0 then t.starts.(0) else 0 in
  output_string oc "id\tparent\tname\tstart_ns\tend_ns\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" i t.parents.(i) t.names.(i)
      (t.starts.(i) - base) (t.ends.(i) - base)
  done;
  close_out oc

(* Nearest-rank percentile of an ascending array; [q] in [0, 1]. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 0.5
