(* Host-speed calibration for the end-to-end wall times.

   On a shared host the same allocation-heavy work runs up to 1.4x
   slower in one run than in the next, and the slowdown holds for tens of
   seconds.  A fixed stdlib kernel (hash table updates, list allocation,
   an array sort; no library code, so no change to the library can speed
   it up or slow it down) slows down with it: measured in 8 s windows,
   raw work varied by 16% between quartiles while work over kernel time
   varied by 4.5%.  The kernel is sampled between units of work, outside
   every timed interval, and each phase's wall times (set-up, timed part)
   are reported scaled by [nominal_ns / median kernel time] over that
   phase: the time the work would take on a host that runs the kernel in
   [nominal_ns]. *)

let nominal_ns = 5e6
let every_ns = 100_000_000

let kernel () =
  let h = Hashtbl.create 16 in
  let x = ref 0 in
  for j = 1 to 20_000 do
    Hashtbl.replace h (j land 4095) [ j; j ];
    x := !x + List.length (Option.value ~default:[] (Hashtbl.find_opt h ((j * 7) land 4095)))
  done;
  let a = Array.init 10_000 (fun j -> (j * 7919) land 1_048_575) in
  Array.sort compare a;
  !x + a.(0)

let samples = ref []
let last = ref 0
let spent = ref 0  (* wall ns spent sampling *)

let reset () =
  samples := [];
  last := 0;
  spent := 0

let sample () =
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Span.now_ns () in
  samples := float_of_int (t1 - t0) :: !samples;
  spent := !spent + (t1 - t0);
  last := t1

(* Samples when [every_ns] passed since the last sample. *)
let tick () = if Span.now_ns () - !last >= every_ns then sample ()

(* [n] samples in a row, around work that cannot be interrupted. *)
let samples_n n = for _ = 1 to n do sample () done

(* A wall-clock stopwatch that leaves out the time spent sampling. *)
let start () = (Span.now_ns (), !spent)
let seconds (t0, s0) = float_of_int (Span.now_ns () - t0 - (!spent - s0)) /. 1e9

(* [repeat_setup out ~what ~reps ~key f] runs the set-up [f] [reps]
   times, each after kernel samples and a heap compaction, and returns
   the last result with the median wall seconds.  Every repetition's
   [key] must agree: a set-up is a function of the seed. *)
let repeat_setup out ~what ~reps ~key f =
  let last = ref None and first_key = ref None and times = ref [] in
  for _ = 1 to reps do
    last := None;
    samples_n 10;
    (* After the samples, so every repetition starts on the same clean heap. *)
    Gc.compact ();
    let t0 = Span.now_ns () in
    let r = f () in
    times := Span.seconds_since t0 :: !times;
    (match !first_key with
    | None -> first_key := Some (key r)
    | Some k -> Out.check out (k = key r) "%s: set-up is not a function of the seed" what);
    last := Some r
  done;
  (Option.get !last, Span.median !times)

(* The factor that calibrates the wall times measured since the last
   [take]: multiply durations by it, divide rates by it. *)
let take () =
  let k = match !samples with [] -> 1. | s -> nominal_ns /. Span.median s in
  Out.info "calibration: x%.4f from %d kernel samples" k (List.length !samples);
  samples := [];
  k
