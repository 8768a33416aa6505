(* 4-ary min-heap of (time, seq, callback), hole sifts, stored as three
   parallel arrays instead of an array of event records.  [times] is an
   unboxed float array, so pushing an event allocates nothing beyond the
   caller's closure.

   Why 4-ary: a churn schedule is installed up front (17 904 events for
   5000 peers), so the heap stays ~18k deep for a whole run and every
   push and pop walks its height, 8 levels here against 15 for a binary
   heap.  Why holes: a sift carries the moving event in locals and
   writes one slot per level, so [runs] pays one [caml_modify] per level.

   Pop order does not depend on the heap's shape: (time, seq) is a total
   order (seqs are unique and NaN times are refused), so the root is
   always the one least pending event.

   The clock lives in a one-element float array, because a mutable float
   field of a record that also holds pointers is boxed on every write.
   The event loop allocates nothing of its own. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable runs : (unit -> unit) array;
  mutable size : int;
  clock : float array;
  mutable next_seq : int;
  mutable processed : int;
}

let no_run () = ()

let create () =
  {
    times = Array.make 256 0.;
    seqs = Array.make 256 0;
    runs = Array.make 256 no_run;
    size = 0;
    clock = [| 0. |];
    next_seq = 0;
    processed = 0;
  }

let now t = t.clock.(0)

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0. in
  let seqs = Array.make cap 0 in
  let runs = Array.make cap no_run in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.runs 0 runs 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.runs <- runs

(* Insert the event whose time the caller already wrote to
   [times.(size)] (a float argument would be boxed across the call).
   (time, seq) lexicographic order: earlier time first, scheduling order
   breaking ties — the FIFO guarantee for equal timestamps. *)
let insert t run =
  let times = t.times and seqs = t.seqs and runs = t.runs in
  let i = ref t.size in
  let time = times.(!i) and seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- !i + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      runs.(!i) <- runs.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  runs.(!i) <- run

(* Pop the root event and run it (with the clock advanced to its time).
   The last event fills the root's hole from the top down, moving the
   least child up one level per step.  The vacated slot is cleared so
   the heap never retains a closure past its execution. *)
let pop_run t =
  let times = t.times and seqs = t.seqs and runs = t.runs in
  let time = times.(0) and run = runs.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let lt = times.(n) and ls = seqs.(n) and lr = runs.(n) in
    let hole = ref 0 and continue = ref true in
    while !continue do
      let first = (4 * !hole) + 1 in
      if first >= n then continue := false
      else begin
        let best = ref first in
        let bt = ref times.(first) and bs = ref seqs.(first) in
        let last = if first + 3 < n then first + 3 else n - 1 in
        for c = first + 1 to last do
          let ct = times.(c) in
          if ct < !bt || (ct = !bt && seqs.(c) < !bs) then begin
            best := c;
            bt := ct;
            bs := seqs.(c)
          end
        done;
        if !bt < lt || (!bt = lt && !bs < ls) then begin
          times.(!hole) <- !bt;
          seqs.(!hole) <- !bs;
          runs.(!hole) <- runs.(!best);
          hole := !best
        end
        else continue := false
      end
    done;
    times.(!hole) <- lt;
    seqs.(!hole) <- ls;
    runs.(!hole) <- lr
  end;
  runs.(n) <- no_run;
  t.clock.(0) <- time;
  t.processed <- t.processed + 1;
  run ()

let schedule_at t ~time f =
  if Float.is_nan time then invalid_arg "Sim.schedule_at: time is NaN";
  if t.size = Array.length t.times then grow t;
  let clock = t.clock.(0) in
  t.times.(t.size) <- (if time > clock then time else clock);
  insert t f

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Sim.schedule: negative delay";
  if Float.is_nan delay then invalid_arg "Sim.schedule: delay is NaN";
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- t.clock.(0) +. delay;
  insert t f

let run_until t ~time =
  if Float.is_nan time then invalid_arg "Sim.run_until: time is NaN";
  let continue = ref true in
  while !continue && t.size > 0 do
    if t.times.(0) < time then pop_run t else continue := false
  done;
  if time > t.clock.(0) then t.clock.(0) <- time

let run t =
  while t.size > 0 do
    pop_run t
  done

let pending t = t.size
let processed t = t.processed
