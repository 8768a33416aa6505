(* Flat chained hash table over Key.t.  Buckets hold the index of their
   first slot (-1 when empty); slot [s] holds a key, the index of the
   next slot of its chain (-1 at the end) and, once any non-[empty]
   value has been stored, a value.  Free slots are chained through
   [next] as well.

   Every decision that fixes the iteration order copies stdlib
   [Hashtbl] (unrandomized): the bucket function, insertion at the chain
   head, the [size > 2 * nb] doubling with in-order relinking, in-place
   replacement and [reset] to the initial bucket count.  Slot numbers
   play no part in that order, so slots are recycled and compacted
   freely. *)

module Key = Pgrid_keyspace.Key

type 'a t = {
  mutable heads : int array;
  mutable keys : Key.t array;
  mutable next : int array;
  mutable vals : 'a array;  (** [[||]] while every value is [empty] *)
  empty : 'a;
  initial : int;
  mutable size : int;
  mutable used : int;  (** slots [0, used) have been handed out *)
  mutable free : int;  (** head of the free-slot chain, -1 if none *)
  mutable iterating : int;
}

let min_slots = 8

let rec power_2_above x n =
  if x >= n || x * 2 > Sys.max_array_length then x else power_2_above (x * 2) n

let create ~empty n =
  let initial = power_2_above 16 n in
  {
    heads = Array.make initial (-1);
    keys = [||];
    next = [||];
    vals = [||];
    empty;
    initial;
    size = 0;
    used = 0;
    free = -1;
    iterating = 0;
  }

let length t = t.size
let bucket t (k : Key.t) = Hashtbl.hash (k :> int) land (Array.length t.heads - 1)

let rec scan (keys : Key.t array) next (k : Key.t) s =
  if s < 0 || (keys.(s) :> int) = (k :> int) then s else scan keys next k next.(s)

let slot t k = scan t.keys t.next k t.heads.(bucket t k)
let mem t k = slot t k >= 0
let value t s = if Array.length t.vals = 0 then t.empty else t.vals.(s)

let find_opt t k =
  let s = slot t k in
  if s < 0 then None else Some (value t s)

let find t k =
  let s = slot t k in
  if s < 0 then raise Not_found else value t s

let check_idle t fn =
  if t.iterating > 0 then invalid_arg ("Keytbl." ^ fn ^ ": table is being iterated")

(* Copy the live slots into arrays of [cap] slots, renumbered in
   iteration order (so a compacted table is walked front to back). *)
let relocate t cap =
  let keys = Array.make cap Key.zero and next = Array.make cap (-1) in
  let with_vals = Array.length t.vals > 0 in
  let vals = if with_vals then Array.make cap t.empty else [||] in
  let d = ref 0 in
  for b = 0 to Array.length t.heads - 1 do
    let s = ref t.heads.(b) in
    if !s >= 0 then t.heads.(b) <- !d;
    while !s >= 0 do
      keys.(!d) <- t.keys.(!s);
      if with_vals then vals.(!d) <- t.vals.(!s);
      let n = t.next.(!s) in
      if n >= 0 then next.(!d) <- !d + 1;
      incr d;
      s := n
    done
  done;
  t.keys <- keys;
  t.next <- next;
  t.vals <- vals;
  t.used <- t.size;
  t.free <- -1

let grow_slots t =
  let cap = Array.length t.keys in
  let ncap = max min_slots (2 * cap) in
  let keys = Array.make ncap Key.zero and next = Array.make ncap (-1) in
  Array.blit t.keys 0 keys 0 cap;
  Array.blit t.next 0 next 0 cap;
  t.keys <- keys;
  t.next <- next;
  if Array.length t.vals > 0 then begin
    let vals = Array.make ncap t.empty in
    Array.blit t.vals 0 vals 0 cap;
    t.vals <- vals
  end

let alloc_slot t =
  if t.free >= 0 then begin
    let s = t.free in
    t.free <- t.next.(s);
    s
  end
  else begin
    if t.used = Array.length t.keys then grow_slots t;
    let s = t.used in
    t.used <- s + 1;
    s
  end

(* Double the bucket count.  Old bucket [b] splits into new buckets [b]
   and [b + nb], each keeping the old chain's relative order — the
   stdlib's in-place resize does exactly this. *)
let resize t =
  let nb = Array.length t.heads in
  let heads = Array.make (2 * nb) (-1) in
  for b = 0 to nb - 1 do
    let s = ref t.heads.(b) and lo = ref (-1) and hi = ref (-1) in
    while !s >= 0 do
      let n = t.next.(!s) in
      let nidx = Hashtbl.hash (t.keys.(!s) :> int) land ((2 * nb) - 1) in
      let tail = if nidx = b then lo else hi in
      if !tail < 0 then heads.(nidx) <- !s else t.next.(!tail) <- !s;
      tail := !s;
      s := n
    done;
    if !lo >= 0 then t.next.(!lo) <- -1;
    if !hi >= 0 then t.next.(!hi) <- -1
  done;
  t.heads <- heads

let set_value t s v =
  if Array.length t.vals > 0 then t.vals.(s) <- v
  else if v != t.empty then begin
    t.vals <- Array.make (Array.length t.keys) t.empty;
    t.vals.(s) <- v
  end

let replace t k v =
  check_idle t "replace";
  let b = bucket t k in
  let s = scan t.keys t.next k t.heads.(b) in
  if s >= 0 then set_value t s v
  else begin
    let s = alloc_slot t in
    t.keys.(s) <- k;
    t.next.(s) <- t.heads.(b);
    t.heads.(b) <- s;
    set_value t s v;
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.heads then resize t
  end

let remove t k =
  check_idle t "remove";
  let b = bucket t k in
  let rec unlink prev s =
    if s >= 0 then
      if (t.keys.(s) :> int) = (k :> int) then begin
        let n = t.next.(s) in
        if prev < 0 then t.heads.(b) <- n else t.next.(prev) <- n;
        t.next.(s) <- t.free;
        t.free <- s;
        if Array.length t.vals > 0 then t.vals.(s) <- t.empty;
        t.size <- t.size - 1;
        let cap = Array.length t.keys in
        if cap > min_slots && 4 * t.size < cap then relocate t (max min_slots t.size)
      end
      else unlink s t.next.(s)
  in
  unlink (-1) t.heads.(b)

let reset t =
  check_idle t "reset";
  if Array.length t.heads = t.initial then Array.fill t.heads 0 t.initial (-1)
  else t.heads <- Array.make t.initial (-1);
  t.keys <- [||];
  t.next <- [||];
  t.vals <- [||];
  t.size <- 0;
  t.used <- 0;
  t.free <- -1

let walk f t =
  for b = 0 to Array.length t.heads - 1 do
    let s = ref t.heads.(b) in
    while !s >= 0 do
      f t.keys.(!s) (value t !s);
      s := t.next.(!s)
    done
  done

let iter f t =
  t.iterating <- t.iterating + 1;
  match walk f t with
  | () -> t.iterating <- t.iterating - 1
  | exception e ->
    t.iterating <- t.iterating - 1;
    raise e

let fold f t acc =
  let acc = ref acc in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
