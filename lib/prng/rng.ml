(* The xoshiro256 state lives in 32 bytes, read and written with the
   unboxed native-endian int64 accessors: a draw allocates nothing and
   writes no boxed int64 into the heap.  Words 0/8/16/24 are s0..s3. *)
type t = Bytes.t

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 s2;
  Bytes.set_int64_ne t 24 s3;
  t

(* splitmix64 step, used only to expand seeds into full xoshiro states. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Expands [seed] into a full state; xoshiro must not start from the
   all-zero state, and splitmix64 outputs are zero only for one specific
   input, so [fallback] stands in for that case. *)
let expand seed ~fallback =
  let st = ref seed in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then fallback ()
  else of_words s0 s1 s2 s3

let create ~seed = expand (Int64.of_int seed) ~fallback:(fun () -> of_words 1L 2L 3L 4L)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 in
  let s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 in
  let s3 = Bytes.get_int64_ne t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 (logxor s2 tmp);
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let bits64 t = next t

let split t = expand (next t) ~fallback:(fun () -> of_words 5L 6L 7L 8L)

(* Inlined so the result stays unboxed at the call site. *)
let[@inline] float t =
  (* Top 53 bits give a uniform dyadic rational in [0, 1). *)
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

(* Rejection sampling over the smallest covering power of two keeps the
   draw unbiased for every bound.  Top-level so [int] builds no closure. *)
let rec mask_of n m = if m >= n - 1 then m else mask_of n ((m lsl 1) lor 1)

let rec draw t n mask =
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) land mask in
  if v < n then v else draw t n mask

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  if n = 1 then 0 else draw t n (mask_of n 1)

let bool t = Int64.logand (next t) 1L = 1L
let bernoulli t p = float t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t ~k ~n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  if 2 * k >= n then begin
    (* Dense case: shuffle a full index array and take a prefix. *)
    let all = Array.init n (fun i -> i) in
    shuffle t all;
    Array.sub all 0 k
  end
  else begin
    (* Sparse case: rejection into a hash set avoids O(n) work. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
