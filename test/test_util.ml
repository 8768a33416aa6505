(* Small shared helpers for the test suite. *)

(* [contains haystack needle]: naive substring search (test-sized inputs). *)
let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let rec at i = if i + nn > hn then false else String.sub haystack i nn = needle || at (i + 1) in
    at 0
  end

(* Minor words allocated by [f ()] beyond the cost of measuring. *)
let minor_words_of f =
  let measure g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  measure f -. measure ignore
