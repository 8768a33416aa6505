(* Tests for Pgrid_core.Keytbl, the flat key table behind node stores.
   Its iteration order must equal stdlib Hashtbl's exactly: key
   hand-overs follow store order and each one draws from the seeded
   generator, so any difference would change every seeded result. *)

module Keytbl = Pgrid_core.Keytbl
module Key = Pgrid_keyspace.Key

type op = Replace of int * int | Remove of int | Mem of int | Find of int | Reset

let pp_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Reset -> "reset"

(* A run is a list of phases, each biased towards growing or shrinking
   the table, so one run crosses several bucket doublings and slot
   compactions.  Keys are drawn from a pool (small, or random 60-bit
   keys); values are mostly 0, the table's [empty], so the lazily
   allocated values array is exercised both before and after it exists. *)
let gen_ops pool =
  let open QCheck.Gen in
  let n = Array.length pool in
  let key = map (fun i -> pool.(i)) (int_bound (n - 1)) in
  let value = frequency [ (4, return 0); (1, int_range 1 5) ] in
  let phase =
    int_range 20 300 >>= fun len ->
    int_range 1 9 >>= fun grow ->
    list_repeat len
      (frequency
         [
           (grow, map2 (fun k v -> Replace (k, v)) key value);
           (10 - grow, map (fun k -> Remove k) key);
           (2, map (fun k -> Mem k) key);
           (2, map (fun k -> Find k) key);
         ])
    >>= fun ops ->
    map
      (fun reset -> if reset then ops @ [ Reset ] else ops)
      (frequencyl [ (9, false); (1, true) ])
  in
  map List.concat (list_size (int_range 1 6) phase)

let full_pool seed n =
  let st = Random.State.make [| seed |] in
  Array.init n (fun _ ->
      let hi = Random.State.bits st and lo = Random.State.bits st in
      ((hi lsl 30) lor lo) land ((1 lsl Key.bits) - 1))

let agrees ~initial ops =
  let ref_tbl : (int, int) Hashtbl.t = Hashtbl.create ~random:false initial in
  let tbl = Keytbl.create ~empty:0 initial in
  let contents_ref () = Hashtbl.fold (fun k v acc -> (k, v) :: acc) ref_tbl [] in
  let contents () = Keytbl.fold (fun k v acc -> ((k :> int), v) :: acc) tbl [] in
  List.iteri
    (fun step op ->
      let fail what =
        QCheck.Test.fail_reportf "step %d (%s): %s differs" step (pp_op op) what
      in
      (match op with
      | Replace (k, v) ->
        Hashtbl.replace ref_tbl k v;
        Keytbl.replace tbl (Key.of_int k) v
      | Remove k ->
        Hashtbl.remove ref_tbl k;
        Keytbl.remove tbl (Key.of_int k)
      | Mem k -> if Hashtbl.mem ref_tbl k <> Keytbl.mem tbl (Key.of_int k) then fail "mem"
      | Find k ->
        if Hashtbl.find_opt ref_tbl k <> Keytbl.find_opt tbl (Key.of_int k) then
          fail "find_opt"
      | Reset ->
        Hashtbl.reset ref_tbl;
        Keytbl.reset tbl);
      if Hashtbl.length ref_tbl <> Keytbl.length tbl then fail "length";
      if contents_ref () <> contents () then fail "fold order")
    ops;
  true

let model_test ~name ~pool =
  QCheck.Test.make ~name ~count:100
    (QCheck.make
       ~print:(fun (initial, ops) ->
         Printf.sprintf "initial %d: %s" initial (String.concat "; " (List.map pp_op ops)))
       QCheck.Gen.(pair (oneofl [ 1; 16; 32; 100 ]) (gen_ops pool)))
    (fun (initial, ops) -> agrees ~initial ops)

let qcheck_small_keys =
  model_test ~name:"keytbl matches Hashtbl order (64 keys)" ~pool:(Array.init 64 Fun.id)

let qcheck_full_keys =
  model_test ~name:"keytbl matches Hashtbl order (60-bit keys)" ~pool:(full_pool 7 400)

let test_hash_is_stdlib () =
  (* Two tables holding the same keys iterate alike only if they bucket
     alike; keys differing only in high bits catch a truncated hash. *)
  let ks = List.init 200 (fun i -> (i lsl 40) lor (i * 7919)) in
  let ref_tbl = Hashtbl.create ~random:false 16 and tbl = Keytbl.create ~empty:() 16 in
  List.iter
    (fun k ->
      Hashtbl.replace ref_tbl k ();
      Keytbl.replace tbl (Key.of_int k) ())
    ks;
  Alcotest.(check (list int))
    "iteration order" (Hashtbl.fold (fun k () acc -> k :: acc) ref_tbl [])
    (Keytbl.fold (fun k () acc -> (k :> int) :: acc) tbl [])

let test_find_and_values () =
  let tbl = Keytbl.create ~empty:[] 8 in
  let k = Key.of_int 5 and absent = Key.of_int 6 in
  Keytbl.replace tbl k [];
  Alcotest.(check (list string)) "empty value" [] (Keytbl.find tbl k);
  Keytbl.replace tbl k [ "x" ];
  Alcotest.(check (list string)) "replaced value" [ "x" ] (Keytbl.find tbl k);
  Alcotest.check_raises "find absent" Not_found (fun () -> ignore (Keytbl.find tbl absent));
  Alcotest.(check int) "one binding" 1 (Keytbl.length tbl)

let test_mutation_during_iteration () =
  let tbl = Keytbl.create ~empty:0 16 in
  for i = 0 to 9 do
    Keytbl.replace tbl (Key.of_int i) i
  done;
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s during iteration did not raise" name
    | exception Invalid_argument _ -> ()
  in
  let k = Key.of_int 3 in
  raises "replace of an existing key" (fun () ->
      Keytbl.iter (fun _ _ -> Keytbl.replace tbl k 1) tbl);
  raises "insert of a new key" (fun () ->
      Keytbl.iter (fun _ _ -> Keytbl.replace tbl (Key.of_int 99) 1) tbl);
  raises "remove" (fun () -> Keytbl.iter (fun k _ -> Keytbl.remove tbl k) tbl);
  raises "reset inside fold" (fun () -> Keytbl.fold (fun _ _ () -> Keytbl.reset tbl) tbl ());
  (* The guard is released when an iteration ends by an exception. *)
  Keytbl.remove tbl k;
  Alcotest.(check int) "table usable afterwards" 9 (Keytbl.length tbl);
  (* A node mutator on the table being traversed hits the same guard. *)
  let node = Pgrid_core.Node.create ~id:0 in
  Pgrid_core.Node.ensure_key node k;
  raises "Node.remove_key" (fun () ->
      Keytbl.iter (fun k _ -> Pgrid_core.Node.remove_key node k) node.Pgrid_core.Node.store)

let suite =
  [
    Alcotest.test_case "hash is Hashtbl.hash" `Quick test_hash_is_stdlib;
    Alcotest.test_case "find and values" `Quick test_find_and_values;
    Alcotest.test_case "mutation during iteration raises" `Quick
      test_mutation_during_iteration;
    QCheck_alcotest.to_alcotest qcheck_small_keys;
    QCheck_alcotest.to_alcotest qcheck_full_keys;
  ]
