(* The construction loop shared by every workload that builds an
   overlay: [Round.run_with_keys] re-stated on the public [Engine]
   loop, so the benchmark can time each [Engine.interact] call and open
   spans around each phase.  It consumes the RNG exactly as [Round]
   does; comparing [summary] with [of_round] is the gate that proves it. *)

module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Round = Pgrid_construction.Round
module Engine = Pgrid_construction.Engine
module Reference = Pgrid_partition.Reference
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Deviation = Pgrid_core.Deviation

type result = {
  overlay : Overlay.t;
  counters : Engine.counters;
  rounds : int;
  replication_keys : int;
  deviation : float;
  latencies_ns : int array;  (* one per [Engine.interact] call, in call order *)
}

let engine_config (p : Round.params) =
  {
    Engine.n_min = p.Round.n_min;
    d_max = p.Round.d_max;
    max_fruitless = p.Round.max_fruitless;
    refer_hops = p.Round.refer_hops;
    mode = (match p.Round.mode with Round.Theory -> Engine.Theory | Round.Heuristic -> Engine.Heuristic);
  }

(* Sorted distinct keys of the whole population. *)
let distinct_keys assignments =
  let flat = Array.concat (Array.to_list assignments) in
  Array.sort Key.compare flat;
  let out = ref [] in
  Array.iteri
    (fun i k -> if i = 0 || Key.compare k flat.(i - 1) <> 0 then out := k :: !out)
    flat;
  Array.of_list (List.rev !out)

(* Interaction class, read off the engine's counter deltas. *)
let classify (b : Engine.counters) (a : Engine.counters) =
  if a.Engine.splits > b.Engine.splits then "construction.split"
  else if a.Engine.follows > b.Engine.follows then "construction.follow"
  else if a.Engine.merges > b.Engine.merges then "construction.replicate"
  else "construction.refer_only"

(* [tick] runs between interactions, outside their timing. *)
let run ?tr ?(tick = ignore) rng (params : Round.params) ~assignments =
  let overlay = Overlay.create rng ~n:params.Round.peers in
  Array.iteri (fun i own -> Array.iter (Node.ensure_key (Overlay.node overlay i)) own) assignments;
  let replication_keys =
    Span.with_ tr "construction.replication" (fun () ->
        let copies = ref 0 in
        let n = params.Round.peers in
        Array.iteri
          (fun i own ->
            let targets =
              Rng.sample_without_replacement rng ~k:(min params.Round.n_min (n - 1)) ~n:(n - 1)
            in
            Array.iter
              (fun raw ->
                let nj = Overlay.node overlay (if raw >= i then raw + 1 else raw) in
                Array.iter
                  (fun k ->
                    Node.ensure_key nj k;
                    incr copies)
                  own)
              targets)
          assignments;
        !copies)
  in
  let engine = Engine.create rng (engine_config params) overlay Engine.no_hooks in
  let order = Array.init params.Round.peers Fun.id in
  let lat = ref (Array.make (64 * params.Round.peers) 0) and nlat = ref 0 in
  let rounds = ref 0 in
  while Engine.any_active engine && !rounds < params.Round.max_rounds do
    incr rounds;
    Rng.shuffle rng order;
    Array.iter
      (fun i ->
        if Engine.is_active engine i then begin
          if !nlat = Array.length !lat then begin
            let b = Array.make (2 * !nlat) 0 in
            Array.blit !lat 0 b 0 !nlat;
            lat := b
          end;
          match tr with
          | None ->
            tick ();
            let t0 = Span.now_ns () in
            Engine.interact engine i;
            !lat.(!nlat) <- Span.now_ns () - t0;
            incr nlat
          | Some t ->
            let before = Engine.counters engine in
            let id = Span.enter t "construction.interact" in
            Engine.interact engine i;
            Span.leave t id;
            Span.rename t id (classify before (Engine.counters engine))
        end)
      order
  done;
  let reference =
    Span.with_ tr "partition.reference" (fun () ->
        Reference.compute ~keys:(distinct_keys assignments) ~peers:params.Round.peers
          ~d_max:params.Round.d_max ~n_min:params.Round.n_min)
  in
  let deviation =
    Span.with_ tr "core.deviation" (fun () -> Deviation.of_overlay ~reference overlay)
  in
  {
    overlay;
    counters = Engine.counters engine;
    rounds = !rounds;
    replication_keys;
    deviation;
    latencies_ns = Array.sub !lat 0 !nlat;
  }

(* What must agree between the replay and [Round.run_with_keys]. *)
type summary = {
  interactions : int;
  keys_moved : int;
  splits : int;
  follows : int;
  merges : int;
  refer_steps : int;
  rounds : int;
  replication_keys : int;
  deviation : float;
}

let of_round (o : Round.outcome) =
  {
    interactions = o.Round.interactions;
    keys_moved = o.Round.keys_moved;
    splits = o.Round.splits;
    follows = o.Round.follows;
    merges = o.Round.merges;
    refer_steps = o.Round.refer_steps;
    rounds = o.Round.rounds;
    replication_keys = o.Round.replication_keys;
    deviation = o.Round.deviation;
  }

let summary (r : result) =
  let c = r.counters in
  {
    interactions = c.Engine.interactions;
    keys_moved = c.Engine.keys_moved;
    splits = c.Engine.splits;
    follows = c.Engine.follows;
    merges = c.Engine.merges;
    refer_steps = c.Engine.refer_steps;
    rounds = r.rounds;
    replication_keys = r.replication_keys;
    deviation = r.deviation;
  }

let pp_summary s =
  Printf.sprintf
    "interactions=%d keys_moved=%d splits=%d follows=%d merges=%d refer_steps=%d rounds=%d \
     replication_keys=%d deviation=%.17g"
    s.interactions s.keys_moved s.splits s.follows s.merges s.refer_steps s.rounds
    s.replication_keys s.deviation
