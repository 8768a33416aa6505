module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path

type id = int

type meta = { mutable version : int; mutable dead : bool; mutable stamp : float }

type liveness = { mutable offline : int }

type t = {
  id : id;
  mutable path : Path.t;
  mutable refs : Intset.t array;
  store : string list Keytbl.t;
  vers : meta Keytbl.t;
  replicas : Intset.t;
  mutable online : bool;
  live : liveness;
  mutable zero_keys : int;
}

(* The sidecar's [empty] value: never stored by the functions below, so
   a table of real entries always carries its values array. *)
let no_meta = { version = 0; dead = false; stamp = 0. }

let liveness () = { offline = 0 }

let create_in live ~id =
  {
    id;
    path = Path.root;
    refs = Array.init 8 (fun _ -> Intset.create ());
    store = Keytbl.create ~empty:[] 32;
    vers = Keytbl.create ~empty:no_meta 8;
    replicas = Intset.create ();
    online = true;
    live;
    zero_keys = 0;
  }

let create ~id = create_in (liveness ()) ~id

let set_online t v =
  if t.online <> v then begin
    t.online <- v;
    t.live.offline <- (if v then t.live.offline - 1 else t.live.offline + 1)
  end

(* Version metadata is a sidecar: the legacy store never reads it, so
   maintaining it costs nothing observable (and no RNG) unless a
   reconciliation-aware caller asks.  A key with no entry is implicitly
   (version 0, alive) — the state of every key written before versioning
   existed. *)

let meta t key = Keytbl.find_opt t.vers key

let note_write t key ~version ~stamp =
  match Keytbl.find_opt t.vers key with
  | Some m ->
    m.version <- version;
    m.dead <- false;
    m.stamp <- stamp
  | None -> Keytbl.replace t.vers key { version; dead = false; stamp }

let note_delete t key ~version ~stamp =
  match Keytbl.find_opt t.vers key with
  | Some m ->
    m.version <- version;
    m.dead <- true;
    m.stamp <- stamp
  | None -> Keytbl.replace t.vers key { version; dead = true; stamp }

let drop_meta t key = Keytbl.remove t.vers key

let meta_fold t f acc = Keytbl.fold f t.vers acc

let tombstone_count t =
  Keytbl.fold (fun _ m acc -> if m.dead then acc + 1 else acc) t.vers 0

(* zero_keys counts the distinct stored keys whose bit at the node's
   current path level is 0; every store mutation below keeps it exact so
   the construction engine never has to re-scan the store to estimate
   load fractions. *)
let level_bit_is_zero t key =
  let level = Path.length t.path in
  level < Key.bits && Key.bit key level = 0

let note_added t key = if level_bit_is_zero t key then t.zero_keys <- t.zero_keys + 1
let note_removed t key = if level_bit_is_zero t key then t.zero_keys <- t.zero_keys - 1

(* Posting lists are kept sorted and deduplicated, so insertion and
   removal are each a single pass that stops at the payload's sorted
   position — the previous unordered representation walked the whole
   list once to test membership ([List.mem]) and a second time to
   rebuild it ([List.filter]), per mutation. *)

(* [posting_add p sorted] is [Some sorted'] with [p] spliced in at its
   sorted position, or [None] when [p] is already present. *)
let rec posting_add p = function
  | [] -> Some [ p ]
  | q :: rest as l ->
    let c = String.compare p q in
    if c = 0 then None
    else if c < 0 then Some (p :: l)
    else Option.map (fun r -> q :: r) (posting_add p rest)

(* [posting_remove p sorted] is [Some sorted'] without [p], or [None]
   when [p] is absent; the sorted order lets the scan stop early. *)
let rec posting_remove p = function
  | [] -> None
  | q :: rest ->
    let c = String.compare p q in
    if c = 0 then Some rest
    else if c < 0 then None
    else Option.map (fun r -> q :: r) (posting_remove p rest)

let insert_new t key payload =
  match Keytbl.find_opt t.store key with
  | None ->
    Keytbl.replace t.store key [ payload ];
    note_added t key;
    true
  | Some existing -> (
    match posting_add payload existing with
    | None -> false
    | Some updated ->
      Keytbl.replace t.store key updated;
      true)

let insert t key payload = ignore (insert_new t key payload)

(* Removing a payload never drops the key itself: payload-less keys are
   first-class (construction seeds every key with an empty posting list),
   so presence of the key and presence of a posting are independent.
   Whole-key removal goes through [remove_key]. *)
let remove_payload t key payload =
  match Keytbl.find_opt t.store key with
  | None -> false
  | Some payloads -> (
    match posting_remove payload payloads with
    | None -> false
    | Some updated ->
      Keytbl.replace t.store key updated;
      true)

let ensure_key t key =
  if not (Keytbl.mem t.store key) then begin
    Keytbl.replace t.store key [];
    note_added t key
  end

let remove_key t key =
  let before = Keytbl.length t.store in
  Keytbl.remove t.store key;
  if Keytbl.length t.store < before then note_removed t key

let clear_store t =
  Keytbl.reset t.store;
  (* A crash wipes the disk, tombstones included: durability of deletes
     comes from replication, not from any single node's sidecar. *)
  Keytbl.reset t.vers;
  t.zero_keys <- 0

let has_key t key = Keytbl.mem t.store key
let lookup t key = Option.value ~default:[] (Keytbl.find_opt t.store key)
let keys t = Keytbl.fold (fun k _ acc -> k :: acc) t.store []
let key_count t = Keytbl.length t.store
let zero_count t = t.zero_keys

let recount_zeros t =
  let level = Path.length t.path in
  t.zero_keys <-
    (if level >= Key.bits then 0
     else
       Keytbl.fold
         (fun k _ acc -> if Key.bit k level = 0 then acc + 1 else acc)
         t.store 0)

let set_path t path =
  if not (Path.equal t.path path) then begin
    t.path <- path;
    recount_zeros t
  end

let ensure_capacity t level =
  let n = Array.length t.refs in
  if level >= n then begin
    let grown =
      Array.init
        (max (level + 1) (2 * n))
        (fun i -> if i < n then t.refs.(i) else Intset.create ())
    in
    t.refs <- grown
  end

let add_ref t ~level peer =
  if level < 0 then invalid_arg "Node.add_ref: negative level";
  ensure_capacity t level;
  if peer <> t.id then Intset.add t.refs.(level) peer

let in_range t level = level >= 0 && level < Array.length t.refs
let refs_at t ~level = if in_range t level then Intset.elements t.refs.(level) else []
let refs_count t ~level = if in_range t level then Intset.cardinal t.refs.(level) else 0
let refs_array t ~level = if in_range t level then Intset.to_array t.refs.(level) else [||]

let refs_iter t ~level f =
  if in_range t level then Intset.iter f t.refs.(level)

let has_ref t ~level peer = in_range t level && Intset.mem t.refs.(level) peer
let remove_ref t ~level peer = if in_range t level then Intset.remove t.refs.(level) peer

let set_refs t ~level peers =
  if level < 0 then invalid_arg "Node.set_refs: negative level";
  ensure_capacity t level;
  Intset.clear t.refs.(level);
  List.iter (fun p -> if p <> t.id then Intset.add t.refs.(level) p) peers

let union_refs t ~level ~from =
  if in_range from level && not (Intset.is_empty from.refs.(level)) then begin
    ensure_capacity t level;
    Intset.union_into ~into:t.refs.(level) from.refs.(level);
    Intset.remove t.refs.(level) t.id
  end

let reset_refs t ~capacity =
  t.refs <- Array.init (max 8 capacity) (fun _ -> Intset.create ())

let add_replica t peer = if peer <> t.id then Intset.add t.replicas peer

let absorb_replicas t src =
  Intset.union_into ~into:t.replicas src;
  Intset.remove t.replicas t.id

let replica_list t = Intset.elements t.replicas
let replica_count t = Intset.cardinal t.replicas
let clear_replicas t = Intset.clear t.replicas

let drop_keys_outside t path =
  let doomed =
    Keytbl.fold
      (fun k _ acc -> if Path.matches_key path k then acc else k :: acc)
      t.store []
  in
  List.iter (remove_key t) doomed;
  let stale_meta =
    Keytbl.fold
      (fun k _ acc -> if Path.matches_key path k then acc else k :: acc)
      t.vers []
  in
  List.iter (drop_meta t) stale_meta;
  List.length doomed

let responsible_for t key = Path.matches_key t.path key
