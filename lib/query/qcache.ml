module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

(* Multiplicative (Fibonacci) hashing of a non-negative int key into a
   table of 2^(int_size - shift) cells: the high bits of the product. *)
let hash k shift = (k * 0x2545F4914F6CDD1D) lsr shift

(* Index of the highest set bit of [mask > 0], by binary search. *)
let top_bit mask =
  let rec go m lo width =
    if width = 0 then lo
    else if m lsr width <> 0 then go (m lsr width) (lo + width) (width / 2)
    else go m lo (width / 2)
  in
  go mask 0 32

let shift_for cells = Sys.int_size - top_bit cells

(* Smallest power of two >= 2n: open-addressing tables stay at most half
   full, so linear probes stay short. *)
let cells_for n =
  let rec go c = if c >= 2 * n then c else go (2 * c) in
  go 2

(* An LRU of int keys in one fixed-layout table.  Slot [s] owns the ints
   [slots.(s*width) ..]: its key, the previous and next slot on the
   recency list (-1 at either end) and [width - 3] int fields; [vals.(s)]
   holds its one boxed value.  An open-addressing index (linear probing,
   backward-shift deletion, so no tombstones) maps a key to its slot.
   Slot arrays start small and double up to [cap]; freed slots are
   threaded through their next link.  Every decision — hit, miss,
   eviction victim — follows the recency list alone, never the index's
   layout, so the table behaves exactly like a hash table plus an
   intrusive doubly-linked list. *)
module Lru = struct
  type 'a t = {
    cap : int;
    width : int;
    fill : 'a;  (* the value of a slot that holds none *)
    mutable slots : int array;
    mutable vals : 'a array;
    mutable alloc : int;  (* slots allocated *)
    mutable used : int;  (* slots [0, used) have been handed out *)
    mutable free : int;  (* free-list head, -1 when empty *)
    mutable length : int;
    mutable head : int;  (* most recently used, -1 when empty *)
    mutable tail : int;  (* eviction candidate *)
    mutable index : int array;  (* slot or -1, power-of-two length *)
    mutable shift : int;
    mutable victim : int;  (* key evicted by the last [put], or -1 *)
  }

  let initial_slots = 8

  let make ~width ~cap ~fill =
    let alloc = min cap initial_slots in
    let cells = cells_for alloc in
    {
      cap;
      width;
      fill;
      slots = Array.make (alloc * width) 0;
      vals = Array.make alloc fill;
      alloc;
      used = 0;
      free = -1;
      length = 0;
      head = -1;
      tail = -1;
      index = Array.make cells (-1);
      shift = shift_for cells;
      victim = -1;
    }

  let create ~fields ~cap fill =
    if cap < 1 then invalid_arg "Qcache.Lru.create: cap must be >= 1";
    if fields < 0 then invalid_arg "Qcache.Lru.create: fields must be >= 0";
    make ~width:(fields + 3) ~cap ~fill

  let length t = t.length
  let victim t = t.victim
  let key t s = t.slots.(s * t.width)
  let prev t s = t.slots.((s * t.width) + 1)
  let next t s = t.slots.((s * t.width) + 2)
  let set_prev t s p = t.slots.((s * t.width) + 1) <- p
  let set_next t s n = t.slots.((s * t.width) + 2) <- n

  let check_field t i =
    if i < 0 || i >= t.width - 3 then invalid_arg "Qcache.Lru: no such field"

  let field t s i =
    check_field t i;
    t.slots.((s * t.width) + 3 + i)

  let set_field t s i v =
    check_field t i;
    t.slots.((s * t.width) + 3 + i) <- v

  let value t s = t.vals.(s)
  let set_value t s v = t.vals.(s) <- v

  (* Index cell holding [k], or -1. *)
  let rec find_cell t k c =
    let s = t.index.(c) in
    if s < 0 then -1
    else if key t s = k then c
    else find_cell t k ((c + 1) land (Array.length t.index - 1))

  let cell_of t k = find_cell t k (hash k t.shift)

  let rec free_cell t c =
    if t.index.(c) < 0 then c else free_cell t ((c + 1) land (Array.length t.index - 1))

  let index_add t s = t.index.(free_cell t (hash (key t s) t.shift)) <- s

  (* Backward-shift deletion: later cells of the probe run move into the
     hole unless their home cell lies cyclically in (hole, j]. *)
  let index_delete t cell =
    let mask = Array.length t.index - 1 in
    let rec go hole j =
      let j = (j + 1) land mask in
      let s = t.index.(j) in
      if s < 0 then t.index.(hole) <- -1
      else begin
        let home = hash (key t s) t.shift in
        let stays = if hole <= j then hole < home && home <= j else hole < home || home <= j in
        if stays then go hole j
        else begin
          t.index.(hole) <- s;
          go j j
        end
      end
    in
    go cell cell

  let unlink t s =
    let p = prev t s and n = next t s in
    if p >= 0 then set_next t p n else t.head <- n;
    if n >= 0 then set_prev t n p else t.tail <- p

  let push_front t s =
    set_prev t s (-1);
    set_next t s t.head;
    if t.head >= 0 then set_prev t t.head s else t.tail <- s;
    t.head <- s

  let bump t s =
    if s <> t.head then begin
      unlink t s;
      push_front t s
    end

  let find t k =
    let c = cell_of t k in
    if c < 0 then -1
    else begin
      let s = t.index.(c) in
      bump t s;
      s
    end

  let mem t k = cell_of t k >= 0

  let remove t k =
    let c = cell_of t k in
    if c >= 0 then begin
      let s = t.index.(c) in
      index_delete t c;
      unlink t s;
      t.vals.(s) <- t.fill;
      set_next t s t.free;
      t.free <- s;
      t.length <- t.length - 1
    end

  let grow t =
    let alloc = min t.cap (2 * t.alloc) in
    let slots = Array.make (alloc * t.width) 0 in
    Array.blit t.slots 0 slots 0 (t.alloc * t.width);
    let vals = Array.make alloc t.fill in
    Array.blit t.vals 0 vals 0 t.alloc;
    let cells = cells_for alloc in
    t.slots <- slots;
    t.vals <- vals;
    t.alloc <- alloc;
    t.index <- Array.make cells (-1);
    t.shift <- shift_for cells;
    let rec reindex s =
      if s >= 0 then begin
        index_add t s;
        reindex (next t s)
      end
    in
    reindex t.head

  (* Detach the least recently used slot for reuse; its fields and value
     stay readable until the caller overwrites them. *)
  let evict t =
    let s = t.tail in
    t.victim <- key t s;
    index_delete t (cell_of t t.victim);
    unlink t s;
    t.length <- t.length - 1;
    s

  let take_slot t =
    if t.free >= 0 then begin
      let s = t.free in
      t.free <- next t s;
      s
    end
    else if t.used < t.alloc || t.alloc < t.cap then begin
      if t.used = t.alloc then grow t;
      let s = t.used in
      t.used <- s + 1;
      s
    end
    else evict t

  let put t k =
    if k < 0 then invalid_arg "Qcache.Lru.put: keys must be >= 0";
    t.victim <- -1;
    let c = cell_of t k in
    if c >= 0 then begin
      let s = t.index.(c) in
      bump t s;
      s
    end
    else begin
      let s = take_slot t in
      t.slots.(s * t.width) <- k;
      index_add t s;
      push_front t s;
      t.length <- t.length + 1;
      s
    end

  let clear t =
    let fresh = make ~width:t.width ~cap:t.cap ~fill:t.fill in
    t.slots <- fresh.slots;
    t.vals <- fresh.vals;
    t.alloc <- fresh.alloc;
    t.used <- 0;
    t.free <- -1;
    t.length <- 0;
    t.head <- -1;
    t.tail <- -1;
    t.index <- fresh.index;
    t.shift <- fresh.shift;
    t.victim <- -1
end

(* Validity of an entry is generational, so invalidation never walks the
   caches: bumping one counter retires every entry that depends on it.
   An entry records, at insert time,
     - the generation of the peer it points at ([Peer_changed] bumps it),
     - the global epoch ([Flush] bumps it),
     - for results, the write generation of its key ([Key_written]).
   Route slots are keyed by the {!Path.code} of a known responsible
   peer's full path; result slots by the key's raw int.  The field
   numbers below name each slot's int fields. *)
let r_target = 0
let r_gen = 1
let r_epoch = 2
let route_fields = 3
let x_target = 0
let x_present = 1
let x_gen = 2
let x_wgen = 3
let x_epoch = 4
let result_fields = 5

type peer_cache = {
  routes : unit Lru.t;
  results : string list Lru.t;  (* value: the cached payloads *)
  mutable lens : int;  (* bitmask of route-prefix lengths present *)
  len_count : int array;  (* live route entries per prefix length *)
}

type stats = {
  route_hits : int;
  result_hits : int;
  misses : int;
  stale : int;
  invalidations : int;
  evictions : int;
  route_entries : int;
  result_entries : int;
}

type counters = {
  mutable c_route_hits : int;
  mutable c_result_hits : int;
  mutable c_misses : int;
  mutable c_stale : int;
  mutable c_invalidations : int;
  mutable c_evictions : int;
}

type t = {
  overlay : Overlay.t;
  telemetry : Telemetry.t;
  route_cap : int;
  result_cap : int;
  mutable peers : peer_cache option array;  (* by peer id, grown on demand *)
  mutable gen : int array;  (* per-peer generation, grown on demand *)
  mutable epoch : int;
  wgen : unit Lru.t;
      (* per-key write generation in field 0; uncapped, so it never evicts
         and recency is irrelevant *)
  c : counters;
}

let gen_of t id = if id < Array.length t.gen then t.gen.(id) else 0

let bump t id =
  if id >= Array.length t.gen then begin
    let grown = Array.make (max (id + 1) ((2 * Array.length t.gen) + 1)) 0 in
    Array.blit t.gen 0 grown 0 (Array.length t.gen);
    t.gen <- grown
  end;
  t.gen.(id) <- t.gen.(id) + 1

let key_int (k : Key.t) = (k :> int)

let wgen_of t k =
  let s = Lru.find t.wgen (key_int k) in
  if s < 0 then 0 else Lru.field t.wgen s 0

let emit_invalidate t ~peer ~reason =
  if Telemetry.active t.telemetry then
    Telemetry.emit t.telemetry (Event.Cache_invalidate { peer; reason })

let invalidate_peer ?(reason = "peer_changed") t id =
  bump t id;
  t.c.c_invalidations <- t.c.c_invalidations + 1;
  emit_invalidate t ~peer:id ~reason

let invalidate_key ?(reason = "write") t k =
  let gen = wgen_of t k in
  Lru.set_field t.wgen (Lru.put t.wgen (key_int k)) 0 (gen + 1);
  t.c.c_invalidations <- t.c.c_invalidations + 1;
  emit_invalidate t ~peer:(-1) ~reason

let flush ?(reason = "flush") t =
  (* The epoch bump retires every entry at once; the write generations
     only existed to compare against live entries, so they can go too. *)
  t.epoch <- t.epoch + 1;
  Lru.clear t.wgen;
  t.c.c_invalidations <- t.c.c_invalidations + 1;
  emit_invalidate t ~peer:(-1) ~reason

let invalidate t = function
  | Overlay.Peer_changed id -> invalidate_peer t id
  | Overlay.Key_written k -> invalidate_key t k
  | Overlay.Flush -> flush t

let observe t = function
  | Event.Migrate { peer; _ } -> invalidate_peer ~reason:"migrate" t peer
  | Event.Ref_evict { target; _ } -> invalidate_peer ~reason:"ref_evict" t target
  | Event.Balance_split _ -> flush ~reason:"balance_split" t
  | Event.Retract _ -> flush ~reason:"retract" t
  | Event.Partition_heal _ -> flush ~reason:"partition_heal" t
  | _ -> ()

let create ?(telemetry = Pgrid_telemetry.Global.get ()) ?(route_cap = 512)
    ?(result_cap = 512) overlay =
  if route_cap < 1 || result_cap < 1 then
    invalid_arg "Qcache.create: capacities must be >= 1";
  let t =
    {
      overlay;
      telemetry;
      route_cap;
      result_cap;
      peers = Array.make (Overlay.size overlay) None;
      gen = Array.make (Overlay.size overlay) 0;
      epoch = 0;
      wgen = Lru.create ~fields:1 ~cap:max_int ();
      c =
        {
          c_route_hits = 0;
          c_result_hits = 0;
          c_misses = 0;
          c_stale = 0;
          c_invalidations = 0;
          c_evictions = 0;
        };
    }
  in
  Overlay.subscribe overlay (fun change -> invalidate t change);
  t

(* Peer ids index an array, so an id outside the overlay is rejected here
   rather than failing out of bounds inside the probe. *)
let check_peer t ~fn at =
  if at < 0 || at >= Overlay.size t.overlay then
    invalid_arg (Printf.sprintf "Qcache.%s: peer %d is not in the overlay" fn at)

let peer_cache t id =
  if id >= Array.length t.peers then begin
    let grown = Array.make (max (id + 1) (Overlay.size t.overlay)) None in
    Array.blit t.peers 0 grown 0 (Array.length t.peers);
    t.peers <- grown
  end;
  match t.peers.(id) with
  | Some pc -> pc
  | None ->
    let pc =
      {
        routes = Lru.create ~fields:route_fields ~cap:t.route_cap ();
        results = Lru.create ~fields:result_fields ~cap:t.result_cap [];
        lens = 0;
        len_count = Array.make (Key.bits + 1) 0;
      }
    in
    t.peers.(id) <- Some pc;
    pc

let len_incr pc l =
  pc.len_count.(l) <- pc.len_count.(l) + 1;
  pc.lens <- pc.lens lor (1 lsl l)

let len_decr pc l =
  pc.len_count.(l) <- pc.len_count.(l) - 1;
  if pc.len_count.(l) = 0 then pc.lens <- pc.lens land lnot (1 lsl l)

type probe =
  | Hit_result of { target : int; present : bool; payloads : string list }
  | Hit_route of int
  | Stale of int
  | Miss

(* Validation on use is the correctness backstop: a cached responsible
   peer is served only if it is online and its path still matches the
   key — exactly the criterion a routed search terminates on — so even
   an entry that slipped past every invalidation event can redirect the
   lookup but never falsify its answer. *)
let target_valid t target key =
  let n = Overlay.node t.overlay target in
  n.Node.online && Node.responsible_for n key

let miss t =
  t.c.c_misses <- t.c.c_misses + 1;
  Miss

let stale t target =
  t.c.c_stale <- t.c.c_stale + 1;
  Stale target

(* Longest-prefix probe: only lengths that actually have entries are
   tried, guided by the per-peer bitmask (Key.bits fits an int). *)
let rec probe_route t pc key mask =
  if mask = 0 then miss t
  else begin
    let l = top_bit mask in
    let rest = mask land lnot (1 lsl l) in
    let code = Path.key_prefix_code key l in
    let routes = pc.routes in
    let s = Lru.find routes code in
    if s < 0 then probe_route t pc key rest
    else begin
      let target = Lru.field routes s r_target in
      if Lru.field routes s r_epoch <> t.epoch || Lru.field routes s r_gen <> gen_of t target
      then begin
        Lru.remove routes code;
        len_decr pc l;
        probe_route t pc key rest
      end
      else if target_valid t target key then begin
        t.c.c_route_hits <- t.c.c_route_hits + 1;
        Hit_route target
      end
      else begin
        Lru.remove routes code;
        len_decr pc l;
        stale t target
      end
    end
  end

(* Result cache first; a generationally retired result is
   indistinguishable from a miss and falls through to the routes. *)
let probe_peer t pc key =
  let results = pc.results in
  let k = key_int key in
  let s = Lru.find results k in
  if s < 0 then probe_route t pc key pc.lens
  else begin
    let target = Lru.field results s x_target in
    if
      Lru.field results s x_epoch <> t.epoch
      || Lru.field results s x_gen <> gen_of t target
      || Lru.field results s x_wgen <> wgen_of t key
    then begin
      Lru.remove results k;
      probe_route t pc key pc.lens
    end
    else if target_valid t target key then begin
      t.c.c_result_hits <- t.c.c_result_hits + 1;
      Hit_result
        {
          target;
          present = Lru.field results s x_present = 1;
          payloads = Lru.value results s;
        }
    end
    else begin
      Lru.remove results k;
      stale t target
    end
  end

let probe t ~at key =
  check_peer t ~fn:"probe" at;
  if at >= Array.length t.peers then miss t
  else match t.peers.(at) with None -> miss t | Some pc -> probe_peer t pc key

let learn t ~at ~key ~target ~present ~payloads =
  check_peer t ~fn:"learn" at;
  if at <> target then begin
    let pc = peer_cache t at in
    let tpath = (Overlay.node t.overlay target).Node.path in
    let routes = pc.routes in
    let before = Lru.length routes in
    let s = Lru.put routes (Path.code tpath) in
    let victim = Lru.victim routes in
    if victim >= 0 then begin
      len_decr pc (Path.code_length victim);
      t.c.c_evictions <- t.c.c_evictions + 1
    end;
    (* New unless the put only refreshed: it either evicted or grew. *)
    if victim >= 0 || Lru.length routes > before then len_incr pc (Path.length tpath);
    Lru.set_field routes s r_target target;
    Lru.set_field routes s r_gen (gen_of t target);
    Lru.set_field routes s r_epoch t.epoch;
    let results = pc.results in
    let s = Lru.put results (key_int key) in
    if Lru.victim results >= 0 then t.c.c_evictions <- t.c.c_evictions + 1;
    Lru.set_field results s x_target target;
    Lru.set_field results s x_present (if present then 1 else 0);
    Lru.set_field results s x_gen (gen_of t target);
    Lru.set_field results s x_wgen (wgen_of t key);
    Lru.set_field results s x_epoch t.epoch;
    Lru.set_value results s payloads
  end

let fold_peers t f init =
  Array.fold_left (fun acc -> function None -> acc | Some pc -> f acc pc) init t.peers

let stats t =
  let route_entries = fold_peers t (fun acc pc -> acc + Lru.length pc.routes) 0 in
  let result_entries = fold_peers t (fun acc pc -> acc + Lru.length pc.results) 0 in
  {
    route_hits = t.c.c_route_hits;
    result_hits = t.c.c_result_hits;
    misses = t.c.c_misses;
    stale = t.c.c_stale;
    invalidations = t.c.c_invalidations;
    evictions = t.c.c_evictions;
    route_entries;
    result_entries;
  }

let hit_ratio s =
  let probes = s.route_hits + s.result_hits + s.misses + s.stale in
  if probes = 0 then 0.
  else float_of_int (s.route_hits + s.result_hits) /. float_of_int probes

let clear t =
  Array.iter
    (function
      | None -> ()
      | Some pc ->
        Lru.clear pc.routes;
        Lru.clear pc.results;
        pc.lens <- 0;
        Array.fill pc.len_count 0 (Array.length pc.len_count) 0)
    t.peers
