(** Per-peer query caches for read-heavy traffic.

    Each peer that participates in (or forwards) lookups accumulates two
    bounded LRU caches:

    {ul
    {- a {e route cache}: the full path of a known responsible peer,
       keyed by that path so any key sharing the prefix jumps straight
       to it (probed longest-prefix-first);}
    {- a {e result cache}: the complete answer of a recent lookup
       (responsible peer, key presence, payloads) for hot keys.}}

    Correctness never depends on invalidation.  Every served entry is
    {e validated on use}: the cached peer must be online and its path
    must still match the key — the same criterion a routed search
    terminates on — so a stale entry can cost an extra hop (reported as
    {!Stale}; the lookup falls back to routing) but can never yield a
    wrong responsible peer.

    Invalidation exists for hit-ratio hygiene and is O(1) per event,
    generational rather than scanning: entries record the generation of
    the peer they point at, the write generation of their key and the
    global epoch; {!invalidate} bumps the corresponding counter and the
    entry silently dies.  The cache subscribes to
    {!Pgrid_core.Overlay.subscribe} at creation, so load-balance splits
    and retracts, migrations, structural repairs, reference evictions
    and routed writes invalidate automatically; {!observe} additionally
    maps replayed telemetry events ([Migrate], [Balance_split],
    [Retract], [Partition_heal], [Ref_evict]) onto the same machinery.

    {b Layout.}  Each cache is one {!Lru}: a fixed-layout table of int
    slots (key, recency links, entry fields) plus an open-addressing
    index from key to slot.  A route is keyed by the {!Pgrid_keyspace.Path.code}
    of the responsible peer's path, so probing a prefix length builds no
    path; a result by the key's raw int.  Peer caches sit in an array
    indexed by peer id and the per-key write generations in an
    int-keyed table.  A full slot costs 9 words for a route and 11 for a
    result (slot ints, the value word, two index cells); with spare
    slots in partly filled tables an entry averages 10.5-14 words,
    against 20 for the hash table of boxed records and [Some]-linked
    entries this replaced.  Hits, misses, stale results and eviction
    victims follow the recency list alone, never the index's layout, so
    the layout changed no decision: every seeded counter is what the
    hash-table version produced. *)

type t

(** [create ?telemetry ?route_cap ?result_cap overlay] makes an empty
    cache bundle (per-peer caches materialize lazily) and subscribes it
    to [overlay]'s change feed.  [route_cap] / [result_cap] (default 512
    each) bound each peer's two caches individually.  [telemetry]
    receives [Cache_invalidate] events; hits, misses and stale probes
    are the {e engine}'s to report.  Raises [Invalid_argument] on
    non-positive capacities. *)
val create :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  ?route_cap:int ->
  ?result_cap:int ->
  Pgrid_core.Overlay.t ->
  t

(** Outcome of probing one peer's caches for one key, result cache
    first.  [Stale] names the peer a failed-validation entry pointed at;
    the entry has been evicted and the caller must continue routing. *)
type probe =
  | Hit_result of { target : int; present : bool; payloads : string list }
  | Hit_route of int
  | Stale of int
  | Miss

(** [probe t ~at key] consults peer [at]'s caches.  Exactly one counter
    (hit / miss / stale) is charged per call.  Raises [Invalid_argument]
    unless [0 <= at < Overlay.size]. *)
val probe : t -> at:int -> Pgrid_keyspace.Key.t -> probe

(** [learn t ~at ~key ~target ~present ~payloads] records a completed
    lookup at peer [at]: a route entry for [target]'s current path and a
    result entry for [key].  A no-op when [at = target] (a responsible
    peer never needs a shortcut to itself).  Raises [Invalid_argument]
    unless [0 <= at < Overlay.size]. *)
val learn :
  t ->
  at:int ->
  key:Pgrid_keyspace.Key.t ->
  target:int ->
  present:bool ->
  payloads:string list ->
  unit

(** [invalidate t change] applies one overlay change (already wired via
    [Overlay.subscribe]; exposed for tests and manual feeds). *)
val invalidate : t -> Pgrid_core.Overlay.change -> unit

(** [observe t kind] maps a telemetry event onto invalidation:
    [Migrate] / [Ref_evict] retire entries pointing at the named peer,
    [Balance_split] / [Retract] / [Partition_heal] flush.  Other events
    are ignored. *)
val observe : t -> Pgrid_telemetry.Event.kind -> unit

(** [flush t] retires every entry (epoch bump; O(1)). *)
val flush : ?reason:string -> t -> unit

(** [clear t] drops every entry and resets the recency lists — a memory
    release, unlike the generational {!flush}. *)
val clear : t -> unit

(** Cumulative counters ([*_hits] / [misses] / [stale] are per-{!probe})
    plus current live entry totals across all peers. *)
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

val stats : t -> stats

(** [hit_ratio s] is hits over probes, 0 before any probe. *)
val hit_ratio : stats -> float

(** The bounded LRU table behind each cache, exposed for tests.

    Keys are non-negative ints.  A slot holds a key, [fields] int fields
    and one value of type ['a].  [find] and [put] make their key the most
    recently used; when a [put] of a new key finds the table full, it
    first evicts the least recently used entry and reuses its slot. *)
module Lru : sig
  type 'a t

  (** [create ~fields ~cap fill] is an empty table of at most [cap]
      entries; [fill] is the value of a slot that holds none.  Raises
      [Invalid_argument] if [cap < 1] or [fields < 0]. *)
  val create : fields:int -> cap:int -> 'a -> 'a t

  val length : 'a t -> int

  (** [find t k] is [k]'s slot, or [-1] when absent. *)
  val find : 'a t -> int -> int

  (** [mem t k] tests presence without touching recency. *)
  val mem : 'a t -> int -> bool

  (** [put t k] is the slot of [k], inserted if absent.  The slot keeps
      its previous fields and value (an evicted entry's, after an
      eviction) until they are set.  Raises [Invalid_argument] if
      [k < 0]. *)
  val put : 'a t -> int -> int

  (** [victim t] is the key the last {!put} evicted, or [-1]. *)
  val victim : 'a t -> int

  val remove : 'a t -> int -> unit

  (** [clear t] drops every entry and releases the grown slot arrays. *)
  val clear : 'a t -> unit

  (** [field t slot i] is int field [i] of [slot]; raises
      [Invalid_argument] unless [0 <= i < fields]. *)
  val field : 'a t -> int -> int -> int

  val set_field : 'a t -> int -> int -> int -> unit
  val value : 'a t -> int -> 'a
  val set_value : 'a t -> int -> 'a -> unit
end
