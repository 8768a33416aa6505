(** Hash table keyed by {!Pgrid_keyspace.Key.t}, laid out flat: one
    bucket-head [int array] plus parallel slot arrays for the keys, the
    chain links and the values.  A node's key store and version sidecar
    are tables of this kind.

    {b Iteration order is the stdlib's.}  [iter] and [fold] visit keys in
    exactly the order a [(Key.t, 'a) Hashtbl.t] created with the same
    initial size and fed the same [replace]/[remove]/[reset] calls would
    (unrandomized tables): the bucket is [Hashtbl.hash k land (nb - 1)],
    a new key goes to the head of its chain, the bucket count doubles
    when [length > 2 * nb] with every chain relinked in order, and
    {!reset} returns to the initial bucket count.  Construction hands
    keys over in store order and every delivery draws from the seeded
    generator, so this order is what keeps seeded results reproducible.

    The values array is allocated only once a value other than the
    table's [empty] value is stored (construction keys carry no payload,
    so their tables hold keys and links only).  Slot arrays double when
    full and are compacted when fewer than a quarter of their slots are
    in use; slot numbering never affects iteration order.

    Unlike the stdlib, changing a table from inside its own {!iter} or
    {!fold} raises [Invalid_argument]. *)

type 'a t

(** [create ~empty n] is an empty table with [n] rounded up to a power
    of two (at least 16) buckets, as [Hashtbl.create n] would have.
    [empty] is the value that needs no values array: a table whose
    values are all physically [empty] stores none. *)
val create : empty:'a -> int -> 'a t

val length : 'a t -> int
val mem : 'a t -> Pgrid_keyspace.Key.t -> bool
val find_opt : 'a t -> Pgrid_keyspace.Key.t -> 'a option

(** @raise Not_found when the key is absent. *)
val find : 'a t -> Pgrid_keyspace.Key.t -> 'a

(** [replace t k v] binds [k] to [v]; an existing binding keeps its
    place in the iteration order, a new one goes to the head of its
    chain.
    @raise Invalid_argument while [t] is being iterated. *)
val replace : 'a t -> Pgrid_keyspace.Key.t -> 'a -> unit

(** [remove t k] drops [k]'s binding, if any.
    @raise Invalid_argument while [t] is being iterated. *)
val remove : 'a t -> Pgrid_keyspace.Key.t -> unit

(** [reset t] empties [t] and shrinks it to its initial bucket count.
    @raise Invalid_argument while [t] is being iterated. *)
val reset : 'a t -> unit

(** Stdlib [Hashtbl] order (see above). *)
val iter : (Pgrid_keyspace.Key.t -> 'a -> unit) -> 'a t -> unit

val fold : (Pgrid_keyspace.Key.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
