(** Heavy-traffic asynchronous lookups over the simulated network.

    {!Query.lookup_batch} walks the overlay synchronously — useful for
    recall and hop-count measurement, useless for studying load, because
    no message ever contends for a peer's service capacity.  [Storm]
    re-implements the lookup walk on top of {!Pgrid_simnet.Net} so every
    hop is a [Req]/[Resp] round trip that rides latency, loss and (when
    the network was created with a [service] model) the destination's
    bounded service queue.  On top of the PR-3 hardening vocabulary
    (per-request timeouts, exponential backoff, bounded retries) it adds
    the two client-side overload defences:

    - {b circuit breakers} ({!Pgrid_simnet.Breaker}) per (holder,
      reference) link, so a peer that keeps timing out — or silently
      shedding — stops receiving retries until a half-open probe gets
      through;
    - {b hedged requests}: when a hop has waited [hedge_after] seconds
      on its primary reference, one backup attempt is launched via the
      next admitted sibling reference ([Hedge_launch]); whichever reply
      arrives first advances the walk ([Hedge_win]) and the loser's
      request id is cancelled, so its late reply and pending timeout are
      ignored.

    All scheduling is deterministic given the engine's RNG; the service
    model itself draws nothing. *)

(** Wire protocol: one [Req]/[Resp] pair per routing hop, answered from
    persistent state, plus an inert [Heartbeat] for background
    maintenance traffic. *)
type wire =
  | Req of { rid : int; reply_to : int }
  | Resp of { rid : int }
  | Heartbeat

type config = {
  req_timeout : float;  (** base per-request timeout, seconds, > 0 *)
  backoff : float;  (** timeout multiplier per retry, >= 1 *)
  max_retries : int;  (** re-sends per primary target *)
  hedge_after : float option;  (** [Some h]: hedge a hop after [h] seconds *)
  breaker : Pgrid_simnet.Breaker.config option;  (** [Some]: circuit breakers *)
  header_bytes : int;  (** accounted size of [Req]/[Resp]/[Heartbeat] *)
}

(** 4 s timeout, factor-2 backoff, 2 retries, no hedging, no breakers,
    200-byte headers — the {e unprotected} client. *)
val default_config : config

(** One finished lookup, in simulated seconds. *)
type completion = { issued_at : float; finished_at : float; success : bool }

type stats = {
  issued : int;
  succeeded : int;
  failed : int;  (** budget exhausted or every reference dead/refused *)
  timeouts : int;
  retries : int;
  give_ups : int;  (** per-target retry ladders exhausted *)
  hedges : int;  (** backup attempts launched *)
  hedge_wins : int;  (** hops where the backup answered first *)
  breaker_opens : int;
  breaker_skips : int;  (** references skipped while their breaker was open *)
  sheds : int;  (** from the network's service queues, all classes *)
  sheds_maintenance : int;
  sheds_query : int;
  queue_peak : int;
}

type t

(** [create ?telemetry sim rng overlay net cfg] installs the storm's
    handler on [net] (replacing any previous one) and returns the idle
    engine.  Raises [Invalid_argument] on a config outside its stated
    ranges, NaN included.  [rng] drives origin draws and per-hop reference shuffles;
    breaker state reads simulated time from [sim]. *)
val create :
  ?telemetry:Pgrid_telemetry.Telemetry.t ->
  Pgrid_simnet.Sim.t ->
  Pgrid_prng.Rng.t ->
  Pgrid_core.Overlay.t ->
  wire Pgrid_simnet.Net.t ->
  config ->
  t

(** [issue t ~origin ~key] starts one asynchronous lookup; its outcome
    is recorded in {!completions} / {!stats} when the walk finishes. *)
val issue : t -> origin:int -> key:Pgrid_keyspace.Key.t -> unit

(** [issue_random t ~key] issues from a uniformly drawn online origin;
    [false] (and no draw consumed beyond the rejection scan) when no
    online origin was found. *)
val issue_random : t -> key:Pgrid_keyspace.Key.t -> bool

(** [heartbeat t ~src ~dst] sends one inert maintenance-class message —
    background traffic for exercising the service model's priority
    classes. *)
val heartbeat : t -> src:int -> dst:int -> unit

(** Finished lookups, most recent first. *)
val completions : t -> completion list

(** Request ids still pending: sent, and neither answered, timed out
    nor cancelled.  This counts ids, not timers: when a hop resolves,
    the loser's id is cancelled at once, but its timeout stays scheduled
    in the simulator (and is ignored when it fires), so {!in_flight} can
    be 0 while {!Pgrid_simnet.Sim.pending} is not. *)
val in_flight : t -> int

val stats : t -> stats
