(** Per-(origin, target) circuit breakers.

    A breaker watches consecutive request failures (timeouts or sheds,
    as judged by the caller) from one origin to one target. After
    [failures] consecutive failures it opens: {!admits} refuses the
    pair for [cooldown] seconds, then lets exactly one half-open probe
    through. A successful probe closes the breaker ([Breaker_close]);
    a failed probe re-opens it for another full cool-down.

    The module draws no randomness and keeps no timers of its own — it
    reads the clock it was given (simulated time in the network
    engine), so an idle breaker costs nothing. *)

type config = {
  failures : int;  (** consecutive failures before opening, >= 1 *)
  cooldown : float;  (** seconds an open breaker refuses traffic, > 0 (not NaN) *)
}

(** 5 consecutive failures, 30 s cool-down. *)
val default_config : config

type t

(** [create ?telemetry cfg ~now] makes an empty breaker table reading
    time from [now]. [Breaker_open] / [Breaker_close] events go to
    [telemetry] (default {!Pgrid_telemetry.Global.get}).  Raises
    [Invalid_argument] when [failures < 1] or [cooldown] is not positive
    (NaN included). *)
val create : ?telemetry:Pgrid_telemetry.Telemetry.t -> config -> now:(unit -> float) -> t

(** Node ids passed as [origin] and [target] below must lie in
    [\[0, 2^31)]: a pair is packed into one int key.  Others raise
    [Invalid_argument]. *)

(** [admits t ~origin ~target] asks whether a request may be sent.
    Closed breakers always admit; an open breaker past its cool-down
    transitions to half-open and admits the single probe; half-open
    breakers with their probe in flight refuse. *)
val admits : t -> origin:int -> target:int -> bool

(** The caller judged one admitted request failed (timeout / shed). *)
val record_failure : t -> origin:int -> target:int -> unit

(** The caller judged one admitted request succeeded. *)
val record_success : t -> origin:int -> target:int -> unit

(** Cumulative closed -> open transitions ([Breaker_open] events).  A
    failed half-open probe re-arms the cool-down but is not a new open:
    the circuit never closed in between. *)
val opens : t -> int

(** Breakers currently open or half-open. *)
val open_count : t -> int
