(** The experiment registry: every bench target — the paper's figures and
    tables, the ablations, the two-arm experiments, the scale sweep and
    the micro kernels — defined once, with its run presets, its printed
    report, its machine-readable metrics and its acceptance gates.
    [bench/main.exe], [pgrid figure] and CI all iterate over {!all}. *)

(** Which way a metric improves: [Up] for quality rates (success, score,
    goodput), [Down] for costs (deviation, losses, torn states). *)
type direction = Up | Down

type metric =
  | Value of { name : string; value : float; direction : direction }
      (** a named, seed-deterministic or timed result value *)
  | Kernel of { name : string; ns_per_run : float; r_square : float option }
      (** a micro-kernel timing estimate *)

type t

(** Every experiment, in the bench harness's run order. *)
val all : t list

val find : string -> t option
val name : t -> string

(** Banner title and the notes printed under it (paper expectations,
    acceptance expectations). *)
val title : t -> string

val notes : t -> string list

(** Names of the acceptance gates, each the predicate it checks written
    out over metric names (e.g. ["on/final_lost <= off/final_lost"]). *)
val gates : t -> string list

(** One run's result, ready to print and to flatten into metrics. *)
type outcome

(** [run e ~smoke ~seed ?reps ()] runs [e] at its full preset, or at
    its fixed smoke preset (shorter horizons, fewer peers, one
    repetition) when [smoke].  [reps] overrides the repetition count of
    the experiments that average over repetitions. *)
val run : t -> smoke:bool -> seed:int -> ?reps:int -> unit -> outcome

(** Print the outcome's tables and figures.  [standalone] (default
    [false]) captions them for a reader who has not seen the bench
    banner. *)
val print : ?standalone:bool -> outcome -> unit

val metrics : outcome -> metric list

(** [failures e metrics] names every gate of [e] that does not hold over
    [metrics]; a gate reading a metric absent from [metrics] fails. *)
val failures : t -> metric list -> string list

(** Bechamel time quota per micro kernel, in milliseconds. *)
val micro_quota_ms : float ref
