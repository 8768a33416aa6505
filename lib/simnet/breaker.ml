module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type config = { failures : int; cooldown : float }

let default_config = { failures = 5; cooldown = 30. }

type state =
  | Closed of int  (* consecutive failures so far *)
  | Open of float  (* reopens for a probe at this time *)
  | Half_open  (* one probe in flight; admits nothing else *)

(* Breakers keyed by the (origin, target) pair packed into one int, so
   a lookup allocates no tuple and hashes no structure.  The hash folds
   the origin into the low bits the table indexes by: [Hashtbl.hash]
   folds an int to 32 bits by xoring its halves, which maps whole
   families of packed pairs onto one bucket. *)
module Pairs = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash (k : int) =
    let h = (k lxor (k lsr 31)) * 0xCC9E2D51 in
    (h lxor (h lsr 29)) land max_int
end)

let pair_bits = 31

let pair ~origin ~target =
  if origin lsr pair_bits <> 0 || target lsr pair_bits <> 0 then
    invalid_arg "Breaker: node ids must be in [0, 2^31)";
  (origin lsl pair_bits) lor target

type t = {
  cfg : config;
  now : unit -> float;
  tel : Telemetry.t;
  table : state Pairs.t;
  mutable opens : int;
  mutable open_now : int;
}

let create ?(telemetry = Pgrid_telemetry.Global.get ()) cfg ~now =
  if cfg.failures < 1 then invalid_arg "Breaker.create: failures must be >= 1";
  if not (cfg.cooldown > 0.) then invalid_arg "Breaker.create: cooldown must be positive";
  { cfg; now; tel = telemetry; table = Pairs.create 64; opens = 0; open_now = 0 }

let state t key = match Pairs.find t.table key with s -> s | exception Not_found -> Closed 0

let admits t ~origin ~target =
  let key = pair ~origin ~target in
  match state t key with
  | Closed _ -> true
  | Half_open -> false
  | Open until ->
    if t.now () < until then false
    else begin
      (* Cool-down elapsed: let exactly one probe through. *)
      Pairs.replace t.table key Half_open;
      true
    end

let record_failure t ~origin ~target =
  let key = pair ~origin ~target in
  match state t key with
  | Open _ -> ()
  | Half_open ->
    (* The probe failed: re-open for another full cool-down. *)
    Pairs.replace t.table key (Open (t.now () +. t.cfg.cooldown))
  | Closed n ->
    let n = n + 1 in
    if n >= t.cfg.failures then begin
      Pairs.replace t.table key (Open (t.now () +. t.cfg.cooldown));
      t.opens <- t.opens + 1;
      t.open_now <- t.open_now + 1;
      if Telemetry.active t.tel then
        Telemetry.emit t.tel (Event.Breaker_open { origin; target; failures = n })
    end
    else Pairs.replace t.table key (Closed n)

let record_success t ~origin ~target =
  let key = pair ~origin ~target in
  match state t key with
  | Closed 0 -> ()
  | Closed _ -> Pairs.replace t.table key (Closed 0)
  | Open _ | Half_open ->
    Pairs.replace t.table key (Closed 0);
    t.open_now <- max 0 (t.open_now - 1);
    if Telemetry.active t.tel then
      Telemetry.emit t.tel (Event.Breaker_close { origin; target })

let opens t = t.opens
let open_count t = t.open_now
