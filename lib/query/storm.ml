module Rng = Pgrid_prng.Rng
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Breaker = Pgrid_simnet.Breaker
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type wire =
  | Req of { rid : int; reply_to : int }
  | Resp of { rid : int }
  | Heartbeat

type config = {
  req_timeout : float;
  backoff : float;
  max_retries : int;
  hedge_after : float option;
  breaker : Breaker.config option;
  header_bytes : int;
}

let default_config =
  {
    req_timeout = 4.;
    backoff = 2.;
    max_retries = 2;
    hedge_after = None;
    breaker = None;
    header_bytes = 200;
  }

type completion = { issued_at : float; finished_at : float; success : bool }

type stats = {
  issued : int;
  succeeded : int;
  failed : int;
  timeouts : int;
  retries : int;
  give_ups : int;
  hedges : int;
  hedge_wins : int;
  breaker_opens : int;
  breaker_skips : int;
  sheds : int;
  sheds_maintenance : int;
  sheds_query : int;
  queue_peak : int;
}

(* Pending requests by request id.  Ids are handed out consecutively
   from 0, so the identity hash spreads them evenly. *)
module Rids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (rid : int) = rid
end)

(* One lookup in flight. *)
type lookup = { qid : int; origin : int; key : Key.t; issued_at : float; mutable hops : int }

(* Not a peer id: the backup of a hop that has not hedged, and a
   reference slot a hedge took. *)
let no_peer = -1

(* One routing hop: a primary attempt with bounded retries, optionally
   raced by a single hedged backup via the next admitted sibling
   reference.  The whole state of the hop is this one record: the
   request handlers, timeouts and hedge timer are top-level functions
   over it, so a hop allocates no closures beyond its timer callbacks.

   [refs] is the step's shuffled reference snapshot, private to the
   step: the references still to try after this hop are
   [refs.(next ..)], minus the slot a hedge took (marked [no_peer]).  When
   both arms of a hop die, the walk moves on to a fresh hop record
   sharing the same [refs]; the dead hop's remaining timers see its
   flags and do nothing. *)
type hop = {
  q : lookup;
  cur : int;
  budget : int;
  refs : int array;
  next : int;
  primary : int;
  mutable primary_rid : int;
  mutable backup : int;  (* [no_peer] until the hedge launches *)
  mutable backup_rid : int;
  mutable primary_dead : bool;
  mutable backup_dead : bool;
  mutable resolved : bool;
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  overlay : Overlay.t;
  net : wire Net.t;
  cfg : config;
  tel : Telemetry.t;
  breaker : Breaker.t option;
  pending : hop Rids.t;
  mutable next_rid : int;
  mutable next_qid : int;
  mutable issued : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable give_ups : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  mutable breaker_skips : int;
  mutable completions : completion list;
}

let admits t ~origin ~target =
  match t.breaker with
  | None -> true
  | Some br -> Breaker.admits br ~origin ~target

let record_success t ~origin ~target =
  match t.breaker with
  | None -> ()
  | Some br -> Breaker.record_success br ~origin ~target

let record_failure t ~origin ~target =
  match t.breaker with
  | None -> ()
  | Some br -> Breaker.record_failure br ~origin ~target

let finish t q success =
  let now = Sim.now t.sim in
  if success then t.succeeded <- t.succeeded + 1 else t.failed <- t.failed + 1;
  if Telemetry.active t.tel then
    Telemetry.emit t.tel
      (Event.Query_complete
         { qid = q.qid; origin = q.origin; hops = q.hops; latency = now -. q.issued_at; success });
  t.completions <- { issued_at = q.issued_at; finished_at = now; success } :: t.completions

let rec route t q cur budget =
  if budget = 0 then finish t q false
  else
    let node = Overlay.node t.overlay cur in
    let level = Overlay.divergence_level node.Node.path q.key in
    if level < 0 then begin
      (* Responsible peer reached; the response flows back. *)
      Net.account ~src:cur ~dst:q.origin t.net ~bytes:t.cfg.header_bytes ~kind:Net.Query;
      finish t q true
    end
    else begin
      let refs = Node.refs_array node ~level in
      Rng.shuffle t.rng refs;
      try_refs t q cur budget refs 0
    end

(* Start a hop at the first admitted reference of [refs.(i ..)]. *)
and try_refs t q cur budget refs i =
  if i = Array.length refs then finish t q false
  else
    let target = refs.(i) in
    if target = no_peer then try_refs t q cur budget refs (i + 1)
    else if not (admits t ~origin:cur ~target) then begin
      t.breaker_skips <- t.breaker_skips + 1;
      try_refs t q cur budget refs (i + 1)
    end
    else begin
      let h =
        {
          q;
          cur;
          budget;
          refs;
          next = i + 1;
          primary = target;
          primary_rid = -1;
          backup = no_peer;
          backup_rid = -1;
          primary_dead = false;
          backup_dead = false;
          resolved = false;
        }
      in
      arm t h ~backup:false target 0;
      match t.cfg.hedge_after with
      | None -> ()
      | Some after -> Sim.schedule t.sim ~delay:after (fun () -> hedge t h)
    end

(* Send attempt [k] of one arm of hop [h] and book its timeout. *)
and arm t h ~backup target k =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  if backup then h.backup_rid <- rid else h.primary_rid <- rid;
  Rids.replace t.pending rid h;
  Net.send t.net ~src:h.cur ~dst:target ~bytes:t.cfg.header_bytes ~kind:Net.Query
    (Req { rid; reply_to = h.cur });
  let timeout = t.cfg.req_timeout *. (t.cfg.backoff ** float_of_int k) in
  Sim.schedule t.sim ~delay:timeout (fun () -> expire t h rid k)

(* Attempt [k] (request [rid]) of hop [h] timed out, unless it was
   answered or cancelled first.  The primary retries up to
   [max_retries] times; the hedge is a single attempt.  Once an arm gives
   up and no other arm is in flight, the walk falls back to the step's
   remaining references. *)
and expire t h rid k =
  if (not h.resolved) && Rids.mem t.pending rid then begin
    Rids.remove t.pending rid;
    let backup = rid = h.backup_rid in
    let target = if backup then h.backup else h.primary in
    t.timeouts <- t.timeouts + 1;
    if Telemetry.active t.tel then
      Telemetry.emit t.tel (Event.Timeout { rid; src = h.cur; dst = target; attempt = k });
    record_failure t ~origin:h.cur ~target;
    let max_k = if backup then 0 else t.cfg.max_retries in
    if k < max_k then begin
      t.retries <- t.retries + 1;
      if Telemetry.active t.tel then
        Telemetry.emit t.tel (Event.Retry { rid; src = h.cur; dst = target; attempt = k + 1 });
      arm t h ~backup target (k + 1)
    end
    else begin
      t.give_ups <- t.give_ups + 1;
      if Telemetry.active t.tel then Telemetry.emit t.tel (Event.Give_up { rid; src = h.cur });
      if backup then h.backup_dead <- true else h.primary_dead <- true;
      let backup_in_flight = h.backup <> no_peer && not h.backup_dead in
      if h.primary_dead && not backup_in_flight then try_refs t h.q h.cur h.budget h.refs h.next
    end
  end

(* The hedge timer: launch one backup attempt via the first admitted
   sibling still untried, and take its slot out of the fallback. *)
and hedge t h =
  if (not h.resolved) && h.backup = no_peer && not h.primary_dead then begin
    let refs = h.refs in
    let rec pick i =
      if i = Array.length refs then -1
      else
        let b = refs.(i) in
        if b <> no_peer && admits t ~origin:h.cur ~target:b then i else pick (i + 1)
    in
    let i = pick h.next in
    if i >= 0 then begin
      let b = refs.(i) in
      refs.(i) <- no_peer;
      h.backup <- b;
      t.hedges <- t.hedges + 1;
      if Telemetry.active t.tel then
        Telemetry.emit t.tel
          (Event.Hedge_launch { qid = h.q.qid; origin = h.cur; primary = h.primary; backup = b });
      (* The hedge is a single attempt: its job is to dodge one slow or
         shedding peer, not to duplicate the retry ladder. *)
      arm t h ~backup:true b 0
    end
  end

(* First response wins: both arms' request ids are cancelled, so the
   loser's late reply and pending timeout are ignored. *)
let advance t h ~winner ~backup_won =
  if not h.resolved then begin
    h.resolved <- true;
    Rids.remove t.pending h.primary_rid;
    Rids.remove t.pending h.backup_rid;
    record_success t ~origin:h.cur ~target:winner;
    if h.backup <> no_peer then begin
      if backup_won then t.hedge_wins <- t.hedge_wins + 1;
      if Telemetry.active t.tel then
        Telemetry.emit t.tel (Event.Hedge_win { qid = h.q.qid; origin = h.cur; backup_won })
    end;
    h.q.hops <- h.q.hops + 1;
    if Telemetry.active t.tel then
      Telemetry.emit t.tel (Event.Query_hop { qid = h.q.qid; src = h.cur; dst = winner });
    route t h.q winner (h.budget - 1)
  end

let create ?(telemetry = Pgrid_telemetry.Global.get ()) sim rng overlay net cfg =
  if not (cfg.req_timeout > 0.) then invalid_arg "Storm.create: req_timeout must be positive";
  if not (cfg.backoff >= 1.) then invalid_arg "Storm.create: backoff must be >= 1";
  if cfg.max_retries < 0 then invalid_arg "Storm.create: max_retries must be >= 0";
  (match cfg.hedge_after with
  | Some h when not (h > 0.) -> invalid_arg "Storm.create: hedge_after must be positive"
  | _ -> ());
  let breaker =
    Option.map
      (fun bcfg ->
        Breaker.create ~telemetry bcfg ~now:(fun () -> Sim.now sim))
      cfg.breaker
  in
  let t =
    {
      sim;
      rng;
      overlay;
      net;
      cfg;
      tel = telemetry;
      breaker;
      pending = Rids.create 1024;
      next_rid = 0;
      next_qid = 0;
      issued = 0;
      succeeded = 0;
      failed = 0;
      timeouts = 0;
      retries = 0;
      give_ups = 0;
      hedges = 0;
      hedge_wins = 0;
      breaker_skips = 0;
      completions = [];
    }
  in
  Net.set_handler net (fun me msg ->
      match msg with
      | Req { rid; reply_to } ->
        (* Routing state is persistent: any peer that worked through its
           service queue answers. *)
        Net.send net ~src:me ~dst:reply_to ~bytes:cfg.header_bytes ~kind:Net.Query
          (Resp { rid })
      | Resp { rid } -> (
        match Rids.find t.pending rid with
        | h ->
          Rids.remove t.pending rid;
          let backup_won = rid = h.backup_rid in
          advance t h ~winner:(if backup_won then h.backup else h.primary) ~backup_won
        | exception Not_found -> (* late, duplicated or cancelled *) ())
      | Heartbeat -> ());
  t

let issue t ~origin ~key =
  let qid = t.next_qid in
  t.next_qid <- t.next_qid + 1;
  t.issued <- t.issued + 1;
  let issued_at = Sim.now t.sim in
  if Telemetry.active t.tel then
    Telemetry.emit t.tel (Event.Query_issue { qid; origin });
  route t { qid; origin; key; issued_at; hops = 0 } origin (4 * Key.bits)

let issue_random t ~key =
  let origin = Overlay.random_online t.overlay t.rng ~excluding:(-1) in
  if origin < 0 then false
  else begin
    issue t ~origin ~key;
    true
  end

let heartbeat t ~src ~dst =
  Net.send t.net ~src ~dst ~bytes:t.cfg.header_bytes ~kind:Net.Maintenance Heartbeat

let completions t = t.completions
let in_flight t = Rids.length t.pending

let stats t =
  {
    issued = t.issued;
    succeeded = t.succeeded;
    failed = t.failed;
    timeouts = t.timeouts;
    retries = t.retries;
    give_ups = t.give_ups;
    hedges = t.hedges;
    hedge_wins = t.hedge_wins;
    breaker_opens = (match t.breaker with None -> 0 | Some br -> Breaker.opens br);
    breaker_skips = t.breaker_skips;
    sheds = Net.messages_shed t.net;
    sheds_maintenance = Net.shed_of_kind t.net Net.Maintenance;
    sheds_query = Net.shed_of_kind t.net Net.Query;
    queue_peak = Net.queue_peak t.net;
  }
