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

type t = {
  sim : Sim.t;
  rng : Rng.t;
  overlay : Overlay.t;
  net : wire Net.t;
  cfg : config;
  tel : Telemetry.t;
  breaker : Breaker.t option;
  pending : (int, unit -> unit) Hashtbl.t;
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

let create ?(telemetry = Pgrid_telemetry.Global.get ()) sim rng overlay net cfg =
  if cfg.req_timeout <= 0. then invalid_arg "Storm.create: req_timeout must be positive";
  if cfg.backoff < 1. then invalid_arg "Storm.create: backoff must be >= 1";
  if cfg.max_retries < 0 then invalid_arg "Storm.create: max_retries must be >= 0";
  (match cfg.hedge_after with
  | Some h when h <= 0. -> invalid_arg "Storm.create: hedge_after must be positive"
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
      pending = Hashtbl.create 1024;
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
        match Hashtbl.find_opt t.pending rid with
        | Some continue ->
          Hashtbl.remove t.pending rid;
          continue ()
        | None -> (* late, duplicated or cancelled *) ())
      | Heartbeat -> ());
  t

let admits t ~origin ~target =
  match t.breaker with
  | None -> true
  | Some br -> Breaker.admits br ~origin ~target

let record_success t ~origin ~target =
  Option.iter (fun br -> Breaker.record_success br ~origin ~target) t.breaker

let record_failure t ~origin ~target =
  Option.iter (fun br -> Breaker.record_failure br ~origin ~target) t.breaker

let snapshot t cur ~level =
  let refs = Node.refs_array (Overlay.node t.overlay cur) ~level in
  Rng.shuffle t.rng refs;
  Array.to_list refs

let issue t ~origin ~key =
  let qid = t.next_qid in
  t.next_qid <- t.next_qid + 1;
  t.issued <- t.issued + 1;
  let issued_at = Sim.now t.sim in
  if Telemetry.active t.tel then
    Telemetry.emit t.tel (Event.Query_issue { qid; origin });
  let hops = ref 0 in
  let finish success =
    let now = Sim.now t.sim in
    if success then t.succeeded <- t.succeeded + 1 else t.failed <- t.failed + 1;
    if Telemetry.active t.tel then
      Telemetry.emit t.tel
        (Event.Query_complete
           { qid; origin; hops = !hops; latency = now -. issued_at; success });
    t.completions <- { issued_at; finished_at = now; success } :: t.completions
  in
  let rec route cur budget =
    if budget = 0 then finish false
    else
      match Overlay.divergence_level (Overlay.node t.overlay cur).Node.path key with
      | None ->
        (* Responsible peer reached; the response flows back. *)
        Net.account ~src:cur ~dst:origin t.net ~bytes:t.cfg.header_bytes
          ~kind:Net.Query;
        finish true
      | Some level -> try_refs cur level budget (snapshot t cur ~level)
  and try_refs cur level budget = function
    | [] -> finish false
    | target :: rest ->
      if not (admits t ~origin:cur ~target) then begin
        t.breaker_skips <- t.breaker_skips + 1;
        try_refs cur level budget rest
      end
      else hop cur level budget target rest
  (* One routing hop: a primary attempt with bounded retries, optionally
     raced by a single hedged backup via the next admitted sibling
     reference. First response wins; the loser's request id is cancelled
     so its late reply (and timeout) are ignored. *)
  and hop cur level budget target rest =
    let resolved = ref false in
    let primary_rid = ref (-1) and backup_rid = ref (-1) in
    (* [Some (backup_target, remaining_rest)] once the hedge launched. *)
    let backup_state = ref None in
    let primary_dead = ref false and backup_dead = ref false in
    let fallback () =
      match !backup_state with Some (_, rest') -> rest' | None -> rest
    in
    let give_up_hop () =
      let backup_in_flight =
        match !backup_state with Some _ -> not !backup_dead | None -> false
      in
      if !primary_dead && not backup_in_flight then
        try_refs cur level budget (fallback ())
    in
    let advance winner ~backup_won =
      if not !resolved then begin
        resolved := true;
        Hashtbl.remove t.pending !primary_rid;
        Hashtbl.remove t.pending !backup_rid;
        record_success t ~origin:cur ~target:winner;
        if !backup_state <> None then begin
          if backup_won then t.hedge_wins <- t.hedge_wins + 1;
          if Telemetry.active t.tel then
            Telemetry.emit t.tel (Event.Hedge_win { qid; origin = cur; backup_won })
        end;
        incr hops;
        if Telemetry.active t.tel then
          Telemetry.emit t.tel (Event.Query_hop { qid; src = cur; dst = winner });
        route winner (budget - 1)
      end
    in
    let rec arm ~backup tgt k ~max_k =
      let rid = t.next_rid in
      t.next_rid <- t.next_rid + 1;
      if backup then backup_rid := rid else primary_rid := rid;
      Hashtbl.replace t.pending rid (fun () -> advance tgt ~backup_won:backup);
      Net.send t.net ~src:cur ~dst:tgt ~bytes:t.cfg.header_bytes ~kind:Net.Query
        (Req { rid; reply_to = cur });
      let timeout = t.cfg.req_timeout *. (t.cfg.backoff ** float_of_int k) in
      Sim.schedule t.sim ~delay:timeout (fun () ->
          if (not !resolved) && Hashtbl.mem t.pending rid then begin
            Hashtbl.remove t.pending rid;
            t.timeouts <- t.timeouts + 1;
            if Telemetry.active t.tel then
              Telemetry.emit t.tel
                (Event.Timeout { rid; src = cur; dst = tgt; attempt = k });
            record_failure t ~origin:cur ~target:tgt;
            if k < max_k then begin
              t.retries <- t.retries + 1;
              if Telemetry.active t.tel then
                Telemetry.emit t.tel
                  (Event.Retry { rid; src = cur; dst = tgt; attempt = k + 1 });
              arm ~backup tgt (k + 1) ~max_k
            end
            else begin
              t.give_ups <- t.give_ups + 1;
              if Telemetry.active t.tel then
                Telemetry.emit t.tel (Event.Give_up { rid; src = cur });
              if backup then backup_dead := true else primary_dead := true;
              give_up_hop ()
            end
          end)
    in
    arm ~backup:false target 0 ~max_k:t.cfg.max_retries;
    match t.cfg.hedge_after with
    | None -> ()
    | Some h ->
      Sim.schedule t.sim ~delay:h (fun () ->
          if (not !resolved) && !backup_state = None && not !primary_dead then begin
            (* Pick the first admitted sibling as the backup; the rest
               stay as the fallback list should both arms die. *)
            let rec pick skipped = function
              | [] -> None
              | b :: bs ->
                if admits t ~origin:cur ~target:b then
                  Some (b, List.rev_append skipped bs)
                else pick (b :: skipped) bs
            in
            match pick [] rest with
            | None -> ()
            | Some (b, rest') ->
              backup_state := Some (b, rest');
              t.hedges <- t.hedges + 1;
              if Telemetry.active t.tel then
                Telemetry.emit t.tel
                  (Event.Hedge_launch { qid; origin = cur; primary = target; backup = b });
              (* The hedge is a single attempt: its job is to dodge one
                 slow or shedding peer, not to duplicate the retry
                 ladder. *)
              arm ~backup:true b 0 ~max_k:0
          end)
  in
  route origin (4 * Key.bits)

let issue_random t ~key =
  let n = Overlay.size t.overlay in
  let rec pick attempts =
    if attempts = 0 then None
    else
      let i = Rng.int t.rng n in
      if (Overlay.node t.overlay i).Node.online then Some i else pick (attempts - 1)
  in
  match pick (4 * n) with
  | None -> false
  | Some origin ->
    issue t ~origin ~key;
    true

let heartbeat t ~src ~dst =
  Net.send t.net ~src ~dst ~bytes:t.cfg.header_bytes ~kind:Net.Maintenance Heartbeat

let completions t = t.completions
let in_flight t = Hashtbl.length t.pending

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
