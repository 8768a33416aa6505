module Rng = Pgrid_prng.Rng
module Sample = Pgrid_prng.Sample
module Key = Pgrid_keyspace.Key
module Path = Pgrid_keyspace.Path
module Reference = Pgrid_partition.Reference
module Distribution = Pgrid_workload.Distribution
module Node = Pgrid_core.Node
module Overlay = Pgrid_core.Overlay
module Deviation = Pgrid_core.Deviation
module Moments = Pgrid_stats.Moments
module Maintenance = Pgrid_core.Maintenance
module Txn = Pgrid_core.Txn
module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Latency = Pgrid_simnet.Latency
module Unstructured = Pgrid_simnet.Unstructured
module Churn = Pgrid_simnet.Churn
module Fault = Pgrid_simnet.Fault
module Breaker = Pgrid_simnet.Breaker
module Telemetry = Pgrid_telemetry.Telemetry
module Event = Pgrid_telemetry.Event

type phases = {
  join_end : float;
  replicate_start : float;
  construct_start : float;
  construct_end : float;
  query_start : float;
  churn_start : float;
  end_time : float;
}

let minutes m = 60. *. m

let paper_phases =
  {
    join_end = minutes 100.;
    replicate_start = minutes 45.;
    construct_start = minutes 100.;
    construct_end = minutes 300.;
    query_start = minutes 300.;
    churn_start = minutes 430.;
    end_time = minutes 500.;
  }

(* Liveness probes of the hardened request/response tracker.  [rid]
   correlates a Ping with its Pong; a reply proves the target is up and
   routable before the query hops to it.  [Txn_msg] carries one
   transaction-protocol delivery ([Txn.transport] continuation): the
   closure runs iff the network actually delivers — loss and offline
   destinations drop it, which is exactly the transport contract. *)
type wire =
  | Ping of { rid : int; reply_to : int }
  | Pong of { rid : int }
  | Txn_msg of { deliver : unit -> unit }

type robust = {
  req_timeout : float;
  backoff : float;
  jitter : float;
  max_retries : int;
  evict_after : int;
}

let default_robust =
  { req_timeout = 2.; backoff = 2.; jitter = 0.2; max_retries = 3; evict_after = 2 }

type robust_stats = {
  timeouts : int;
  retries : int;
  give_ups : int;
  evictions : int;
  breaker_opens : int;
  breaker_skips : int;
}

(* Document-indexing workload for the transaction layer: multi-key
   atomic puts submitted from random online coordinators during the
   query phase, with a periodic recovery pass. *)
type txn_workload = {
  txn_config : Txn.config;
  doc_interval : float;
  keys_min : int;
  keys_max : int;
  recover_period : float;
}

let default_txn_workload =
  {
    txn_config = Txn.default_config;
    doc_interval = 10.;
    keys_min = 3;
    keys_max = 6;
    recover_period = 60.;
  }

type params = {
  peers : int;
  keys_per_peer : int;
  n_min : int;
  d_max : int;
  degree : int;
  walk_steps : int;
  latency : Latency.model;
  loss : float;
  bucket : float;
  header_bytes : int;
  key_bytes : int;
  initiate_mean : float;
  ping_interval : float;
  query_min : float;
  query_max : float;
  retry_timeout : float;
  max_fruitless : int;
  refer_hops : int;
  mode : Engine.mode;
  phases : phases;
  churn : Churn.params option;
  robust : robust option;
  fault_plan : Fault.plan;
  fault_seed : int;
  maint : Maintenance.daemon_config option;
  txn : txn_workload option;
  service : Net.overload_config option;
  breaker : Breaker.config option;
}

let default_params ~peers =
  {
    peers;
    keys_per_peer = 10;
    n_min = 5;
    d_max = 50;
    degree = 4;
    walk_steps = 8;
    latency = Latency.planetlab;
    loss = 0.02;
    bucket = 60.;
    header_bytes = 200;
    key_bytes = 64;
    initiate_mean = 20.;
    ping_interval = 30.;
    query_min = 60.;
    query_max = 120.;
    retry_timeout = 2.;
    max_fruitless = 2;
    refer_hops = 20;
    mode = Engine.Theory;
    phases = paper_phases;
    churn = None;
    robust = None;
    fault_plan = [];
    fault_seed = 0;
    maint = None;
    txn = None;
    service = None;
    breaker = None;
  }

type query_stats = {
  issued : int;
  succeeded : int;
  failed : int;
  mean_hops : float;
  mean_latency : float;
}

type outcome = {
  overlay : Overlay.t;
  reference : Reference.t;
  deviation : float;
  online_series : (float * int) list;
  maintenance_bw : (float * float) list;
  query_bw : (float * float) list;
  latency_series : (float * float * float) list;
  query_stats : query_stats;
  stats : Overlay.stats;
  counters : Engine.counters;
  messages_sent : int;
  messages_dropped : int;
  messages_shed : int;
  queue_peak : int;
  robust_stats : robust_stats;
  fault_stats : Fault.stats option;
  maint_stats : Maintenance.daemon_stats option;
  txn : Txn.t option;
  txn_stats : Txn.stats option;
}

type query_record = { at : float; latency : float; hops : int; success : bool }

let run ?(telemetry = Pgrid_telemetry.Global.get ()) rng params ~spec =
  if params.peers < 8 then invalid_arg "Net_engine.run: need at least 8 peers";
  Option.iter
    (fun r ->
      if not (r.req_timeout > 0.) then
        invalid_arg "Net_engine.run: req_timeout must be positive";
      if not (r.backoff >= 1.) then invalid_arg "Net_engine.run: backoff must be >= 1";
      if not (r.jitter >= 0. && r.jitter < 1.) then
        invalid_arg "Net_engine.run: jitter outside [0, 1)";
      if r.max_retries < 0 then invalid_arg "Net_engine.run: max_retries must be >= 0";
      if r.evict_after < 1 then invalid_arg "Net_engine.run: evict_after must be >= 1")
    params.robust;
  let ph = params.phases in
  let sim = Sim.create () in
  let tel = telemetry in
  (* Telemetry timestamps are simulated seconds for the whole run. *)
  Telemetry.set_clock tel (fun () -> Sim.now sim);
  (* The network carries unit messages: interactions are executed on
     shared state, so only accounting and timing flow through it. *)
  let net : wire Net.t =
    Net.create ~telemetry:tel ?service:params.service sim (Rng.split rng)
      ~nodes:params.peers ~latency:params.latency ~loss:params.loss
      ~bucket:params.bucket
  in
  let overlay = Overlay.create (Rng.split rng) ~n:params.peers in
  let assignments =
    Distribution.assign_to_peers rng spec ~peers:params.peers
      ~keys_per_peer:params.keys_per_peer
  in
  Array.iteri
    (fun i own ->
      let n = Overlay.node overlay i in
      n.Node.online <- false;
      Array.iter (Node.ensure_key n) own)
    assignments;
  let graph = Unstructured.create (Rng.split rng) ~nodes:params.peers ~degree:params.degree in
  let set_online i v =
    let was = (Overlay.node overlay i).Node.online in
    (Overlay.node overlay i).Node.online <- v;
    Net.set_online net i v;
    if was <> v && Telemetry.active tel then
      Telemetry.emit tel
        (if v then Event.Churn_online { peer = i } else Event.Churn_offline { peer = i })
  in
  Array.iteri (fun i _ -> Net.set_online net i false) assignments;
  let online i = (Overlay.node overlay i).Node.online in
  let account ?src ?dst ~bytes ~kind () = Net.account ?src ?dst net ~bytes ~kind in
  (* --- construction engine wiring ------------------------------------ *)
  let engine = ref None in
  let schedule_initiation = ref (fun _ -> ()) in
  (* Filled in once the fault plan (if any) is installed below; until
     then every contact is admitted, exactly as before. *)
  let fault_ref = ref None in
  let hooks =
    {
      Engine.on_contact =
        (fun ~src ~dst ->
          account ~src ~dst ~bytes:(2 * params.header_bytes) ~kind:Net.Maintenance ());
      on_key_moved =
        (fun ~src ~dst -> account ~src ~dst ~bytes:params.key_bytes ~kind:Net.Maintenance ());
      on_reactivate = (fun i -> !schedule_initiation i);
      contact_ok =
        (fun ~src ~dst ->
          match !fault_ref with
          | None -> true
          | Some f -> Fault.admits f ~src ~dst);
    }
  in
  let engine_config =
    {
      Engine.n_min = params.n_min;
      d_max = params.d_max;
      max_fruitless = params.max_fruitless;
      refer_hops = params.refer_hops;
      mode = params.mode;
    }
  in
  let eng = Engine.create ~telemetry:tel (Rng.split rng) engine_config overlay hooks in
  engine := Some eng;
  (* --- hardened protocol mode ------------------------------------------ *)
  (* Anything below that touches RNG state is gated: a legacy run (no
     robust config, no fault plan) must consume exactly the same draw
     sequence as before this mode existed. *)
  let hardened =
    params.robust <> None || params.fault_plan <> [] || params.breaker <> None
  in
  let rcfg = Option.value params.robust ~default:default_robust in
  let robust_rng = if hardened then Some (Rng.split rng) else None in
  let breaker =
    Option.map
      (fun cfg -> Breaker.create ~telemetry:tel cfg ~now:(fun () -> Sim.now sim))
      params.breaker
  in
  let timeouts = ref 0
  and retries = ref 0
  and give_ups = ref 0
  and evictions = ref 0
  and breaker_skips = ref 0 in
  (* Filled in once the transaction manager (if any) is created below;
     the fault hooks read it at crash time, well after setup. *)
  let txn_mgr = ref None in
  let fault =
    if params.fault_plan = [] then None
    else
      Some
        (Fault.install ~telemetry:tel
           ~on_crash:(fun i ->
             Engine.note_crash eng i;
             Option.iter (fun m -> Txn.note_crash m i) !txn_mgr;
             set_online i false)
           ~on_restart:(fun i ->
             set_online i true;
             (* Fresh volatile state: the peer re-enters construction. *)
             Engine.note_useful eng i)
           net ~seed:params.fault_seed params.fault_plan)
  in
  fault_ref := fault;
  (* Request/response tracker: rid -> continuation to run on the Pong. *)
  let pending : (int, unit -> unit) Hashtbl.t = Hashtbl.create 64 in
  let next_rid = ref 0 in
  (* Consecutive liveness failures per (holder, reference) link; reaching
     [evict_after] triggers correction-on-use. *)
  let fail_counts : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  if hardened || params.txn <> None then
    Net.set_handler net (fun me msg ->
        match msg with
        | Ping { rid; reply_to } ->
          (* Answered from persisted state: even a crash-restarted peer
             replies, its path and store survive. *)
          Net.send net ~src:me ~dst:reply_to ~bytes:params.header_bytes
            ~kind:Net.Query (Pong { rid })
        | Pong { rid } -> (
          match Hashtbl.find_opt pending rid with
          | Some continue ->
            Hashtbl.remove pending rid;
            continue ()
          | None -> (* late or duplicated reply *) ())
        | Txn_msg { deliver } -> deliver ());
  let scheduled = Array.make params.peers false in
  let rec initiation_loop i () =
    scheduled.(i) <- false;
    let now = Sim.now sim in
    if now < ph.construct_end && Engine.is_active eng i then begin
      if online i then Engine.interact eng i;
      if Engine.is_active eng i then begin
        scheduled.(i) <- true;
        Sim.schedule sim ~delay:(Sample.exponential rng ~rate:(1. /. params.initiate_mean))
          (initiation_loop i)
      end
    end
  in
  (schedule_initiation :=
     fun i ->
       if
         (not scheduled.(i))
         && Sim.now sim >= ph.construct_start
         && Sim.now sim < ph.construct_end
       then begin
         scheduled.(i) <- true;
         Sim.schedule sim ~delay:(Sample.exponential rng ~rate:(1. /. params.initiate_mean))
           (initiation_loop i)
       end);
  (* --- joins ---------------------------------------------------------- *)
  Array.iteri
    (fun i _ ->
      let join_at = Sample.uniform rng ~lo:1. ~hi:ph.join_end in
      Sim.schedule_at sim ~time:join_at (fun () ->
          set_online i true;
          (* Bootstrap handshake. *)
          account ~src:i ~bytes:(3 * params.header_bytes) ~kind:Net.Maintenance ()))
    assignments;
  (* --- replication phase ---------------------------------------------- *)
  Array.iteri
    (fun i own ->
      let at =
        Sample.uniform rng
          ~lo:(Float.max ph.replicate_start 2.)
          ~hi:ph.construct_start
      in
      Sim.schedule_at sim ~time:at (fun () ->
          if online i then begin
            let seen = Hashtbl.create 8 in
            let attempts = ref 0 in
            while Hashtbl.length seen < params.n_min && !attempts < 8 * params.n_min do
              incr attempts;
              let target =
                Unstructured.random_walk graph rng ~online ~start:i
                  ~steps:params.walk_steps
              in
              if target <> i && online target then Hashtbl.replace seen target ()
            done;
            Hashtbl.iter
              (fun target () ->
                account ~src:i ~dst:target
                  ~bytes:
                    ((params.walk_steps * params.header_bytes)
                    + (Array.length own * params.key_bytes))
                  ~kind:Net.Maintenance ();
                let nt = Overlay.node overlay target in
                Array.iter (Node.ensure_key nt) own)
              seen
          end))
    assignments;
  (* --- construction kick-off ------------------------------------------ *)
  Array.iteri
    (fun i _ ->
      Sim.schedule_at sim
        ~time:(ph.construct_start +. Sample.uniform rng ~lo:0. ~hi:60.)
        (fun () ->
          scheduled.(i) <- true;
          initiation_loop i ()))
    assignments;
  (* --- periodic pings -------------------------------------------------- *)
  Array.iteri
    (fun i _ ->
      let rec ping () =
        if Sim.now sim < ph.end_time then begin
          if online i then account ~src:i ~bytes:params.header_bytes ~kind:Net.Maintenance ();
          Sim.schedule sim ~delay:params.ping_interval ping
        end
      in
      Sim.schedule sim ~delay:(Sample.uniform rng ~lo:0. ~hi:params.ping_interval) ping)
    assignments;
  (* --- queries ---------------------------------------------------------- *)
  let all_keys =
    Array.to_list assignments
    |> List.concat_map Array.to_list
    |> List.sort_uniq Key.compare
    |> Array.of_list
  in
  let query_log = ref [] in
  let next_qid = ref 0 in
  let issue_query origin =
    let key = all_keys.(Rng.int rng (Array.length all_keys)) in
    let issued_at = Sim.now sim in
    let qid = !next_qid in
    incr next_qid;
    if Telemetry.active tel then Telemetry.emit tel (Event.Query_issue { qid; origin });
    let latency_total = ref 0. in
    let hops = ref 0 in
    let send_msg ?src ?dst () =
      account ?src ?dst ~bytes:params.header_bytes ~kind:Net.Query ();
      latency_total := !latency_total +. Latency.sample params.latency rng
    in
    (* Route hop by hop; dead references cost a timeout and a retry. *)
    let rec route cur budget =
      if budget = 0 then false
      else begin
        let n = Overlay.node overlay cur in
        match Overlay.divergence_level n.Node.path key with
        | None -> true (* responsible peer reached *)
        | Some level ->
          let refs = Node.refs_array n ~level in
          Rng.shuffle rng refs;
          let rec try_refs idx =
            if idx >= Array.length refs then false
            else begin
              let next = refs.(idx) in
              send_msg ~src:cur ~dst:next ();
              if Telemetry.active tel then
                Telemetry.emit tel (Event.Query_hop { qid; src = cur; dst = next });
              incr hops;
              if online next then route next (budget - 1)
              else begin
                (* Timeout, then retry an alternative reference. *)
                latency_total := !latency_total +. params.retry_timeout;
                try_refs (idx + 1)
              end
            end
          in
          try_refs 0
      end
    in
    let success = route origin (4 * Key.bits) in
    if success then begin
      (* Response travels straight back to the origin. *)
      send_msg ~dst:origin ()
    end;
    if Telemetry.active tel then
      Telemetry.emit tel
        (Event.Query_complete
           { qid; origin; hops = !hops; latency = !latency_total; success });
    query_log :=
      { at = issued_at; latency = !latency_total; hops = !hops; success } :: !query_log
  in
  (* Hardened variant: every hop is gated by a Ping/Pong liveness round
     trip through the real network, with per-request timeouts, bounded
     retries under exponential backoff with jitter, and correction-on-use
     eviction of references that keep timing out.  Latency is genuinely
     elapsed simulated time. *)
  let issue_query_robust origin =
    let rrng = Option.get robust_rng in
    let key = all_keys.(Rng.int rrng (Array.length all_keys)) in
    let issued_at = Sim.now sim in
    let qid = !next_qid in
    incr next_qid;
    if Telemetry.active tel then Telemetry.emit tel (Event.Query_issue { qid; origin });
    let hops = ref 0 in
    let finish success =
      let latency = Sim.now sim -. issued_at in
      if Telemetry.active tel then
        Telemetry.emit tel
          (Event.Query_complete { qid; origin; hops = !hops; latency; success });
      query_log :=
        { at = issued_at; latency; hops = !hops; success } :: !query_log
    in
    let snapshot cur level =
      let refs = Node.refs_array (Overlay.node overlay cur) ~level in
      Rng.shuffle rrng refs;
      Array.to_list refs
    in
    let rec route cur budget =
      if budget = 0 then finish false
      else begin
        match Overlay.divergence_level (Overlay.node overlay cur).Node.path key with
        | None ->
          (* Responsible peer reached; the response flows back. *)
          account ~src:cur ~dst:origin ~bytes:params.header_bytes ~kind:Net.Query ();
          finish true
        | Some level ->
          try_refs cur level budget ~refreshed:false (snapshot cur level)
      end
    and try_refs cur level budget ~refreshed = function
      | [] ->
        if refreshed then finish false
        else
          (* An eviction may just have refilled this level: take one
             fresh snapshot before declaring the dead end. *)
          try_refs cur level budget ~refreshed:true (snapshot cur level)
      | target :: rest -> (
        match breaker with
        | Some br when not (Breaker.admits br ~origin:cur ~target) ->
          (* The link's breaker is open: fail over to the next
             reference immediately instead of hammering a peer that
             keeps timing out. *)
          incr breaker_skips;
          try_refs cur level budget ~refreshed rest
        | _ -> attempt cur level budget ~refreshed rest target 0)
    and attempt cur level budget ~refreshed rest target k =
      let rid = !next_rid in
      incr next_rid;
      Hashtbl.replace pending rid (fun () ->
          Hashtbl.remove fail_counts (cur, target);
          Option.iter (fun br -> Breaker.record_success br ~origin:cur ~target) breaker;
          incr hops;
          if Telemetry.active tel then
            Telemetry.emit tel (Event.Query_hop { qid; src = cur; dst = target });
          route target (budget - 1));
      Net.send net ~src:cur ~dst:target ~bytes:params.header_bytes ~kind:Net.Query
        (Ping { rid; reply_to = cur });
      let timeout =
        rcfg.req_timeout
        *. (rcfg.backoff ** float_of_int k)
        *. (1. +. (rcfg.jitter *. Rng.float rrng))
      in
      Sim.schedule sim ~delay:timeout (fun () ->
          if Hashtbl.mem pending rid then begin
            Hashtbl.remove pending rid;
            incr timeouts;
            Option.iter
              (fun br -> Breaker.record_failure br ~origin:cur ~target)
              breaker;
            if Telemetry.active tel then
              Telemetry.emit tel
                (Event.Timeout { rid; src = cur; dst = target; attempt = k });
            let fails =
              1 + Option.value ~default:0 (Hashtbl.find_opt fail_counts (cur, target))
            in
            Hashtbl.replace fail_counts (cur, target) fails;
            let evicted =
              fails >= rcfg.evict_after
              && begin
                   Hashtbl.remove fail_counts (cur, target);
                   let n =
                     Maintenance.correct_on_use ~telemetry:tel ~dead:target rrng
                       overlay ~peer:cur ~level
                   in
                   evictions := !evictions + n;
                   n > 0
                 end
            in
            if (not evicted) && k < rcfg.max_retries then begin
              incr retries;
              if Telemetry.active tel then
                Telemetry.emit tel
                  (Event.Retry { rid; src = cur; dst = target; attempt = k + 1 });
              attempt cur level budget ~refreshed rest target (k + 1)
            end
            else begin
              incr give_ups;
              if Telemetry.active tel then
                Telemetry.emit tel (Event.Give_up { rid; src = cur });
              try_refs cur level budget ~refreshed rest
            end
          end)
    in
    route origin (4 * Key.bits)
  in
  let issue_query = if hardened then issue_query_robust else issue_query in
  Array.iteri
    (fun i _ ->
      let rec loop () =
        if Sim.now sim < ph.end_time then begin
          if online i && Sim.now sim >= ph.query_start then issue_query i;
          Sim.schedule sim
            ~delay:(Sample.uniform rng ~lo:params.query_min ~hi:params.query_max)
            loop
        end
      in
      Sim.schedule_at sim
        ~time:(ph.query_start +. Sample.uniform rng ~lo:0. ~hi:params.query_max)
        loop)
    assignments;
  (* --- self-healing daemon ---------------------------------------------- *)
  (* The split is gated exactly like [robust_rng]: a run without the
     daemon consumes the same draw sequence as before it existed. *)
  let maint_stats = ref None in
  (match params.maint with
  | None -> ()
  | Some cfg ->
    let mrng = Rng.split rng in
    Sim.schedule_at sim ~time:ph.query_start (fun () ->
        (* Hand the daemon the transaction manager (if one was not set
           explicitly): its health monitor then audits settled documents
           for torn writes.  Read at fire time — [txn_mgr] is populated
           during setup, after this closure is created. *)
        let cfg =
          match (cfg.Maintenance.txn, !txn_mgr) with
          | None, (Some _ as m) -> { cfg with Maintenance.txn = m }
          | _ -> cfg
        in
        maint_stats :=
          Some
            (Maintenance.install_daemon ~telemetry:tel
               ~keys:(fun () -> all_keys)
               mrng overlay
               ~schedule:(fun ~delay f -> Sim.schedule sim ~delay f)
               ~now:(fun () -> Sim.now sim)
               ~until:ph.end_time cfg)));
  (* --- transaction workload --------------------------------------------- *)
  (* Gated exactly like [robust_rng] and the daemon: [txn = None] creates
     nothing and consumes no draws, so legacy runs are bit-identical. *)
  (match params.txn with
  | None -> ()
  | Some w ->
    if w.keys_min < 1 || w.keys_max < w.keys_min then
      invalid_arg "Net_engine.run: bad txn keys_min/keys_max";
    if w.doc_interval <= 0. || w.recover_period <= 0. then
      invalid_arg "Net_engine.run: bad txn periods";
    let trng = Rng.split rng in
    let transport =
      {
        Txn.send =
          (fun ~phase ~src ~dst ~deliver ->
            let bytes =
              params.header_bytes
              + (match phase with Txn.Prepare -> params.key_bytes | _ -> 0)
            in
            Net.send net ~src ~dst ~bytes ~kind:Net.Maintenance
              (Txn_msg { deliver }))
      }
    in
    let mgr =
      Txn.create ~telemetry:tel ~config:w.txn_config (Rng.split trng) overlay
        ~transport
        ~schedule:(fun ~delay f -> Sim.schedule sim ~delay f)
        ~now:(fun () -> Sim.now sim)
    in
    txn_mgr := Some mgr;
    (* Document submissions: a random online coordinator indexes one
       document under [keys_min, keys_max] distinct keys, atomically. *)
    let next_doc = ref 0 in
    let rec doc_loop () =
      if Sim.now sim < ph.end_time then begin
        if Sim.now sim >= ph.query_start then begin
          let coordinator = Rng.int trng params.peers in
          let span = w.keys_max - w.keys_min + 1 in
          let k = w.keys_min + Rng.int trng span in
          let k = min k (Array.length all_keys) in
          let picks =
            Rng.sample_without_replacement trng ~k ~n:(Array.length all_keys)
          in
          if online coordinator then begin
            let doc = Printf.sprintf "doc-%05d" !next_doc in
            incr next_doc;
            let ops =
              Array.to_list picks
              |> List.map (fun i -> Txn.Put { key = all_keys.(i); payload = doc })
            in
            ignore (Txn.submit mgr ~coordinator ops)
          end
        end;
        Sim.schedule sim
          ~delay:(Sample.exponential trng ~rate:(1. /. w.doc_interval))
          doc_loop
      end
    in
    Sim.schedule_at sim
      ~time:(ph.query_start +. Sample.uniform trng ~lo:0. ~hi:w.doc_interval)
      doc_loop;
    let rec recover_loop () =
      if Sim.now sim < ph.end_time then begin
        ignore (Txn.recover_pass mgr);
        Sim.schedule sim ~delay:w.recover_period recover_loop
      end
    in
    Sim.schedule_at sim ~time:(ph.query_start +. w.recover_period) recover_loop);
  (* --- churn ------------------------------------------------------------ *)
  let churn_params =
    match params.churn with
    | Some c -> c
    | None -> Churn.paper_params ~start:ph.churn_start ~stop:ph.end_time
  in
  Churn.install sim rng churn_params
    ~node_ids:(List.init params.peers (fun i -> i))
    ~set_online;
  (* --- online population sampling --------------------------------------- *)
  let online_series = ref [] in
  let rec sample_online () =
    if Sim.now sim <= ph.end_time then begin
      online_series := (Sim.now sim /. 60., Net.online_count net) :: !online_series;
      Sim.schedule sim ~delay:60. sample_online
    end
  in
  Sim.schedule_at sim ~time:0. sample_online;
  (* --- run --------------------------------------------------------------- *)
  (* Let the last churned peers come back online before evaluating. *)
  Sim.run_until sim ~time:(ph.end_time +. 600.);
  (* Final recovery sweep once the last churned peers are back: resolves
     intents whose disks were unreachable while their peer was down. *)
  Option.iter (fun m -> ignore (Txn.recover_pass m)) !txn_mgr;
  (* --- evaluation ---------------------------------------------------------- *)
  let reference =
    Reference.compute ~keys:all_keys ~peers:params.peers ~d_max:params.d_max
      ~n_min:params.n_min
  in
  let queries = !query_log in
  let successes = List.filter (fun q -> q.success) queries in
  let hops_m = Moments.of_list (List.map (fun q -> float_of_int q.hops) successes) in
  let lat_m = Moments.of_list (List.map (fun q -> q.latency) successes) in
  let query_stats =
    {
      issued = List.length queries;
      succeeded = List.length successes;
      failed = List.length queries - List.length successes;
      mean_hops = Moments.mean hops_m;
      mean_latency = Moments.mean lat_m;
    }
  in
  (* Query latency per 10-minute bucket (successful queries). *)
  let latency_series =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun q ->
        if q.success then begin
          let bucket = 10. *. Float.round (q.at /. 600.) in
          let m =
            match Hashtbl.find_opt tbl bucket with
            | Some m -> m
            | None ->
              let m = Moments.create () in
              Hashtbl.add tbl bucket m;
              m
          in
          Moments.add m q.latency
        end)
      queries;
    Hashtbl.fold (fun b m acc -> (b, Moments.mean m, Moments.stddev m) :: acc) tbl []
    |> List.sort compare
  in
  let per_peer series =
    List.map (fun (t, bps) -> (t /. 60., bps /. float_of_int params.peers)) series
  in
  {
    overlay;
    reference;
    deviation = Deviation.of_overlay ~reference overlay;
    online_series = List.rev !online_series;
    maintenance_bw = per_peer (Net.bandwidth net Net.Maintenance);
    query_bw = per_peer (Net.bandwidth net Net.Query);
    latency_series;
    query_stats;
    stats = Overlay.stats overlay;
    counters = Engine.counters eng;
    messages_sent = Net.messages_sent net;
    messages_dropped = Net.messages_dropped net;
    messages_shed = Net.messages_shed net;
    queue_peak = Net.queue_peak net;
    robust_stats =
      {
        timeouts = !timeouts;
        retries = !retries;
        give_ups = !give_ups;
        evictions = !evictions;
        breaker_opens = (match breaker with None -> 0 | Some br -> Breaker.opens br);
        breaker_skips = !breaker_skips;
      };
    fault_stats = Option.map Fault.stats fault;
    maint_stats = !maint_stats;
    txn = !txn_mgr;
    txn_stats = Option.map Txn.stats !txn_mgr;
  }
