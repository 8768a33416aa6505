(* Workload [netstorm]: lookups through the simulated network.

   Set-up builds a Uniform overlay with [Round.run_with_keys] and draws
   the whole arrival schedule.  The timed part runs an open loop in
   simulated time: Poisson Zipf-1.1 lookups through [Storm] with the
   protected client (hedging after 2 s, [Breaker.default_config]) over
   [Net] with PlanetLab latency, 2% loss and [Net.default_overload]
   service queues.  Offered rates climb through fixed geometric steps,
   then a final phase runs at the lowest rate under the paper's churn
   cycle.  Latency runs from each lookup's scheduled issue time, which
   is when [Storm.issue] is called. *)

module Rng = Pgrid_prng.Rng
module Sample = Pgrid_prng.Sample
module Key = Pgrid_keyspace.Key
module Distribution = Pgrid_workload.Distribution
module Round = Pgrid_construction.Round
module Overlay = Pgrid_core.Overlay
module Sim = Pgrid_simnet.Sim
module Net = Pgrid_simnet.Net
module Latency = Pgrid_simnet.Latency
module Breaker = Pgrid_simnet.Breaker
module Churn = Pgrid_simnet.Churn
module Storm = Pgrid_query.Storm
module Telemetry = Pgrid_telemetry.Telemetry

type config = {
  peers : int;
  setups : int;  (* set-up repetitions behind the [setup_s] median *)
  rates : float array;  (* offered lookups per simulated second, per step *)
  step_per_second : float;  (* simulated seconds per step, per second of [--seconds] *)
  churn_steps : float;  (* length of the churn phase, in steps *)
  window : float;  (* simulated seconds between backlog samples *)
  limit_s : float;  (* the p99 latency limit behind the capacity figure *)
  sustained : int;
      (* the lowest-rate steps, which every seed carries within the limit;
         the end-to-end latencies come from them, because the knee moves
         with the partitions a seed makes hot (10 to 40 q/s) and past it
         the tail varies twofold between seeds *)
}

let default =
  {
    peers = 5_000;
    setups = 3;
    rates = [| 5.; 10.; 20.; 40.; 80. |];
    step_per_second = 60.;
    churn_steps = 2.;
    window = 30.;
    limit_s = 20.;
    sustained = 1;
  }

let tiny = { default with peers = 300; setups = 2; rates = [| 1.; 2.; 4.; 8.; 16. |]; step_per_second = 15. }

type inputs = {
  assignments : Key.t array array;
  times : float array;  (* scheduled issue times, ascending *)
  keys : Key.t array;
  origins : int array;
  step_s : float;
  churn_at : float;  (* start of the churn phase *)
  stop_at : float;  (* last possible arrival *)
}

let make_inputs cfg ~seed ~seconds =
  let params = Round.default_params ~peers:cfg.peers in
  let assignments =
    Distribution.assign_to_peers (Rng.create ~seed) Distribution.Uniform ~peers:cfg.peers
      ~keys_per_peer:params.Round.keys_per_peer
  in
  let by_rank = Construct.distinct_keys assignments in
  Rng.shuffle (Rng.create ~seed:(seed + 3)) by_rank;
  let zipf = Sample.Zipf.create ~n:(Array.length by_rank) ~s:1.1 in
  let step_s = cfg.step_per_second *. float_of_int seconds in
  let churn_at = step_s *. float_of_int (Array.length cfg.rates) in
  let stop_at = churn_at +. (cfg.churn_steps *. step_s) in
  let r = Rng.create ~seed:(seed + 4) in
  let times = ref [] and keys = ref [] and origins = ref [] in
  let rate_at t = if t < churn_at then cfg.rates.(int_of_float (t /. step_s)) else cfg.rates.(0) in
  let t = ref (Sample.exponential r ~rate:cfg.rates.(0)) in
  while !t < stop_at do
    times := !t :: !times;
    keys := by_rank.(Sample.Zipf.draw zipf r - 1) :: !keys;
    origins := Rng.int r cfg.peers :: !origins;
    t := !t +. Sample.exponential r ~rate:(rate_at !t)
  done;
  let arr l = Array.of_list (List.rev l) in
  { assignments; times = arr !times; keys = arr !keys; origins = arr !origins; step_s; churn_at; stop_at }

(* One phase of the schedule: a rate step or the churn phase. *)
type phase = {
  label : string;
  rate : float;
  from_t : float;
  to_t : float;
  mutable mid_backlog : int;
  mutable end_backlog : int;
}

type outcome = {
  stats : Storm.stats;
  completions : Storm.completion list;
  in_flight : int;
  events : int;
  sent : int;
  dropped : int;
  shed : int;
  backlog_peak : int;
  phases : phase array;
  sim_end : float;
  wall : float;  (* wall seconds of the simulation *)
  minor_words : float;
  tel_events : int;
}

let phases_of cfg inp =
  let steps =
    Array.mapi
      (fun i rate ->
        {
          label = Printf.sprintf "step%d" (i + 1);
          rate;
          from_t = float_of_int i *. inp.step_s;
          to_t = float_of_int (i + 1) *. inp.step_s;
          mid_backlog = 0;
          end_backlog = 0;
        })
      cfg.rates
  in
  Array.append steps
    [| { label = "churn"; rate = cfg.rates.(0); from_t = inp.churn_at; to_t = inp.stop_at;
         mid_backlog = 0; end_backlog = 0 } |]

(* The timed part: one simulation of the whole schedule, drained. *)
let simulate ?tr ?(telemetry = Telemetry.disabled) ?(calibrate = false) cfg ~seed overlay inp =
  let sim = Sim.create () in
  if Telemetry.active telemetry then Telemetry.set_clock telemetry (fun () -> Sim.now sim);
  let net : Storm.wire Net.t =
    Net.create ~telemetry ~service:Net.default_overload sim (Rng.create ~seed:(seed + 11))
      ~nodes:cfg.peers ~latency:Latency.planetlab ~loss:0.02 ~bucket:60.
  in
  let storm =
    Storm.create ~telemetry sim (Rng.create ~seed:(seed + 12)) overlay net
      { Storm.default_config with hedge_after = Some 2.; breaker = Some Breaker.default_config }
  in
  let n = Array.length inp.times in
  (* A lookup whose origin is offline is issued by the next online peer. *)
  let rec online_from o k = if k = 0 || Net.online net o then o else online_from ((o + 1) mod cfg.peers) (k - 1) in
  let next = ref 0 in
  let rec arrive () =
    let i = !next in
    incr next;
    let origin = online_from inp.origins.(i) cfg.peers in
    Span.with_ tr "storm.issue" (fun () -> Storm.issue storm ~origin ~key:inp.keys.(i));
    if !next < n then Sim.schedule_at sim ~time:inp.times.(!next) arrive
  in
  if n > 0 then Sim.schedule_at sim ~time:inp.times.(0) arrive;
  Churn.install ~clamp:true sim (Rng.create ~seed:(seed + 13))
    (Churn.paper_params ~start:inp.churn_at ~stop:inp.stop_at)
    ~node_ids:(List.init cfg.peers Fun.id)
    ~set_online:(fun id v -> Span.with_ tr "simnet.set_online" (fun () -> Net.set_online net id v));
  let phases = phases_of cfg inp in
  let backlog_peak = ref 0 in
  let run_to time =
    if calibrate then Calib.tick ();
    Span.with_ tr "simnet.run_until" (fun () -> Sim.run_until sim ~time);
    backlog_peak := max !backlog_peak (Net.backlog net)
  in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let clock = Calib.start () in
  Array.iter
    (fun p ->
      let mid = (p.from_t +. p.to_t) /. 2. in
      let t = ref (p.from_t +. cfg.window) in
      while !t < p.to_t do
        run_to !t;
        if !t <= mid && !t +. cfg.window > mid then p.mid_backlog <- Net.backlog net;
        t := !t +. cfg.window
      done;
      run_to p.to_t;
      p.end_backlog <- Net.backlog net)
    phases;
  Span.with_ tr "simnet.run_until" (fun () -> Sim.run sim);
  let wall = Calib.seconds clock in
  let g1 = Gc.quick_stat () in
  {
    stats = Storm.stats storm;
    completions = Storm.completions storm;
    in_flight = Storm.in_flight storm;
    events = Sim.processed sim;
    sent = Net.messages_sent net;
    dropped = Net.messages_dropped net;
    shed = Net.messages_shed net;
    backlog_peak = !backlog_peak;
    phases;
    sim_end = Sim.now sim;
    wall;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    tel_events = (if Telemetry.active telemetry then Telemetry.events_recorded telemetry else 0);
  }

(* Per-phase latency picture of a finished run. *)
type phase_stats = {
  issued : int;
  succeeded : int;
  p50 : float;  (* successful lookups, simulated seconds *)
  p99 : float;
  p99_all : float;  (* failures count as infinitely late *)
  fail_ratio : float;
}

let phase_stats (o : outcome) p =
  let ok = ref [] and issued = ref 0 in
  List.iter
    (fun (c : Storm.completion) ->
      if c.Storm.issued_at >= p.from_t && c.Storm.issued_at < p.to_t then begin
        incr issued;
        if c.Storm.success then ok := (c.Storm.finished_at -. c.Storm.issued_at) :: !ok
      end)
    o.completions;
  let a = Array.of_list !ok in
  Array.sort compare a;
  let succeeded = Array.length a in
  let all = Array.append a (Array.make (!issued - succeeded) infinity) in
  {
    issued = !issued;
    succeeded;
    p50 = Span.percentile a 0.5;
    p99 = Span.percentile a 0.99;
    p99_all = Span.percentile all 0.99;
    fail_ratio = float_of_int (!issued - succeeded) /. float_of_int (max 1 !issued);
  }

(* A step meets the limit when its p99, failures counted as misses, is
   within [limit_s] and its backlog did not grow over its second half
   (end-of-step backlog at most twice the mid-step one plus one queue). *)
let meets cfg p s =
  s.p99_all <= cfg.limit_s
  && p.end_backlog <= (2 * p.mid_backlog) + Net.default_overload.Net.queue_capacity

(* Highest step rate such that it and every lower step meet the limit;
   0 when even the first step misses. *)
let capacity cfg (o : outcome) =
  let cap = ref 0. and ok = ref true in
  Array.iteri
    (fun i p ->
      if i < Array.length cfg.rates then begin
        ok := !ok && meets cfg p (phase_stats o p);
        if !ok then cap := p.rate
      end)
    o.phases;
  !cap

let report cfg (o : outcome) =
  Out.info "netstorm: %-6s %8s %8s %10s %10s %10s %9s %8s %8s %s" "phase" "q/s" "issued" "p50_s" "p99_s"
    "p99_all_s" "fail" "mid_bl" "end_bl" "meets";
  Array.iteri
    (fun i p ->
      let s = phase_stats o p in
      Out.info "netstorm: %-6s %8.1f %8d %10.4f %10.4f %10.4f %9.5f %8d %8d %s (n=%d ok)" p.label p.rate
        s.issued s.p50 s.p99 s.p99_all s.fail_ratio p.mid_backlog p.end_backlog
        (if i < Array.length cfg.rates then string_of_bool (meets cfg p s) else "-")
        s.succeeded)
    o.phases;
  let st = o.stats in
  Out.info "netstorm: capacity %.1f q/s at p99 <= %.1f s; %d issued, %d ok, %d failed; %d events in %.3f s \
            wall (%.0f sim s per wall s)"
    (capacity cfg o) cfg.limit_s st.Storm.issued st.Storm.succeeded st.Storm.failed o.events o.wall
    (o.sim_end /. o.wall)

let gates out inp (o : outcome) =
  let st = o.stats in
  Out.check out (o.in_flight = 0) "netstorm: %d requests still in flight after draining" o.in_flight;
  Out.check out (st.Storm.issued = st.Storm.succeeded + st.Storm.failed)
    "netstorm: issued %d <> succeeded %d + failed %d" st.Storm.issued st.Storm.succeeded st.Storm.failed;
  Out.check out (st.Storm.issued = Array.length inp.times) "netstorm: %d lookups issued, %d scheduled"
    st.Storm.issued (Array.length inp.times);
  Out.check out (List.length o.completions = st.Storm.issued) "netstorm: %d completions for %d lookups"
    (List.length o.completions) st.Storm.issued

(* Deterministic parts of two simulations of the same inputs. *)
let same (a : outcome) (b : outcome) =
  a.stats = b.stats && a.events = b.events && a.sent = b.sent && a.completions = b.completions

let run_e2e out cfg ~seed ~seconds =
  let (inp, overlay, deviation), setup_s =
    Calib.repeat_setup out ~what:"netstorm" ~reps:cfg.setups
      ~key:(fun (_, _, deviation) -> deviation)
      (fun () ->
        let inp = make_inputs cfg ~seed ~seconds in
        let o =
          Round.run_with_keys (Rng.create ~seed:(seed + 1)) (Round.default_params ~peers:cfg.peers)
            ~assignments:inp.assignments
        in
        (inp, o.Round.overlay, o.Round.deviation))
  in
  let k_setup = Calib.take () in
  Out.memory_checkpoint out (overlay, inp);
  Out.info "netstorm: %d peers, %d lookups over %.0f simulated s, set-up %.3f s (median of %d)" cfg.peers
    (Array.length inp.times) inp.stop_at setup_s cfg.setups;
  let o = simulate ~calibrate:true cfg ~seed overlay inp in
  Out.memory_checkpoint out (overlay, inp, o);
  gates out inp o;
  report cfg o;
  let sustained_until = o.phases.(cfg.sustained - 1).to_t in
  let ok =
    List.filter_map
      (fun (c : Storm.completion) ->
        if c.Storm.success && c.Storm.issued_at < sustained_until then
          Some (c.Storm.finished_at -. c.Storm.issued_at)
        else None)
      o.completions
    |> Array.of_list
  in
  Array.sort compare ok;
  let st = o.stats in
  Out.info "netstorm: end-to-end latency over the %d successful lookups of steps 1-%d" (Array.length ok)
    cfg.sustained;
  Out.attempt out st.Storm.issued;
  let k = Calib.take () in
  Out.add out "setup_s" "s" (k_setup *. setup_s);
  Out.add out "ops_per_s" "ops/s" (float_of_int st.Storm.issued /. (k *. o.wall));
  Out.add out "latency_p50_ms" "ms" (Span.percentile ok 0.5 *. 1e3);
  Out.add out "latency_p99_ms" "ms" (Span.percentile ok 0.99 *. 1e3);
  Out.add out "msgs_per_op" "msgs/op" (float_of_int o.sent /. float_of_int (max 1 st.Storm.issued));
  Out.add out "success_ratio" "ratio" (float_of_int st.Storm.succeeded /. float_of_int (max 1 st.Storm.issued));
  Out.add out "build_deviation" "ratio" deviation

let run_traced out cfg ~seed ~seconds =
  let inp = make_inputs cfg ~seed ~seconds in
  let tr = Span.create () in
  let d =
    Construct.run ~tr (Rng.create ~seed:(seed + 1)) (Round.default_params ~peers:cfg.peers)
      ~assignments:inp.assignments
  in
  let overlay = d.Construct.overlay in
  let base = simulate cfg ~seed overlay inp in
  gates out inp base;
  report cfg base;
  let traced = simulate ~tr cfg ~seed overlay inp in
  let ring = Pgrid_telemetry.Ring.create ~capacity:65_536 in
  let telemetry = Telemetry.create () in
  Telemetry.add_sink telemetry (Pgrid_telemetry.Sink.ring ring);
  let live = simulate ~telemetry cfg ~seed overlay inp in
  Out.check out (same base traced) "netstorm: traced simulation diverged from the untraced one";
  Out.check out (same base live) "netstorm: live telemetry changed the simulation";
  let tbl = Span.summary tr in
  Wl_build.layer_metrics out d tbl ~peers:cfg.peers;
  let st = base.stats in
  let windows = Span.find tbl "simnet.run_until" in
  Out.addi out "simnet.events" "count" base.events;
  Out.add out "simnet.event_ns" "ns" (float_of_int windows.Span.self_ns /. float_of_int (max 1 traced.events));
  Out.add out "storm.issue_ns" "ns" (Span.mean_ns tbl "storm.issue");
  Out.addi out "simnet.msgs_sent" "count" base.sent;
  Out.addi out "simnet.msgs_dropped" "count" base.dropped;
  Out.addi out "simnet.msgs_shed" "count" base.shed;
  Out.addi out "simnet.queue_peak" "count" st.Storm.queue_peak;
  Out.addi out "simnet.backlog_peak" "count" base.backlog_peak;
  Out.addi out "storm.timeouts" "count" st.Storm.timeouts;
  Out.addi out "storm.retries" "count" st.Storm.retries;
  Out.addi out "storm.give_ups" "count" st.Storm.give_ups;
  Out.addi out "storm.hedges" "count" st.Storm.hedges;
  Out.addi out "storm.hedge_wins" "count" st.Storm.hedge_wins;
  Out.addi out "storm.breaker_opens" "count" st.Storm.breaker_opens;
  Out.addi out "storm.breaker_skips" "count" st.Storm.breaker_skips;
  Out.add out "storm.msgs_per_success" "msgs"
    (float_of_int base.sent /. float_of_int (max 1 st.Storm.succeeded));
  Array.iter
    (fun p ->
      let s = phase_stats base p in
      if p.label = "churn" then begin
        Out.add out "storm.churn_p99_s" "s" s.p99;
        Out.add out "storm.churn_fail_ratio" "ratio" s.fail_ratio
      end
      else begin
        Out.add out ("storm.p50_s." ^ p.label) "s" s.p50;
        Out.add out ("storm.p99_s." ^ p.label) "s" s.p99;
        Out.add out ("storm.fail_ratio." ^ p.label) "ratio" s.fail_ratio
      end)
    base.phases;
  Out.add out "storm.capacity_qps" "q/s" (capacity cfg base);
  Out.add out "simnet.sim_s_per_wall_s" "s/s" (base.sim_end /. base.wall);
  Out.add out "gc.netstorm_minor_words_per_event" "words" (base.minor_words /. float_of_int (max 1 base.events));
  Out.addi out "telemetry.events" "count" live.tel_events;
  Out.add out "telemetry.on_overhead" "ratio" ((live.wall /. base.wall) -. 1.);
  Out.add out "bench.trace_overhead" "ratio" ((traced.wall /. base.wall) -. 1.);
  Out.attempt out st.Storm.issued;
  (tr, tbl)
