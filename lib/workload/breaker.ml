(* Per-shard circuit breaker for the KV serving layer.

   Pure deterministic core + thin imperative shell, the same geometry
   as [Adapt.Controller]: [admit]/[report]/[tick] are pure functions of
   (config, state, inputs) returning a new state plus what changed, so
   every transition sequence replays bit-identically from the same
   inputs and the qcheck properties in test_resilience.ml quantify
   over reachable states directly. The shell owns one mutable state
   cell per shard and translates transitions into kv.breaker.* metrics
   and trace events.

   The state machine is the classical closed/open/half-open triangle
   with two CDRC-specific twists:

   - Memory pressure has its own, earlier line of defense: a Closed
     breaker past [shed_writes_at] backlog degrades to read-only
     (writes shed, reads admitted) with hysteresis at
     [shed_writes_clear] — mirroring the SLO-guard regrow geometry in
     lib/adapt — because in this system writes are what retire
     memory into a stalled shard's backlog while reads are harmless.

   - Open is entered for three distinct causes (consecutive request
     failures, backlog past [backlog_trip], p99 past [p99_trip]);
     the cause is carried in the state and surfaced in the trace so a
     campaign log says *why* a shard went dark.

   Liveness by construction: Open always counts down to Half_open;
   Half_open closes after [close_after] probe successes, re-opens on a
   probe failure, and — when no traffic arrives at all — closes after
   [open_ticks] quiet ticks with healthy signals. So the breaker can
   only stay non-Closed while something is actually failing, which is
   the "never wedges open" property the tests assert. *)

type cause = Failures | Backlog | Latency

let cause_name = function
  | Failures -> "failures"
  | Backlog -> "backlog"
  | Latency -> "latency"

type state =
  | Closed of { fails : int; shed_writes : bool }
  | Open of { left : int; cause : cause }
  | Half_open of { probes_left : int; ok : int; idle : int }

type kind = Read | Write

type decision = Admit | Admit_probe | Shed | Shed_write

type transition = To_open of cause | To_half_open | To_closed

type config = {
  trip_failures : int;  (** consecutive request failures that trip Closed -> Open *)
  backlog_trip : int;  (** shard backlog at/above this trips Open (memory pressure) *)
  shed_writes_at : int;  (** Closed degrades to read-only at/above this backlog *)
  shed_writes_clear : int;  (** ...and re-admits writes at/below this (hysteresis) *)
  p99_trip : int;  (** request p99 (ticks) at/above this trips Open *)
  open_ticks : int;  (** ticks spent Open before probing (and quiet-close budget) *)
  probe_quota : int;  (** requests admitted while Half_open *)
  close_after : int;  (** probe successes needed to close; <= probe_quota *)
}

let validate_config c =
  let req b msg = if not b then invalid_arg ("Breaker: " ^ msg) in
  req (c.trip_failures >= 1) "trip_failures must be >= 1";
  req (c.backlog_trip >= 1) "backlog_trip must be >= 1";
  req
    (c.shed_writes_clear <= c.shed_writes_at)
    "shed_writes_clear must be <= shed_writes_at (hysteresis)";
  req (c.shed_writes_at <= c.backlog_trip) "shed_writes_at must be <= backlog_trip";
  req (c.p99_trip >= 1) "p99_trip must be >= 1";
  req (c.open_ticks >= 1) "open_ticks must be >= 1";
  req (c.probe_quota >= 1) "probe_quota must be >= 1";
  req
    (c.close_after >= 1 && c.close_after <= c.probe_quota)
    "close_after must be in [1, probe_quota]"

let init = Closed { fails = 0; shed_writes = false }

let state_name = function
  | Closed { shed_writes = false; _ } -> "closed"
  | Closed { shed_writes = true; _ } -> "closed-readonly"
  | Open _ -> "open"
  | Half_open _ -> "half-open"

(* ------------------------------ pure core ------------------------- *)

let admit _cfg st kind =
  match st with
  | Closed { shed_writes = true; _ } when kind = Write -> (st, Shed_write)
  | Closed _ -> (st, Admit)
  | Open _ -> (st, Shed)
  | Half_open { probes_left = 0; _ } -> (st, Shed)
  | Half_open h ->
      (Half_open { h with probes_left = h.probes_left - 1; idle = 0 }, Admit_probe)

let report cfg st ~ok =
  match st with
  | Closed c when ok -> (Closed { c with fails = 0 }, None)
  | Closed c ->
      let fails = c.fails + 1 in
      if fails >= cfg.trip_failures then
        (Open { left = cfg.open_ticks; cause = Failures }, Some (To_open Failures))
      else (Closed { c with fails }, None)
  | Half_open h when ok ->
      let okn = h.ok + 1 in
      if okn >= cfg.close_after then (init, Some To_closed)
      else (Half_open { h with ok = okn; idle = 0 }, None)
  | Half_open _ ->
      (* A failed probe re-opens immediately: the shard is still sick. *)
      (Open { left = cfg.open_ticks; cause = Failures }, Some (To_open Failures))
  | Open _ -> (st, None)
  (* reports from requests admitted before the trip land here; ignore *)

let healthy cfg ~backlog ~p99 =
  backlog < cfg.backlog_trip
  && match p99 with None -> true | Some p -> p < cfg.p99_trip

let tick cfg st ~backlog ~p99 =
  match st with
  | Closed c ->
      if backlog >= cfg.backlog_trip then
        (Open { left = cfg.open_ticks; cause = Backlog }, Some (To_open Backlog))
      else if (match p99 with Some p -> p >= cfg.p99_trip | None -> false) then
        (Open { left = cfg.open_ticks; cause = Latency }, Some (To_open Latency))
      else
        let shed_writes =
          if backlog >= cfg.shed_writes_at then true
          else if backlog <= cfg.shed_writes_clear then false
          else c.shed_writes
        in
        (Closed { c with shed_writes }, None)
  | Open o ->
      if o.left <= 1 then
        ( Half_open { probes_left = cfg.probe_quota; ok = 0; idle = 0 },
          Some To_half_open )
      else (Open { o with left = o.left - 1 }, None)
  | Half_open h ->
      (* No-traffic liveness: with healthy signals and no probes in
         flight for a full open_ticks window, close rather than wedge. *)
      if healthy cfg ~backlog ~p99 then
        let idle = h.idle + 1 in
        if idle >= cfg.open_ticks then (init, Some To_closed)
        else (Half_open { h with idle }, None)
      else (Open { left = cfg.open_ticks; cause = Backlog }, Some (To_open Backlog))

(* --------------------------- imperative shell --------------------- *)

let trip_c = Obs.Metrics.counter "kv.breaker.trip"
let close_c = Obs.Metrics.counter "kv.breaker.close"
let probe_c = Obs.Metrics.counter "kv.breaker.probe"
let shed_c = Obs.Metrics.counter "kv.breaker.shed"

type t = { cfg : config; shard : int; mutable st : state }

let create ~config ~shard =
  validate_config config;
  { cfg = config; shard; st = init }

let note t ~pid tr =
  (match tr with
  | To_open _ -> Obs.Metrics.incr trip_c ~pid
  | To_closed -> Obs.Metrics.incr close_c ~pid
  | To_half_open -> ());
  let cause = match tr with To_open c -> cause_name c | _ -> "recovered" in
  Obs.Trace.emit ~pid
    (Obs.Trace.Breaker { shard = t.shard; state = state_name t.st; cause })

let admit_req t ~pid kind =
  let st, d = admit t.cfg t.st kind in
  t.st <- st;
  (match d with
  | Admit_probe -> Obs.Metrics.incr probe_c ~pid
  | Shed | Shed_write -> Obs.Metrics.incr shed_c ~pid
  | Admit -> ());
  d

let report_req t ~pid ~ok =
  let st, tr = report t.cfg t.st ~ok in
  t.st <- st;
  Option.iter (note t ~pid) tr;
  tr

let on_tick t ~pid ~backlog ~p99 =
  let st, tr = tick t.cfg t.st ~backlog ~p99 in
  t.st <- st;
  Option.iter (note t ~pid) tr;
  tr
