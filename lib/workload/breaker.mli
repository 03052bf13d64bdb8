(** Per-shard circuit breaker for the KV serving layer (DESIGN.md §13).

    Classical closed / open / half-open machine, structured like
    [Adapt.Controller]: a pure deterministic core ({!admit}, {!report},
    {!tick}) over explicit state, plus a thin shell ({!t}) that owns
    one mutable state cell per shard and turns transitions into
    [kv.breaker.*] metrics and [Breaker] trace events.

    Inputs come from the same lib/obs signals the adaptive controller
    reads — per-shard retired backlog and the request p99 — plus
    per-request success/failure reports. Memory pressure degrades a
    Closed breaker to read-only (writes shed, reads admitted) with
    hysteresis before it trips fully open; the trip cause
    (failures/backlog/latency) is carried in the state and surfaced in
    the trace.

    Liveness: Open always counts down to Half_open; Half_open admits
    exactly [probe_quota] probes, closes after [close_after] successes,
    re-opens on a probe failure, and closes after a quiet healthy
    window when no traffic arrives — so the breaker can only stay
    non-Closed while something is actually failing ("never wedges
    open", property-tested in test_resilience.ml). *)

type cause = Failures | Backlog | Latency

type state =
  | Closed of { fails : int; shed_writes : bool }
  | Open of { left : int; cause : cause }
  | Half_open of { probes_left : int; ok : int; idle : int }

type kind = Read | Write

type decision =
  | Admit  (** serve normally *)
  | Admit_probe  (** serve; one of the half-open probe quota *)
  | Shed  (** reject: breaker open (or probe quota exhausted) *)
  | Shed_write  (** reject: read-only degradation under memory pressure *)

type transition = To_open of cause | To_half_open | To_closed

type config = {
  trip_failures : int;
  backlog_trip : int;
  shed_writes_at : int;
  shed_writes_clear : int;
  p99_trip : int;
  open_ticks : int;
  probe_quota : int;
  close_after : int;
}

val validate_config : config -> unit
(** Raises [Invalid_argument] on non-positive thresholds, inverted
    hysteresis, or [close_after] outside [1, probe_quota]. *)

val init : state
val state_name : state -> string

(** {2 Pure core — deterministic, replayable} *)

val admit : config -> state -> kind -> state * decision
val report : config -> state -> ok:bool -> state * transition option
val tick : config -> state -> backlog:int -> p99:int option -> state * transition option

(** {2 Shell — one per shard, metrics + trace on transitions} *)

type t

val create : config:config -> shard:int -> t
(** Raises [Invalid_argument] as {!validate_config} does. *)

val admit_req : t -> pid:int -> kind -> decision
val report_req : t -> pid:int -> ok:bool -> transition option
val on_tick : t -> pid:int -> backlog:int -> p99:int option -> transition option
