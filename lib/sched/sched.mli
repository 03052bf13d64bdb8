(** Deterministic schedule exploration for the lock-free cores.

    See DESIGN.md §8. Every protocol atomic of the reclamation stack
    goes through {!Atomic}: [Stdlib.Atomic] behind one test of a mode
    word, plain until a controller runs an opted-in scenario (each op
    becomes a scheduling point, see {!interpose}) or a counting window
    is open (each op is tallied, see {!Atomic.counting}). The explorers
    enumerate or sample schedules of the production code; every
    failure carries a deterministic replay recipe. *)

(** Operation kinds, as reported to a tracer and tallied by a counting
    window. *)
type op_kind = Op_get | Op_set | Op_exchange | Op_cas of bool | Op_faa

(** The atomic operations of every protocol core. Outside an
    interposed fiber or a counting window each op is the
    [Stdlib.Atomic] op after one test of the mode word. The non-plain
    modes are single-domain: nothing else may run atomics on other
    domains meanwhile. *)
module Atomic : sig
  type 'a t = 'a Stdlib.Atomic.t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int

  val interposed : unit -> bool
  (** [true] while an interposed fiber runs. Seeded
      protocol mutants test it, so that no leftover setting can reach
      production code. *)

  val plain : (unit -> 'a) -> 'a
  (** [plain f] runs [f] with every op plain: neither a scheduling
      point, nor reported, nor counted. For a scenario's read-back of
      protocol state that production code never performs. [f] must not
      {!yield}. *)

  (** {2 Counting windows}

      Exact per-kind counters for the atomics profiles (DESIGN.md §11).
      Single-domain: the counters are plain. [make] is never counted. *)

  type counts = {
    gets : int;
    sets : int;
    exchanges : int;
    cas : int;  (** CAS attempts, successful or not *)
    cas_failures : int;  (** the failed subset of [cas] *)
    faa : int;
  }

  val counting : (unit -> 'a) -> 'a
  (** [counting f] runs [f] with every op tallied; the
      counters accumulate across windows until {!reset}. *)

  val reset : unit -> unit
  val snapshot : unit -> counts

  val total : counts -> int
  (** All counted operations; [cas_failures] is a subset of [cas] and
      is not re-added. *)
end

val yield : unit -> unit
(** Explicit scheduling point. No-op outside a controller; under one,
    hands control to the scheduler. Scenarios that do not opt into
    interposition schedule only at these points. *)

(** {1 Interposition}

    The event feed for schedule-level analyses (the happens-before
    sanitizer in [lib/analysis], DESIGN.md §14). *)

type op_event = {
  op_fiber : int;  (** executing fiber index *)
  op_step : int;  (** controller step at which the op executed *)
  op_loc : int;  (** the cell's id, assigned per run in order of first use *)
  op_kind : op_kind;
}

val interpose : (op_event -> unit) -> unit
(** Opt the scenario being built into interposition: while the next
    run executes one of its fibers, every {!Atomic} op is a scheduling
    point and is reported — after it takes effect — to the given
    tracer. Setup, the [check] oracle and cleanup stay plain.
    Per-schedule state: {e every} run clears it when it finishes, so
    scenario builders call it on each [mk ()]. *)

val current_fiber : unit -> int
(** Index of the fiber currently executing under a controller, or [-1]
    outside fiber context. Monitors use this to attribute non-atomic
    protocol events (deref/retire/free) to fibers. *)

val current_step : unit -> int
(** The controller step of the currently-executing fiber segment. *)

(** {1 Scenarios} *)

type scenario = {
  fibers : (unit -> unit) array;  (** one function per simulated domain *)
  check : unit -> unit;  (** final-state oracle; raise to report a violation *)
}
(** A schedule-exploration subject. Builders must return a {e fresh}
    scenario on every call (explorers re-execute from scratch for each
    schedule), and must be deterministic apart from scheduling. *)

exception Step_bound_exceeded of int
(** Raised (as a verdict) when a single schedule exceeds its step
    budget — livelock under that schedule, or a too-small bound. *)

(** {1 Results} *)

type failure = {
  f_trace : int list;  (** executed schedule (fiber index per step) *)
  f_message : string;  (** rendering of the violation *)
  f_replay : string;  (** how to reproduce: trace or seed recipe *)
  f_schedules : int;  (** schedules executed up to and including the failure *)
}

type result =
  | Pass of { schedules : int }
  | Fail of failure
  | Exhausted of { schedules : int }
      (** schedule budget hit before the search completed *)

val pp_result : Format.formatter -> result -> unit
val pp_trace : Format.formatter -> int list -> unit

val trace_to_string : int list -> string
(** Render a schedule as ["[0;1;1;0]"]. *)

val trace_of_string : string -> int list
(** Parse the {!trace_to_string} format (also accepts commas as
    separators and surrounding whitespace). Strict: raises
    [Invalid_argument] — naming the offending token — on unbalanced
    brackets, empty elements, non-numeric or overflowing tokens, and
    negative fiber indices. Never silently truncates. *)

(** {1 Explorers} *)

val explore_dfs :
  ?max_steps:int ->
  ?max_schedules:int ->
  ?max_preemptions:int ->
  (unit -> scenario) ->
  result
(** Exhaustive depth-first enumeration of schedules. [max_preemptions]
    bounds context switches away from a still-runnable fiber
    (CHESS-style); omit it for full exhaustiveness on tiny configs.
    [max_schedules] (default 1e6) turns a runaway search into
    {!Exhausted} rather than a hang. *)

val explore_random : ?max_steps:int -> ?iters:int -> seed:int -> (unit -> scenario) -> result
(** [iters] independent uniformly-random walks; run [i] uses a seed
    derived from [(seed, i)], so a failing (seed, iter) pair replays. *)

val explore_pct :
  ?max_steps:int -> ?iters:int -> ?depth:int -> seed:int -> (unit -> scenario) -> result
(** PCT (probabilistic concurrency testing): random fiber priorities
    plus [depth - 1] random priority-change points per run. Detects a
    depth-[d] bug with probability ≥ 1/(n·k^(d-1)) per run. *)

val replay : ?max_steps:int -> trace:int list -> (unit -> scenario) -> result
(** Deterministically re-run one schedule (e.g. a counterexample's
    [f_trace]); past the end of the trace, continues first-runnable. *)
