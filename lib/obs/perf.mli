(** Versioned, machine-readable perf summaries and the regression
    comparator behind `tools/bench_check` (DESIGN.md §11).

    A summary is one point on the perf trajectory: per
    scheme×structure×thread-count throughput, retire→free latency and
    eject batch-size quantiles, peak live/backlog memory, plus the
    exact atomic-op profiles of the lock-free cores measured in a
    [Sched.Atomic] counting window. Encoded and decoded through {!Json}; summaries
    round-trip bit-identically at the emitted precision. *)

val schema_version : int

type quantiles = { q_count : int; q_p50 : int; q_p99 : int; q_p999 : int }

val quantiles_empty : quantiles

val quantiles_of_counts : int array -> quantiles
(** Nearest-rank quantiles over merged {!Histo} bucket counts (same
    computation as [Histo.percentiles], over an external array). *)

type cell = {
  c_scheme : string;
  c_structure : string;  (** "stack" | "queue" | "hash" *)
  c_threads : int;
  c_ops : int;
  c_mops : float;
  c_reclaim : quantiles;  (** retire→free latency, operation ticks *)
  c_eject_batch : quantiles;
  c_peak_live : int;
  c_peak_backlog : int;
  c_leaked : int;
}

val cell_key : cell -> string
(** ["scheme/structure/threads"] — the comparator's join key. *)

type atomic_profile = {
  a_core : string;
  a_op : string;
  a_ops : int;
  a_gets : int;
  a_sets : int;
  a_exchanges : int;
  a_cas : int;
  a_cas_failures : int;
  a_faa : int;
}

val atomics_total : atomic_profile -> int
val atomics_per_op : atomic_profile -> float

type meta = {
  m_label : string;
  m_git_sha : string;
  m_host_domains : int;
  m_duration : float;
  m_threads : int list;
  m_scale : int;
}

type summary = { s_meta : meta; s_cells : cell list; s_atomics : atomic_profile list }

val to_string : summary -> string
(** One-line JSON object. *)

val summary_of_string : string -> (summary, string) result
(** Never raises. Errors name the failing field path; integer fields
    reject fractions, exponents and out-of-range literals. *)

val load_file : string -> (summary, string) result

val trajectory : string list -> string list
(** The trajectory points among [files], the names of the form
    [BENCH_PR<N>.json], oldest first: ordered by [N], so
    [BENCH_PR36.json] comes after [BENCH_PR8.json]. *)

val validate : ?require_schemes:string list -> summary -> (unit, string) result
(** Schema-level sanity: non-empty matrix, unique cell keys, ordered
    quantiles, non-negative figures, non-empty atomic profiles, and
    one cell per scheme in [require_schemes]. *)

type regression = {
  r_key : string;
  r_metric : string;  (** ["throughput"] or ["reclaim_p99"] *)
  r_old : float;
  r_new : float;
  r_delta_pct : float;
  r_allowed : bool;
}

val compare_summaries :
  ?throughput_tol:float ->
  ?latency_tol:float ->
  ?allow:string list ->
  summary ->
  summary ->
  regression list * int
(** [compare_summaries base cand]: regressions over the intersection
    of cell keys, and the number of cells compared. Default tolerances:
    15% throughput drop, 25% p99 retire→free growth (both sides under
    8 ticks are bucket-resolution noise and never flagged). [allow]
    entries match a full key or a ['/']-prefix of one. *)

val failed : regression list -> bool
(** True iff any regression is not allowlisted (the exit-1 condition). *)

val pp_regression : Format.formatter -> regression -> unit

val pp : Format.formatter -> summary -> unit
(** The `stats --perf` per-scheme table, including atomics-per-op. *)
