(** Target registry and runner for the schedule-exploration harness:
    the named scenarios the [cdrc-bench explore] subcommand and the CI
    smoke/sanitize stages drive. See {!Scenarios} for the scenarios
    themselves and [Sched] for the explorers. *)

module Scenarios = Scenarios

type target = {
  t_name : string;
  t_doc : string;
  t_mk : unit -> Sched.scenario;
  t_expect_fail : bool;
      (** Mutants and deliberate bugs: finding a counterexample is the
          passing outcome, and surviving exploration is the failure —
          these targets prove the harness can detect the real bug. *)
}

val targets : target list
(** The exploration registry ([cdrc-bench explore]). Every target's
    scenario reports to an [Analysis.Race_monitor] (DESIGN.md §14):
    clean ones assert zero counterexamples under exhaustive DFS; MUTANT
    ones carry seeded protocol bugs the explorer must catch. *)

val find : string -> target option

type mode = Dfs | Pct | Random

val run_target :
  target ->
  mode:mode ->
  seed:int ->
  iters:int ->
  max_preemptions:int option ->
  max_steps:int ->
  depth:int ->
  replay:int list option ->
  Sched.result
(** Run one target under the given explorer (or replay one pinned
    schedule when [replay] is set). *)

val report : Format.formatter -> target -> Sched.result -> int
(** Interpret an exploration result against the target's expectation;
    returns the process exit code (0 = the harness behaved as the
    target demands) and prints a human report, including the replay
    recipe for any counterexample. *)
