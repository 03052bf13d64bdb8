(** Target registry and runner for the schedule-exploration harness:
    the named scenarios the [cdrc-bench explore] subcommand and the CI
    smoke/sanitize stages drive. See {!Scenarios} and {!San_scenarios}
    for the scenarios themselves and [Sched] for the explorers. *)

module Scenarios = Scenarios
module San_scenarios = San_scenarios

type target = {
  t_name : string;
  t_doc : string;
  t_mk : unit -> Sched.scenario;
  t_expect_fail : bool;
      (** Mutants and deliberate bugs: finding a counterexample is the
          passing outcome, and surviving exploration is the failure —
          these targets prove the harness can detect the real bug. *)
}

let targets =
  [
    {
      t_name = "sticky-one-death";
      t_doc = "sticky counter: 2 domains x 3 inc/dec bursts, exactly one death credit (Fig 7)";
      t_mk = (fun () -> Scenarios.sticky_one_death ~domains:2 ~ops:3 ());
      t_expect_fail = false;
    };
    {
      t_name = "sticky-load-vs-dec";
      t_doc = "sticky counter: loads racing the killing decrement (zero/help-flag dance)";
      t_mk = (fun () -> Scenarios.sticky_load_vs_decrement ());
      t_expect_fail = false;
    };
    {
      t_name = "sticky-drop-help";
      t_doc = "MUTANT: load omits the help-flag publish; the lost death credit must be found";
      t_mk = (fun () -> Scenarios.sticky_load_vs_decrement ~mutate:true ());
      t_expect_fail = true;
    };
    {
      t_name = "slots";
      t_doc = "acquire-retire announcement slots: reader vs retire+eject, no UAF (Fig 2)";
      t_mk = (fun () -> Scenarios.slots_reclaim ());
      t_expect_fail = false;
    };
    {
      t_name = "slots-skip-validate";
      t_doc = "MUTANT: reader skips the confirm re-read; the use-after-free must be found";
      t_mk = (fun () -> Scenarios.slots_reclaim ~mutate:true ());
      t_expect_fail = true;
    };
    {
      t_name = "weak-upgrade";
      t_doc = "CDRC weak upgrade vs final strong drop: dispose once, free once (Figs 8-9)";
      t_mk = (fun () -> Scenarios.weak_upgrade ());
      t_expect_fail = false;
    };
    {
      t_name = "racy-counter";
      t_doc = "harness self-check: a racy RMW whose lost update MUST be found";
      t_mk = (fun () -> Scenarios.racy_counter ());
      t_expect_fail = true;
    };
    (* Sanitized targets (DESIGN.md §14): the same kernels wrapped so
       an [Analysis.Race_monitor] checks each explored schedule for
       lifetime-rule violations. The clean ones assert zero false
       positives under exhaustive DFS; the MUTANT ones carry seeded
       protocol bugs the sanitizer must catch, naming the two racing
       operations. *)
    {
      t_name = "san-slots";
      t_doc = "sanitized announcement slots: reader vs retire+eject, zero violations (Fig 2)";
      t_mk = (fun () -> San_scenarios.san_slots ());
      t_expect_fail = false;
    };
    {
      t_name = "san-slots-drop-acquire";
      t_doc = "MUTANT: the announcement write is dropped; the unprotected access must be caught";
      t_mk = (fun () -> San_scenarios.san_slots ~mutate:true ());
      t_expect_fail = true;
    };
    {
      t_name = "san-handoff";
      t_doc = "sanitized ownership hand-off: deref ordered before free by the ack edge";
      t_mk = (fun () -> San_scenarios.san_handoff ());
      t_expect_fail = false;
    };
    {
      t_name = "san-handoff-retire-early";
      t_doc = "MUTANT: retire+free reordered before the hand-off; the racing deref must be caught";
      t_mk = (fun () -> San_scenarios.san_handoff ~mutate:true ());
      t_expect_fail = true;
    };
    {
      t_name = "san-weak-upgrade";
      t_doc = "sanitized CDRC strong-counter ledger: upgrades and drops balance exactly (Figs 8-9)";
      t_mk = (fun () -> San_scenarios.san_weak_upgrade ());
      t_expect_fail = false;
    };
    {
      t_name = "san-rc-extra-dec";
      t_doc = "MUTANT: one fiber drops its strong reference twice; the ledger must flag it";
      t_mk = (fun () -> San_scenarios.san_weak_upgrade ~mutate:true ());
      t_expect_fail = true;
    };
  ]

let find name = List.find_opt (fun t -> t.t_name = name) targets

type mode = Dfs | Pct | Random

let mode_of_string = function
  | "dfs" -> Some Dfs
  | "pct" -> Some Pct
  | "random" -> Some Random
  | _ -> None

let run_target (t : target) ~mode ~seed ~iters ~max_preemptions ~max_steps ~depth
    ~(replay : int list option) : Sched.result =
  match replay with
  | Some trace -> Sched.replay ~max_steps ~trace t.t_mk
  | None -> (
      match mode with
      | Dfs -> Sched.explore_dfs ~max_steps ?max_preemptions t.t_mk
      | Pct -> Sched.explore_pct ~max_steps ~iters ~depth ~seed t.t_mk
      | Random -> Sched.explore_random ~max_steps ~iters ~seed t.t_mk)

(** Interpret an exploration result against the target's expectation;
    returns the process exit code (0 = the harness behaved as the
    target demands) and prints a human report, including the replay
    recipe for any counterexample. *)
let report ppf (t : target) (r : Sched.result) : int =
  match (r, t.t_expect_fail) with
  | Sched.Pass { schedules }, false ->
      Format.fprintf ppf "%s: pass (%d schedules, no counterexample)@." t.t_name schedules;
      0
  | Sched.Pass { schedules }, true ->
      Format.fprintf ppf
        "%s: MUTANT SURVIVED %d schedules — the harness failed to find the injected bug@."
        t.t_name schedules;
      1
  | Sched.Exhausted { schedules }, _ ->
      Format.fprintf ppf "%s: inconclusive — schedule budget exhausted after %d schedules@."
        t.t_name schedules;
      1
  | Sched.Fail f, true ->
      Format.fprintf ppf "%s: mutant caught after %d schedules (%s)@.  schedule %a@." t.t_name
        f.Sched.f_schedules f.Sched.f_message Sched.pp_trace f.Sched.f_trace;
      0
  | Sched.Fail f, false ->
      Format.fprintf ppf "%s: COUNTEREXAMPLE after %d schedules:@.  %s@.  schedule %a@.  replay: %s@."
        t.t_name f.Sched.f_schedules f.Sched.f_message Sched.pp_trace f.Sched.f_trace
        f.Sched.f_replay;
      1
