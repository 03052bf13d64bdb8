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

let target ?(mutant = false) t_name t_doc t_mk = { t_name; t_doc; t_mk; t_expect_fail = mutant }

(* The clean targets assert zero counterexamples (and zero monitor
   violations) under exhaustive DFS; the MUTANT ones carry seeded
   protocol bugs the explorer must catch, naming the racing pair. *)
let targets =
  [
    target "sticky-one-death"
      "sticky counter: 2 domains x 3 inc/dec bursts, exactly one death credit (Fig 7)"
      (fun () -> Scenarios.sticky_one_death ~domains:2 ~ops:3 ());
    target "sticky-load-vs-dec"
      "sticky counter: loads racing the killing decrement (zero/help-flag dance)"
      (fun () -> Scenarios.sticky_load_vs_decrement ());
    target ~mutant:true "sticky-drop-help"
      "MUTANT: load omits the help-flag publish; the lost death credit must be found"
      (fun () -> Scenarios.sticky_load_vs_decrement ~mutate:true ());
    target "slots"
      "acquire-retire over HP: reader vs retire+eject, no UAF, zero violations (Fig 2)"
      (fun () -> Scenarios.slots ());
    target ~mutant:true "slots-skip-validate"
      "MUTANT: HP confirm always succeeds; the unprotected access must be found"
      (fun () -> Scenarios.slots ~mutant:Scenarios.Skip_confirm ());
    target ~mutant:true "slots-drop-announce"
      "MUTANT: HP announces null; the unprotected access must be caught"
      (fun () -> Scenarios.slots ~mutant:Scenarios.Drop_announce ());
    target "weak-upgrade"
      "CDRC weak upgrade vs final strong drop: dispose once, free once, ledger balances \
       (Figs 8-9)"
      (fun () -> Scenarios.weak_upgrade ());
    target ~mutant:true "rc-extra-dec"
      "MUTANT: one fiber drops its strong reference twice; the ledger must flag it"
      (fun () -> Scenarios.weak_upgrade ~mutate:true ());
    target "handoff" "ownership hand-off: deref ordered before free by the ack edge"
      (fun () -> Scenarios.handoff ());
    target ~mutant:true "handoff-retire-early"
      "MUTANT: retire+free reordered before the hand-off; the racing deref must be caught"
      (fun () -> Scenarios.handoff ~mutate:true ());
    target ~mutant:true "racy-counter"
      "harness self-check: a racy RMW whose lost update MUST be found"
      (fun () -> Scenarios.racy_counter ());
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
