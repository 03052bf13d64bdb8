(* The deterministic schedule-exploration harness (DESIGN.md §8):
   first the harness itself (the DFS explorer must find a known lost
   update, replay must reproduce it, aborted fibers are cleaned up),
   then exhaustive exploration of the production lock-free cores —
   sticky counter (Fig 7), acquire-retire over hazard pointers (Fig 2),
   CDRC weak upgrade (Figs 8-9) — and detection of the seeded
   mutations. *)

module S = Explore.Scenarios

(* ---------------- the harness itself ---------------- *)

let test_finds_lost_update () =
  (* exhaustive, tiny: the racy counter has a lost-update schedule and
     DFS must find it *)
  match Sched.explore_dfs S.racy_counter with
  | Sched.Fail f ->
      Alcotest.(check bool)
        "message mentions lost update" true
        (String.length f.Sched.f_message > 0)
  | r -> Alcotest.failf "racy counter survived exploration: %a" Sched.pp_result r

let test_replay_reproduces () =
  match Sched.explore_dfs S.racy_counter with
  | Sched.Fail f -> (
      match Sched.replay ~trace:f.Sched.f_trace S.racy_counter with
      | Sched.Fail f' ->
          Alcotest.(check (list int)) "same schedule" f.Sched.f_trace f'.Sched.f_trace
      | r -> Alcotest.failf "replay did not reproduce: %a" Sched.pp_result r)
  | r -> Alcotest.failf "no counterexample to replay: %a" Sched.pp_result r

let test_trace_roundtrip () =
  let t = [ 0; 1; 1; 0; 1 ] in
  Alcotest.(check (list int))
    "roundtrip" t
    (Sched.trace_of_string (Sched.trace_to_string t));
  Alcotest.(check (list int)) "commas accepted" t (Sched.trace_of_string "0,1,1,0,1");
  Alcotest.(check (list int)) "empty" [] (Sched.trace_of_string "[]")

let rejects name s =
  match Sched.trace_of_string s with
  | t -> Alcotest.failf "%s: %S parsed as a trace of length %d" name s (List.length t)
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (name ^ ": error names the parser") true
        (String.length msg >= 21 && String.sub msg 0 21 = "Sched.trace_of_string")

let test_trace_garbage_rejected () =
  rejects "word" "bogus";
  rejects "trailing garbage" "[0;1;x]";
  rejects "unbalanced open" "[0;1";
  rejects "unbalanced close" "0;1]";
  rejects "interior bracket" "[0;[1];2]";
  rejects "negative fiber" "[0;-1;2]";
  rejects "overflow" "[0;99999999999999999999999]";
  rejects "empty token" "[0;;1]";
  rejects "float" "[0;1.5]"

let prop_trace_roundtrip =
  QCheck2.Test.make ~name:"trace_of_string inverts trace_to_string" ~count:500
    QCheck2.Gen.(list_size (int_bound 40) (int_bound 8))
    (fun t -> Sched.trace_of_string (Sched.trace_to_string t) = t)

let prop_garbage_never_truncates =
  (* arbitrary strings either parse to a full trace (every token was a
     valid step) or raise Invalid_argument — never a silent prefix *)
  QCheck2.Test.make ~name:"garbage input never silently truncates" ~count:500
    QCheck2.Gen.(string_size ~gen:(oneofl [ '0'; '1'; '9'; ';'; ','; '['; ']'; 'x'; '-'; ' ' ]) (int_bound 12))
    (fun s ->
      match Sched.trace_of_string s with
      | trace ->
          (* count the separator-delimited tokens the parser must have
             consumed (its own normalization: trim, strip one bracket
             pair, trim): all of them, or it should have raised —
             success with any token dropped would be a silent prefix *)
          let s = String.trim s in
          let n = String.length s in
          let body =
            if n >= 2 && s.[0] = '[' && s.[n - 1] = ']' then String.sub s 1 (n - 2)
            else s
          in
          let body = String.trim body in
          let tokens =
            if body = "" then []
            else
              String.split_on_char ';' body |> List.concat_map (String.split_on_char ',')
          in
          List.length trace = List.length tokens
      | exception Invalid_argument _ -> true)

let test_pct_and_random_find_lost_update () =
  (match Sched.explore_random ~iters:200 ~seed:7 S.racy_counter with
  | Sched.Fail _ -> ()
  | r -> Alcotest.failf "random missed the lost update: %a" Sched.pp_result r);
  match Sched.explore_pct ~iters:200 ~depth:3 ~seed:7 S.racy_counter with
  | Sched.Fail _ -> ()
  | r -> Alcotest.failf "pct missed the lost update: %a" Sched.pp_result r

(* A violation aborts the leftover fibers; their finalizers run with
   interposition off. One finalizer raises: the recorded violation
   stays the verdict, and cleanup still reaches the next fiber. *)
let test_aborted_finalizer_raises () =
  let cleaned = ref false in
  let mk () =
    let c = Sched.Atomic.make 0 in
    Sched.interpose ignore;
    {
      Sched.fibers =
        [|
          (fun () ->
            Fun.protect
              ~finally:(fun () -> failwith "finalizer failure")
              (fun () -> Sched.Atomic.set c 1; Sched.Atomic.set c 2));
          (fun () ->
            Fun.protect
              ~finally:(fun () ->
                Sched.Atomic.set c 0;
                cleaned := true)
              (fun () -> Sched.Atomic.set c 3; Sched.Atomic.set c 4));
          (fun () ->
            ignore (Sched.Atomic.get c);
            failwith "violation");
        |];
      check = (fun () -> ());
    }
  in
  match Sched.replay ~trace:[ 0; 0; 1; 1; 2; 2 ] mk with
  | Sched.Fail f ->
      Alcotest.(check string) "the recorded violation wins" "violation" f.Sched.f_message;
      Alcotest.(check bool) "the second finalizer ran" true !cleaned
  | r -> Alcotest.failf "expected the violation: %a" Sched.pp_result r

let test_preemption_bound_prunes () =
  (* with zero preemptions allowed, only domain-ordered schedules run:
     the lost update needs one preemption, so the search passes *)
  match Sched.explore_dfs ~max_preemptions:0 S.racy_counter with
  | Sched.Pass { schedules } ->
      Alcotest.(check bool) "few schedules" true (schedules >= 1 && schedules <= 4)
  | r -> Alcotest.failf "expected pass under 0-preemption bound: %a" Sched.pp_result r

(* ---------------- sticky counter (Fig 7) ---------------- *)

(* The acceptance config: 2 domains x 3 ops, exhaustive up to 2
   preemptions per schedule (the Fig 7 races need at most 2: they are
   one announcement interleaved into one decrement's slow path). *)
let test_sticky_one_death_exhaustive () =
  match
    Sched.explore_dfs ~max_preemptions:2 (fun () -> S.sticky_one_death ~domains:2 ~ops:3 ())
  with
  | Sched.Pass { schedules } ->
      Alcotest.(check bool) "explored many schedules" true (schedules > 100)
  | r -> Alcotest.failf "sticky one-death: %a" Sched.pp_result r

let test_sticky_load_vs_dec_exhaustive () =
  (* small enough for fully unbounded exhaustive search *)
  match Sched.explore_dfs (fun () -> S.sticky_load_vs_decrement ()) with
  | Sched.Pass _ -> ()
  | r -> Alcotest.failf "sticky load-vs-dec: %a" Sched.pp_result r

let test_sticky_drop_help_mutation_caught () =
  (* the injected Fig 7 bug: load announces the death without the help
     flag, so the decrement loses its credit. The explorer must find
     it, and the counterexample must replay. *)
  match Sched.explore_dfs (fun () -> S.sticky_load_vs_decrement ~mutate:true ()) with
  | Sched.Fail f -> (
      Format.printf "drop-help mutant caught, replayable trace %a@." Sched.pp_trace
        f.Sched.f_trace;
      match
        Sched.replay ~trace:f.Sched.f_trace (fun () ->
            S.sticky_load_vs_decrement ~mutate:true ())
      with
      | Sched.Fail _ -> ()
      | r -> Alcotest.failf "mutant trace did not replay: %a" Sched.pp_result r)
  | r -> Alcotest.failf "drop-help mutant survived: %a" Sched.pp_result r

let test_sticky_mutant_needs_the_bad_schedule () =
  (* sanity: under the purely sequential (0-preemption) schedules the
     mutant behaves correctly — the bug is schedule-dependent, which is
     exactly why wall-clock stress cannot reliably hit it *)
  match
    Sched.explore_dfs ~max_preemptions:0 (fun () -> S.sticky_load_vs_decrement ~mutate:true ())
  with
  | Sched.Pass _ -> ()
  | r -> Alcotest.failf "mutant should survive sequential schedules: %a" Sched.pp_result r

(* ---------------- acquire-retire slots (Fig 2) ---------------- *)

let test_slots_no_uaf_exhaustive () =
  match Sched.explore_dfs (fun () -> S.slots ()) with
  | Sched.Pass { schedules } ->
      Alcotest.(check bool) "explored many schedules" true (schedules > 20)
  | r -> Alcotest.failf "slots: %a" Sched.pp_result r

let test_slots_skip_validate_caught () =
  (* The returned node is the settle re-read, which the slot does not
     announce: the violation names node 2, swung in and retired while
     the slot still carries node 1. The trace replays identically. *)
  let mk () = S.slots ~mutant:S.Skip_confirm () in
  match Sched.explore_dfs mk with
  | Sched.Fail f -> (
      let m = f.Sched.f_message in
      let has sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length m && (String.sub m i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("verdict names node 2: " ^ m) true (has "block #2");
      match Sched.replay ~trace:f.Sched.f_trace mk with
      | Sched.Fail f' -> Alcotest.(check string) "same violation" m f'.Sched.f_message
      | r -> Alcotest.failf "mutant trace did not replay: %a" Sched.pp_result r)
  | r -> Alcotest.failf "skip-validate mutant survived: %a" Sched.pp_result r

(* The skip-confirm bug needs three priority changes (reader, reclaimer,
   reader, reclaimer), so PCT must place them at depth 4: every change
   point sinks its fiber below every initial priority. *)
let test_slots_skip_validate_pct () =
  let mk () = S.slots ~mutant:S.Skip_confirm () in
  match Sched.explore_pct ~iters:500 ~depth:4 ~seed:3 mk with
  | Sched.Fail _ -> ()
  | r -> Alcotest.failf "pct at depth 4 missed the skip-validate mutant: %a" Sched.pp_result r

(* ---------------- CDRC weak upgrade (Figs 8-9) ---------------- *)

let test_weak_upgrade_exhaustive () =
  match Sched.explore_dfs (fun () -> S.weak_upgrade ()) with
  | Sched.Pass { schedules } ->
      Alcotest.(check bool) "explored many schedules" true (schedules > 20)
  | r -> Alcotest.failf "weak upgrade: %a" Sched.pp_result r

let test_weak_upgrade_pct_smoke () =
  match Sched.explore_pct ~iters:300 ~depth:3 ~seed:11 (fun () -> S.weak_upgrade ()) with
  | Sched.Pass _ -> ()
  | r -> Alcotest.failf "weak upgrade (pct): %a" Sched.pp_result r

(* ---------------- registry ---------------- *)

let test_registry_verdicts () =
  (* every registered target produces the outcome it promises, under a
     cheap bounded search (the CI smoke runs the full-strength ones) *)
  List.iter
    (fun t ->
      let r =
        Explore.run_target t ~mode:Explore.Dfs ~seed:1 ~iters:100 ~max_preemptions:(Some 3)
          ~max_steps:10_000 ~depth:3 ~replay:None
      in
      let buf = Buffer.create 128 in
      let code = Explore.report (Format.formatter_of_buffer buf) t r in
      Alcotest.(check int) (t.Explore.t_name ^ " exit code") 0 code)
    Explore.targets

let () =
  Alcotest.run "sched"
    [
      ( "harness",
        [
          Alcotest.test_case "finds lost update" `Quick test_finds_lost_update;
          Alcotest.test_case "replay reproduces" `Quick test_replay_reproduces;
          Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "garbage traces rejected" `Quick test_trace_garbage_rejected;
          QCheck_alcotest.to_alcotest prop_trace_roundtrip;
          QCheck_alcotest.to_alcotest prop_garbage_never_truncates;
          Alcotest.test_case "pct+random find lost update" `Quick
            test_pct_and_random_find_lost_update;
          Alcotest.test_case "preemption bound prunes" `Quick test_preemption_bound_prunes;
          Alcotest.test_case "aborted finalizer raises" `Quick test_aborted_finalizer_raises;
        ] );
      ( "sticky",
        [
          Alcotest.test_case "one death, exhaustive" `Quick test_sticky_one_death_exhaustive;
          Alcotest.test_case "load vs dec, exhaustive" `Quick
            test_sticky_load_vs_dec_exhaustive;
          Alcotest.test_case "drop-help mutant caught" `Quick
            test_sticky_drop_help_mutation_caught;
          Alcotest.test_case "mutant ok sequentially" `Quick
            test_sticky_mutant_needs_the_bad_schedule;
        ] );
      ( "slots",
        [
          Alcotest.test_case "no UAF, exhaustive" `Quick test_slots_no_uaf_exhaustive;
          Alcotest.test_case "skip-validate mutant caught" `Quick
            test_slots_skip_validate_caught;
          Alcotest.test_case "skip-validate caught by pct" `Quick test_slots_skip_validate_pct;
        ] );
      ( "weak",
        [
          Alcotest.test_case "upgrade race, exhaustive" `Quick test_weak_upgrade_exhaustive;
          Alcotest.test_case "upgrade race, pct smoke" `Quick test_weak_upgrade_pct_smoke;
        ] );
      ("registry", [ Alcotest.test_case "verdicts" `Quick test_registry_verdicts ]);
    ]
