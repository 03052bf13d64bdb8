(* Tests for the happens-before race & lifetime sanitizer
   (DESIGN.md §14): vector-clock algebra first, then pinned-schedule
   replays of tiny two-fiber scenarios whose happens-before verdicts
   are computed by hand — each trace below is annotated with the clock
   arithmetic that justifies the expected verdict. Finally the §14
   registry itself: clean targets survive exhaustive DFS
   with zero false positives, and the seeded mutants are caught. *)

module V = Analysis.Vclock
module Mon = Analysis.Race_monitor
module T = Sched.Atomic

(* ---------------- vector clocks ---------------- *)

let test_vclock_algebra () =
  let a = V.make 3 and b = V.make 3 in
  V.tick a 0;
  V.tick a 0;
  V.tick b 1;
  (* a = [2;0;0], b = [0;1;0]: concurrent *)
  Alcotest.(check bool) "a not leq b" false (V.leq a b);
  Alcotest.(check bool) "b not leq a" false (V.leq b a);
  Alcotest.(check bool) "leq reflexive" true (V.leq a a);
  let j = V.copy a in
  V.join j b;
  (* j = [2;1;0]: the lub *)
  Alcotest.(check int) "join component 0" 2 (V.get j 0);
  Alcotest.(check int) "join component 1" 1 (V.get j 1);
  Alcotest.(check bool) "a leq join" true (V.leq a j);
  Alcotest.(check bool) "b leq join" true (V.leq b j);
  (* copy does not alias *)
  V.tick a 2;
  Alcotest.(check int) "copy is a snapshot" 0 (V.get j 2);
  Alcotest.(check int) "size" 3 (V.size j);
  Alcotest.(check string) "printing" "<2,1,0>" (V.to_string j)

let test_vclock_zero_is_bottom () =
  let z = V.make 2 and c = V.make 2 in
  V.tick c 1;
  Alcotest.(check bool) "zero leq anything" true (V.leq z c);
  Alcotest.(check bool) "anything not leq zero" false (V.leq c z)

(* ---------------- pinned-schedule HB verdicts ----------------

   Decision/trace model (see Sched): every trace entry picks which
   fiber runs its next segment; a fiber's first segment runs from
   dispatch to its first atomic op's yield, and each later segment
   executes one atomic op and runs to the next yield (or to
   completion). Protocol events between atomic ops belong to the
   enclosing segment. Clocks are written [f0;f1;setup]. *)

let expect_fail name trace mk ~needle =
  match Sched.replay ~trace mk with
  | Sched.Fail f ->
      let contains sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: message %S mentions %S" name f.Sched.f_message needle)
        true
        (contains needle f.Sched.f_message)
  | r -> Alcotest.failf "%s: expected a violation, got %a" name Sched.pp_result r

let expect_pass name trace mk =
  match Sched.replay ~trace mk with
  | Sched.Pass _ -> ()
  | r -> Alcotest.failf "%s: expected pass, got %a" name Sched.pp_result r

(* Rule (b), violated: fiber 0 ticks (exchange on a private cell), then
   derefs — deref clock [1;0;s]. Fiber 1 never synchronizes with it, so
   at the free its clock is the fork clock [0;0;s], and
   [1;0;s] <= [0;0;s] fails: the protection interval is not ordered
   before the free. Trace [0;0;1]: dispatch f0, execute its exchange
   (deref happens in that segment, f0 finishes), dispatch f1 (no atomic
   ops: retire + free run to completion and the free trips the check). *)
let hb_unordered () : Sched.scenario =
  let mon = Mon.create ~fibers:2 () in
  Mon.register mon ~ident:1;
  let scratch = T.make 0 in
  {
    Sched.fibers =
      [|
        (fun () ->
          ignore (T.exchange scratch 1);
          Mon.deref mon ~ident:1);
        (fun () ->
          Mon.retire mon ~ident:1;
          Mon.free mon ~ident:1);
      |];
    check = (fun () -> ());
  }

(* Rule (b), satisfied: same shape, but fiber 0 publishes on [flag]
   after the deref and fiber 1 reads [flag] before freeing. Deref clock
   [1;0;s]; the set publishes [1;0;s] at flag; fiber 1's get joins it,
   so the freer's clock is [1;1;s] and [1;0;s] <= [1;1;s] holds.
   Trace [0;0;0;1;1]: f0 = dispatch + exchange-segment + set-segment;
   f1 = dispatch + get-segment (retire and free follow the get). *)
let hb_ordered () : Sched.scenario =
  let mon = Mon.create ~fibers:2 () in
  Mon.register mon ~ident:1;
  let scratch = T.make 0 in
  let flag = T.make 0 in
  {
    Sched.fibers =
      [|
        (fun () ->
          ignore (T.exchange scratch 1);
          Mon.deref mon ~ident:1;
          T.set flag 1);
        (fun () ->
          if T.get flag = 1 then begin
            Mon.retire mon ~ident:1;
            Mon.free mon ~ident:1
          end);
      |];
    check = (fun () -> ());
  }

(* Rule (a), ordered flavor: the retire (clock [0;0;s]) is published to
   fiber 1 through [flag], so the unguarded deref at clock [0;1;s] is
   HB-AFTER the retire — "dereferences it after its retire". *)
let retired_use_ordered () : Sched.scenario =
  let mon = Mon.create ~fibers:2 () in
  Mon.register mon ~ident:1;
  let flag = T.make 0 in
  {
    Sched.fibers =
      [|
        (fun () ->
          Mon.retire mon ~ident:1;
          T.set flag 1);
        (fun () -> if T.get flag = 1 then Mon.deref mon ~ident:1);
      |];
    check = (fun () -> ());
  }

(* Rule (a), racing flavor: retire at clock [1;0;s] (after a tick on a
   private cell), deref at [0;1;s] (after a tick on a different private
   cell) — incomparable, so the deref RACES the retire. *)
let retired_use_racing () : Sched.scenario =
  let mon = Mon.create ~fibers:2 () in
  Mon.register mon ~ident:1;
  let s0 = T.make 0 in
  let s1 = T.make 0 in
  {
    Sched.fibers =
      [|
        (fun () ->
          ignore (T.exchange s0 1);
          Mon.retire mon ~ident:1);
        (fun () ->
          ignore (T.exchange s1 1);
          Mon.deref mon ~ident:1);
      |];
    check = (fun () -> ());
  }

(* Rule (a), suppressed by a guard: same race as above, but fiber 1
   announces a covering guard first — no violation on any schedule of
   this trace. *)
let retired_use_guarded () : Sched.scenario =
  let mon = Mon.create ~fibers:2 () in
  Mon.register mon ~ident:1;
  let s0 = T.make 0 in
  let s1 = T.make 0 in
  {
    Sched.fibers =
      [|
        (fun () ->
          ignore (T.exchange s0 1);
          Mon.retire mon ~ident:1);
        (fun () ->
          Mon.acquire mon ~ident:1;
          ignore (T.exchange s1 1);
          Mon.deref mon ~ident:1;
          Mon.release mon ~ident:1);
      |];
    check = (fun () -> ());
  }

let test_rule_b_unordered () =
  expect_fail "unordered free" [ 0; 0; 1 ] hb_unordered
    ~needle:"not ordered before free"

let test_rule_b_ordered () = expect_pass "ordered free" [ 0; 0; 0; 1; 1 ] hb_ordered

let test_rule_a_ordered () =
  expect_fail "use after retire" [ 0; 0; 1; 1 ] retired_use_ordered
    ~needle:"dereferences it"

let test_rule_a_racing () =
  expect_fail "deref races retire" [ 0; 0; 1; 1 ] retired_use_racing
    ~needle:"races retire"

let test_rule_a_guarded () =
  expect_pass "guard covers the deref" [ 0; 0; 1; 1 ] retired_use_guarded

(* Rule (c): the ledger is schedule-independent — any order of one
   legitimate death-taking decrement and one stray decrement drives
   the count negative at the second. *)
let rc_double_decrement () : Sched.scenario =
  let mon = Mon.create ~fibers:2 () in
  Mon.rc_register mon ~ident:1 ~count:1;
  {
    Sched.fibers =
      [|
        (fun () -> Mon.rc_decr mon ~ident:1 ~death:true);
        (fun () -> Mon.rc_decr mon ~ident:1 ~death:false);
      |];
    check = (fun () -> Mon.check mon);
  }

let rc_lost_death () : Sched.scenario =
  let mon = Mon.create ~fibers:2 () in
  Mon.rc_register mon ~ident:1 ~count:2;
  {
    Sched.fibers =
      [|
        (fun () -> Mon.rc_decr mon ~ident:1 ~death:false);
        (fun () -> Mon.rc_decr mon ~ident:1 ~death:false);
      |];
    check = (fun () -> Mon.check mon);
  }

let test_rc_double_decrement () =
  expect_fail "double decrement" [ 0; 1 ] rc_double_decrement
    ~needle:"duplicated decrement"

let test_rc_lost_death () =
  expect_fail "lost death credit" [ 0; 1 ] rc_lost_death ~needle:"lost death credit"

(* ---------------- the §14 registry ---------------- *)

let run_dfs name =
  match Explore.find name with
  | None -> Alcotest.failf "unknown target %s" name
  | Some t ->
      ( t,
        Explore.run_target t ~mode:Explore.Dfs ~seed:1 ~iters:0 ~max_preemptions:None
          ~max_steps:10_000 ~depth:3 ~replay:None )

let test_clean_targets_no_false_positives () =
  List.iter
    (fun name ->
      match run_dfs name with
      | _, Sched.Pass _ -> ()
      | _, r -> Alcotest.failf "%s: false positive under DFS: %a" name Sched.pp_result r)
    [ "slots"; "handoff"; "weak-upgrade" ]

let test_mutants_caught () =
  List.iter
    (fun (name, needle) ->
      match run_dfs name with
      | _, Sched.Fail f ->
          let contains sub s =
            let n = String.length sub and m = String.length s in
            let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s caught (%s)" name f.Sched.f_message)
            true
            (contains needle f.Sched.f_message)
      | _, r -> Alcotest.failf "%s: mutant survived: %a" name Sched.pp_result r)
    [
      ("slots-drop-announce", "block #2");
      ("handoff-retire-early", "block #1");
      ("rc-extra-dec", "rc cell #1");
    ]

let test_mutant_trace_replays () =
  (* the printed schedule is a complete reproducer: replaying it hits
     the identical violation *)
  List.iter
    (fun name ->
      match run_dfs name with
      | t, Sched.Fail f -> (
          match Sched.replay ~trace:f.Sched.f_trace t.Explore.t_mk with
          | Sched.Fail f' ->
              Alcotest.(check string) (name ^ ": same violation") f.Sched.f_message
                f'.Sched.f_message
          | r -> Alcotest.failf "%s: replay diverged: %a" name Sched.pp_result r)
      | _, r -> Alcotest.failf "%s: mutant survived: %a" name Sched.pp_result r)
    [ "handoff-retire-early"; "slots-drop-announce" ]

let () =
  Alcotest.run "analysis"
    [
      ( "vclock",
        [
          Alcotest.test_case "algebra" `Quick test_vclock_algebra;
          Alcotest.test_case "zero is bottom" `Quick test_vclock_zero_is_bottom;
        ] );
      ( "pinned-hb",
        [
          Alcotest.test_case "rule b: unordered free flagged" `Quick test_rule_b_unordered;
          Alcotest.test_case "rule b: ordered free clean" `Quick test_rule_b_ordered;
          Alcotest.test_case "rule a: ordered use-after-retire" `Quick test_rule_a_ordered;
          Alcotest.test_case "rule a: racing deref" `Quick test_rule_a_racing;
          Alcotest.test_case "rule a: guard covers" `Quick test_rule_a_guarded;
          Alcotest.test_case "rule c: double decrement" `Quick test_rc_double_decrement;
          Alcotest.test_case "rule c: lost death credit" `Quick test_rc_lost_death;
        ] );
      ( "registry",
        [
          Alcotest.test_case "clean targets: zero false positives" `Quick
            test_clean_targets_no_false_positives;
          Alcotest.test_case "mutants caught" `Quick test_mutants_caught;
          Alcotest.test_case "mutant trace replays" `Quick test_mutant_trace_replays;
        ] );
    ]
