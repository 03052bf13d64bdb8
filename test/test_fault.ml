(* Fault-injection tests: the plan machinery itself (determinism,
   stall clock, crash permanence, drop budgets), the paper's §2
   robustness contrast as deterministic assertions (EBR's backlog grows
   without bound under one stalled thread while HP/IBR/HE/PTB stay
   bounded), crash recovery via [abandon] for every scheme, rolling
   crashes whose orphans survivors adopt and whose pids are recycled, and a
   qcheck property running random fault plans against the Treiber stack
   (no use-after-free ever; no leaks once crashed/stalled threads are
   abandoned and the structure torn down). *)

module FP = Fault.Fault_plan
module Ident = Smr.Ident

let all_schemes = List.map snd Workload.Instances.named_schemes

(* ---------------------- Fault_plan unit tests --------------------- *)

let test_plan_deterministic () =
  (* Same seed, same workload of hits -> identical fired-event traces. *)
  let sites = [| FP.On_begin_cs; FP.On_confirm; FP.On_retire; FP.On_eject; FP.On_alloc |] in
  let drive plan =
    for s = 0 to 199 do
      try ignore (FP.hit plan sites.(s mod 5) ~pid:(s mod 3))
      with FP.Crashed _ -> ()
    done;
    FP.trace plan
  in
  let a = drive (FP.random ~seed:17 ~max_threads:3 ()) in
  let b = drive (FP.random ~seed:17 ~max_threads:3 ()) in
  Alcotest.(check bool) "identical traces" true (a = b)

let test_plan_hit_counts () =
  let plan =
    FP.create [ { FP.site = On_retire; pid = Some 0; at = 3; action = Delay 1 } ]
  in
  Alcotest.(check bool) "1st hit quiet" true (FP.hit plan On_retire ~pid:0 = None);
  Alcotest.(check bool) "other pid quiet" true (FP.hit plan On_retire ~pid:1 = None);
  Alcotest.(check bool) "other site quiet" true (FP.hit plan On_eject ~pid:0 = None);
  Alcotest.(check bool) "2nd hit quiet" true (FP.hit plan On_retire ~pid:0 = None);
  Alcotest.(check bool) "3rd hit fires" true
    (FP.hit plan On_retire ~pid:0 = Some (FP.Delay 1));
  Alcotest.(check bool) "4th hit quiet again" true (FP.hit plan On_retire ~pid:0 = None);
  match FP.trace plan with
  | [ e ] ->
      Alcotest.(check bool) "event site" true (e.FP.ev_site = FP.On_retire);
      Alcotest.(check int) "event pid" 0 e.FP.ev_pid;
      Alcotest.(check int) "event hit" 3 e.FP.ev_hit
  | t -> Alcotest.failf "expected one trace event, got %d" (List.length t)

let test_plan_stall_clock () =
  let plan =
    FP.create [ { FP.site = On_retire; pid = Some 0; at = 1; action = Stall 3 } ]
  in
  Alcotest.(check bool) "not stalled before" false (FP.stalled plan ~pid:0);
  ignore (FP.hit plan On_retire ~pid:0);
  Alcotest.(check bool) "stalled after firing" true (FP.stalled plan ~pid:0);
  (* The fault clock ticks on every site hit by anyone; the stall must
     expire on its own within the deadline. *)
  for _ = 1 to 10 do
    ignore (FP.hit plan On_eject ~pid:1)
  done;
  Alcotest.(check bool) "stall expired" false (FP.stalled plan ~pid:0)

let test_plan_stall_forever_and_resume () =
  let plan =
    FP.create [ { FP.site = On_begin_cs; pid = Some 1; at = 1; action = Stall 0 } ]
  in
  ignore (FP.hit plan On_begin_cs ~pid:1);
  for _ = 1 to 1000 do
    ignore (FP.hit plan On_eject ~pid:0)
  done;
  Alcotest.(check bool) "stall 0 never expires" true (FP.stalled plan ~pid:1);
  FP.resume plan ~pid:1;
  Alcotest.(check bool) "resume lifts it" false (FP.stalled plan ~pid:1)

let test_plan_crash_permanent () =
  let plan =
    FP.create [ { FP.site = On_alloc; pid = Some 1; at = 2; action = Crash } ]
  in
  Alcotest.(check bool) "1st alloc quiet" true (FP.hit plan On_alloc ~pid:1 = None);
  Alcotest.(check bool) "2nd alloc fires crash" true
    (FP.hit plan On_alloc ~pid:1 = Some FP.Crash);
  Alcotest.(check bool) "marked crashed" true (FP.crashed plan ~pid:1);
  Alcotest.check_raises "any later call raises" (FP.Crashed 1) (fun () ->
      ignore (FP.hit plan On_begin_cs ~pid:1));
  Alcotest.(check bool) "other pids unaffected" true
    (FP.hit plan On_alloc ~pid:0 = None && not (FP.crashed plan ~pid:0))

let test_plan_slow_persists_and_heals () =
  (* Slow is persistent gray failure: the factor sticks from the firing
     hit until heal, never stalls or kills the pid, and replays
     deterministically (it is plain plan state, like crash). *)
  let mk () =
    FP.create
      [ { FP.site = On_begin_cs; pid = Some 1; at = 2; action = Slow { factor = 5 } } ]
  in
  let plan = mk () in
  Alcotest.(check int) "healthy before" 0 (FP.slow_factor plan ~pid:1);
  Alcotest.(check bool) "1st hit quiet" true (FP.hit plan On_begin_cs ~pid:1 = None);
  Alcotest.(check bool) "2nd hit fires" true
    (FP.hit plan On_begin_cs ~pid:1 = Some (FP.Slow { factor = 5 }));
  Alcotest.(check int) "factor set" 5 (FP.slow_factor plan ~pid:1);
  Alcotest.(check bool) "not stalled" false (FP.stalled plan ~pid:1);
  Alcotest.(check bool) "not crashed" false (FP.crashed plan ~pid:1);
  ignore (FP.hit plan On_retire ~pid:1);
  Alcotest.(check int) "persists across hits" 5 (FP.slow_factor plan ~pid:1);
  Alcotest.(check int) "other pids healthy" 0 (FP.slow_factor plan ~pid:0);
  FP.heal plan ~pid:1;
  Alcotest.(check int) "heal clears it" 0 (FP.slow_factor plan ~pid:1);
  (* Replay determinism: an identical plan driven by the same hit
     sequence produces the identical trace. *)
  let drive p =
    ignore (FP.hit p On_begin_cs ~pid:1);
    ignore (FP.hit p On_begin_cs ~pid:1);
    ignore (FP.hit p On_retire ~pid:1);
    FP.trace p
  in
  Alcotest.(check bool) "bit-identical replay" true (drive (mk ()) = drive (mk ()));
  Alcotest.check_raises "factor < 1 rejected"
    (Invalid_argument "Fault_plan.create: slow factors start at 1") (fun () ->
      ignore
        (FP.create
           [ { FP.site = On_retire; pid = None; at = 1; action = Slow { factor = 0 } } ]))

let test_plan_drop_budget () =
  let plan =
    FP.create [ { FP.site = On_eject; pid = Some 0; at = 1; action = Drop_eject 3 } ]
  in
  Alcotest.(check int) "no budget before firing" 0 (FP.take_drops plan ~pid:0 ~avail:5);
  ignore (FP.hit plan On_eject ~pid:0);
  Alcotest.(check int) "capped by avail" 2 (FP.take_drops plan ~pid:0 ~avail:2);
  Alcotest.(check int) "remainder" 1 (FP.take_drops plan ~pid:0 ~avail:5);
  Alcotest.(check int) "exhausted" 0 (FP.take_drops plan ~pid:0 ~avail:5)

(* A gray-failed (Slow) thread is degraded but alive: unlike Stall, it
   keeps completing operations and releasing protection, so reclamation
   is never blocked behind it. *)
let test_slow_thread_stays_live () =
  let plan =
    FP.create
      [ { FP.site = On_begin_cs; pid = Some 0; at = 1; action = Slow { factor = 8 } } ]
  in
  let module FS =
    Fault.Faulty_smr.Make
      (Smr.Ebr)
      (struct
        let plan = plan
      end)
  in
  let s = FS.create ~epoch_freq:1 ~cleanup_freq:1 ~max_threads:1 () in
  let freed = ref 0 in
  for i = 1 to 100 do
    FS.begin_critical_section s ~pid:0;
    let birth = FS.alloc_hook s ~pid:0 in
    FS.retire s ~pid:0
      (Smr.Deferred.of_fun ~id:(Ident.of_val (ref i)) ~birth (fun _ -> incr freed));
    FS.end_critical_section s ~pid:0;
    Smr.Deferred.run_all ~pid:0 (FS.eject ~force:true s ~pid:0)
  done;
  Alcotest.(check int) "slow pid factor live" 8 (FP.slow_factor plan ~pid:0);
  Alcotest.(check bool) "never stalled" false (FP.stalled plan ~pid:0);
  Alcotest.(check bool) "reclamation kept up" true (!freed >= 99)

(* A crash in [Shared.make]'s birth hook strikes before the heap
   allocation, as in [Acquire_retire.alloc]: a make that crashes leaves
   no block behind. Pid 0 crashes at its 3rd alloc and stays crashed;
   pid 1 drops what was made. *)
let test_make_crash_leaks_no_block () =
  let plan = FP.create [ { FP.site = On_alloc; pid = Some 0; at = 3; action = Crash } ] in
  let module FS =
    Fault.Faulty_smr.Make
      (Smr.Ebr)
      (struct
        let plan = plan
      end)
  in
  let module R = Cdrc.Make (FS) in
  let rt = R.create ~max_threads:2 () in
  let made = ref [] and crashed = ref 0 in
  for i = 1 to 5 do
    match R.Shared.make (R.thread rt 0) i with
    | p -> made := p :: !made
    | exception FP.Crashed _ -> incr crashed
  done;
  Alcotest.(check (pair int int)) "made, crashed" (2, 3) (List.length !made, !crashed);
  List.iter (R.Shared.drop (R.thread rt 1)) !made;
  R.quiesce rt;
  Alcotest.(check int) "no block live after quiesce" 0 (R.live_objects rt)

(* --------------- stalled thread: bounded vs unbounded ------------- *)

(* One thread (pid 0) stalls forever inside its first critical section;
   pid 1 keeps allocating and retiring fresh objects, force-ejecting
   after each. Protected-region schemes without interval tracking (EBR,
   Hyaline) must accumulate *every* retired entry behind the stalled
   section — a monotone, unbounded backlog — while HP/IBR/HE/PTB keep
   the backlog bounded by what the stalled thread can actually pin.
   Afterwards, [abandon] must restore full reclamation for everyone. *)

let n_churn = 300
let n_extra = 50 (* retired after the victim's suppressed section exit *)
let bound = 80 (* generous cap for the bounded schemes' backlogs *)

let stalled_backlog (module S : Smr.Smr_intf.S) () =
  let plan =
    FP.create [ { FP.site = On_begin_cs; pid = Some 0; at = 1; action = Stall 0 } ]
  in
  let module FS =
    Fault.Faulty_smr.Make
      (S)
      (struct
        let plan = plan
      end)
  in
  let s = FS.create ~epoch_freq:1 ~cleanup_freq:1 ~max_threads:2 () in
  let freed = ref 0 in
  let retire_one i =
    FS.begin_critical_section s ~pid:1;
    let birth = FS.alloc_hook s ~pid:1 in
    FS.retire s ~pid:1
      (Smr.Deferred.of_fun ~id:(Ident.of_val (ref i)) ~birth (fun _ -> incr freed));
    FS.end_critical_section s ~pid:1;
    Smr.Deferred.run_all ~pid:1 (FS.eject ~force:true s ~pid:1)
  in
  (* Victim enters and stalls (the entry itself still runs). *)
  FS.begin_critical_section s ~pid:0;
  Alcotest.(check bool) "victim stalled" true (FP.stalled plan ~pid:0);
  let unbounded = S.name = "EBR" || S.name = "Hyaline" in
  for i = 1 to n_churn do
    retire_one i;
    let backlog = i - !freed in
    if unbounded then
      Alcotest.(check int) (Printf.sprintf "%s: backlog = everything at %d" S.name i) i
        backlog
    else
      Alcotest.(check bool)
        (Printf.sprintf "%s: backlog bounded at %d (got %d)" S.name i backlog)
        true (backlog <= bound)
  done;
  (* The victim "finishes" its operation while stalled: the section
     exit is suppressed, so it must keep pinning. *)
  FS.end_critical_section s ~pid:0;
  for i = 1 to n_extra do
    retire_one (n_churn + i)
  done;
  if unbounded then
    Alcotest.(check int)
      (S.name ^ ": suppressed exit still pins")
      0 !freed;
  (* Recovery: reap the stalled thread; the survivor reclaims it all. *)
  FS.abandon s ~pid:0;
  let rec drain pid =
    match FS.eject ~force:true s ~pid with
    | Smr.Deferred.Nil -> ()
    | ops ->
        Smr.Deferred.run_all ~pid ops;
        drain pid
  in
  drain 1;
  let rec drain_all () =
    match FS.drain_all s with
    | Smr.Deferred.Nil -> ()
    | ops ->
        Smr.Deferred.run_all ~pid:1 ops;
        drain_all ()
  in
  drain_all ();
  Alcotest.(check int)
    (S.name ^ ": abandon restores full reclamation")
    (n_churn + n_extra) !freed

(* ------------------- crash recovery via abandon ------------------- *)

(* pid 0 crashes on its 3rd retire (the entry is recorded first) while
   holding a critical section and an acquired guard. The survivor alone
   cannot reach the dead thread's retired entries; after [abandon] it
   must reclaim all three, each deferred op running exactly once. *)

let crash_recovery (module S : Smr.Smr_intf.S) () =
  let plan =
    FP.create [ { FP.site = On_retire; pid = Some 0; at = 3; action = Crash } ]
  in
  let module FS =
    Fault.Faulty_smr.Make
      (S)
      (struct
        let plan = plan
      end)
  in
  let s = FS.create ~epoch_freq:1 ~cleanup_freq:1 ~max_threads:2 () in
  let runs = Array.make 3 0 in
  let retire_one i =
    let birth = FS.alloc_hook s ~pid:0 in
    FS.retire s ~pid:0
      (Smr.Deferred.of_fun ~id:(Ident.of_val (ref i)) ~birth (fun _ -> runs.(i) <- runs.(i) + 1))
  in
  FS.begin_critical_section s ~pid:0;
  let sentinel = Ident.of_val (ref 999) in
  let g = FS.acquire s ~pid:0 sentinel in
  while not (FS.confirm s ~pid:0 g sentinel) do
    ()
  done;
  let crashed =
    try
      retire_one 0;
      retire_one 1;
      retire_one 2;
      false
    with FP.Crashed 0 -> true
  in
  Alcotest.(check bool) (S.name ^ ": crashed on 3rd retire") true crashed;
  Alcotest.check_raises (S.name ^ ": dead pid stays dead") (FP.Crashed 0) (fun () ->
      ignore (FS.eject ~force:true s ~pid:0));
  let total () = Array.fold_left ( + ) 0 runs in
  let rec drain pid =
    match FS.eject ~force:true s ~pid with
    | Smr.Deferred.Nil -> ()
    | ops ->
        Smr.Deferred.run_all ~pid ops;
        drain pid
  in
  (* Survivor alone: the dead thread's entries are unreachable. *)
  drain 1;
  Alcotest.(check int) (S.name ^ ": stranded before abandon") 0 (total ());
  FS.abandon s ~pid:0;
  drain 1;
  if S.name <> "None" then
    Alcotest.(check int) (S.name ^ ": survivor adopted all entries") 3 (total ());
  let rec drain_all () =
    match FS.drain_all s with
    | Smr.Deferred.Nil -> ()
    | ops ->
        Smr.Deferred.run_all ~pid:1 ops;
        drain_all ()
  in
  drain_all ();
  Array.iteri
    (fun i n -> Alcotest.(check int) (Printf.sprintf "%s: op %d ran once" S.name i) 1 n)
    runs

(* --------------- rolling crashes, pids recycled ------------------ *)

(* Four workers push and pop a Treiber stack in turn. Pids 1, 2 and 3
   crash one after another mid-run, each on a retire after the record
   is queued (where Faulty_smr's On_retire crash strikes), so each dies
   with retired entries parked in its queue. The crashed pid is
   abandoned at once while the others keep operating: their ejects
   adopt its orphans under live traffic, and a fresh worker takes the
   recycled pid over. A Fault_plan crash is permanent for its pid, so
   the crash here is the wrapper's own and a recycled pid starts
   healthy. *)

exception Worker_crashed of int

module Crash_on_retire (S : Smr.Smr_intf.S) = struct
  include S

  (* Retires each pid has left before it dies; 0 = healthy. *)
  let fuse = Array.make 4 0

  let retire t ~pid d =
    S.retire t ~pid d;
    if fuse.(pid) > 0 then begin
      fuse.(pid) <- fuse.(pid) - 1;
      if fuse.(pid) = 0 then raise (Worker_crashed pid)
    end
end

let rolling_crashes (module S : Smr.Smr_intf.S) () =
  let module C = Crash_on_retire (S) in
  let module St = Ds.Treiber_stack_manual.Make (C) in
  let st = St.create ~max_threads:4 () in
  let ctxs = Array.init 4 (St.ctx st) in
  let crashed = ref [] and recycled_ops = ref 0 in
  for round = 1 to 600 do
    (* Pid [p] is armed at round [100 p] and dies on its 7th retire
       after that. *)
    if round mod 100 = 0 && round <= 300 then C.fuse.(round / 100) <- 7;
    for pid = 0 to 3 do
      match
        St.push ctxs.(pid) round;
        ignore (St.pop ctxs.(pid))
      with
      | () -> if List.mem pid !crashed then incr recycled_ops
      | exception Worker_crashed p ->
          crashed := p :: !crashed;
          St.abandon st ~pid:p;
          ctxs.(p) <- St.ctx st p
    done
  done;
  Alcotest.(check (list int)) (S.name ^ ": pids 1, 2, 3 crashed in turn") [ 3; 2; 1 ] !crashed;
  Alcotest.(check bool) (S.name ^ ": recycled pids kept working") true (!recycled_ops > 0);
  Array.iter St.flush ctxs;
  (* Only the survivors' ejects can have drained the dead pids'
     orphans before teardown; the leaky baseline never ejects. *)
  if S.name <> "None" then
    Alcotest.(check int) (S.name ^ ": orphans adopted by the survivors") 0
      (St.retired_backlog st);
  St.teardown st;
  Alcotest.(check int) (S.name ^ ": leak-free teardown") 0 (St.live_objects st)

(* ------------- qcheck: random fault plans are survivable ---------- *)

(* Drive the Treiber stack with three cooperatively-interleaved threads
   under a random seeded fault plan. Whatever the plan injects —
   stalls, crashes, delays, dropped ejects — no operation may ever
   touch freed memory (Simheap would raise), and abandoning every
   crashed or still-stalled pid must leave a leak-free teardown. *)

let run_random_plan (module S : Smr.Smr_intf.S) seed =
  let plan = FP.random ~seed ~rules:4 ~max_threads:3 () in
  let module FS =
    Fault.Faulty_smr.Make
      (S)
      (struct
        let plan = plan
      end)
  in
  let module St = Ds.Treiber_stack_manual.Make (FS) in
  let st = St.create ~max_threads:3 () in
  let ctxs = Array.init 3 (St.ctx st) in
  let rng = Repro_util.Rng.create ~seed:(seed lxor 0x5f17) in
  for step = 0 to 299 do
    let pid = step mod 3 in
    if (not (FP.crashed plan ~pid)) && not (FP.stalled plan ~pid) then
      try
        if Repro_util.Rng.int rng 3 = 0 then ignore (St.pop ctxs.(pid))
        else St.push ctxs.(pid) step
      with FP.Crashed _ -> ()
  done;
  for pid = 0 to 2 do
    if (not (FP.crashed plan ~pid)) && not (FP.stalled plan ~pid) then (
      try St.flush ctxs.(pid) with FP.Crashed _ -> ())
  done;
  for pid = 0 to 2 do
    if FP.crashed plan ~pid || FP.stalled plan ~pid then St.abandon st ~pid
  done;
  St.teardown st;
  St.live_objects st = 0

let prop_random_plans_safe =
  QCheck2.Test.make ~name:"random fault plans: no UAF, no leaks after abandon"
    ~count:25
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      List.for_all
        (fun (module S : Smr.Smr_intf.S) ->
          try run_random_plan (module S) seed
          with Simheap.Use_after_free _ | Simheap.Double_free _ -> false)
        all_schemes)

(* ------------------------------ suite ----------------------------- *)

let scheme_cases mk =
  List.map
    (fun (module S : Smr.Smr_intf.S) ->
      Alcotest.test_case S.name `Quick (mk (module S : Smr.Smr_intf.S)))
    all_schemes

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "hit counts" `Quick test_plan_hit_counts;
          Alcotest.test_case "stall clock" `Quick test_plan_stall_clock;
          Alcotest.test_case "stall forever / resume" `Quick
            test_plan_stall_forever_and_resume;
          Alcotest.test_case "crash permanent" `Quick test_plan_crash_permanent;
          Alcotest.test_case "slow persists / heals" `Quick
            test_plan_slow_persists_and_heals;
          Alcotest.test_case "drop budget" `Quick test_plan_drop_budget;
          Alcotest.test_case "slow thread stays live" `Quick test_slow_thread_stays_live;
          Alcotest.test_case "make crash leaks no block" `Quick test_make_crash_leaks_no_block;
        ] );
      ( "stalled-backlog",
        List.map
          (fun (module S : Smr.Smr_intf.S) ->
            Alcotest.test_case S.name `Quick (stalled_backlog (module S)))
          (List.map snd Workload.Experiments.robustness_schemes) );
      ("crash-abandon", scheme_cases crash_recovery);
      ("rolling-crash", scheme_cases rolling_crashes);
      ("random-plans", [ QCheck_alcotest.to_alcotest prop_random_plans_safe ]);
    ]
