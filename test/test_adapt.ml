(* The adaptive reclamation controller (DESIGN.md §10).

   Three layers, mirroring the design: (1) deterministic unit tests of
   the pure [step] core — each policy's firing point is pinned exactly
   (force-advance at the high-water mark, SLO shrink then
   hysteresis-delayed regrow, stall backoff and escalation after the
   grace period); (2) qcheck properties over reachable states —
   monotone in the backlog signal, emitted knob values always inside
   the config clamps; (3) end-to-end determinism — both targets of the
   stalled-victim adaptivity experiment replay bit-identically, the
   controller run stays bounded where the fixed-knob run is not; plus the uniform
   knob-validation contract across every scheme. *)

module C = Adapt.Controller
module Q = QCheck2

let to_alcotest = QCheck_alcotest.to_alcotest
let cfg = C.default_config

(* Fold a signal script through [step] from the initial state,
   collecting each tick's actions. *)
let run_script sigs =
  let st, log =
    List.fold_left
      (fun (st, log) s ->
        let st', acts = C.step cfg st s in
        (st', acts :: log))
      (C.init cfg, []) sigs
  in
  (st, List.rev log)

let quiet backlog = { C.backlog; p99 = None; stalled = false }

(* ---------------- policy 1: memory pressure ----------------------- *)

let force_advance_at_high_water () =
  (* Backlog ramp in steps of 64: Force_advance must fire on exactly
     the ticks at or above [backlog_high], never below. *)
  let backlogs = List.init 17 (fun i -> i * 64) (* 0 .. 1024 *) in
  let _, log = run_script (List.map quiet backlogs) in
  List.iter2
    (fun b acts ->
      let fired = List.mem C.Force_advance acts in
      Alcotest.(check bool)
        (Printf.sprintf "force_advance at backlog=%d" b)
        (b >= cfg.C.backlog_high) fired)
    backlogs log

let sync_scan_engage_disengage () =
  (* Engages at [sync_scan_at], holds through the intermediate band,
     and disengages only once the backlog is calm again. *)
  let script =
    [ quiet cfg.C.sync_scan_at; quiet 300; quiet 300; quiet cfg.C.backlog_low ]
  in
  let _, log = run_script script in
  match log with
  | [ a1; a2; a3; a4 ] ->
      Alcotest.(check bool) "engages at sync_scan_at" true
        (List.mem (C.Set_sync_scan true) a1);
      Alcotest.(check bool) "holds above backlog_low" false
        (List.exists (function C.Set_sync_scan _ -> true | _ -> false) (a2 @ a3));
      Alcotest.(check bool) "disengages once calm" true
        (List.mem (C.Set_sync_scan false) a4)
  | _ -> Alcotest.fail "script length mismatch"

(* ---------------- policy 3: SLO guard ----------------------------- *)

let slo_shrink_then_hysteresis_regrow () =
  (* Latency over target halves the cap immediately; after latency
     recovers, the cap regrows only once [hysteresis] quiet ticks have
     passed — and doubles per tick after that. *)
  let over = { C.backlog = 64; p99 = Some (cfg.C.p99_target + 1); stalled = false } in
  let ok = { C.backlog = 64; p99 = Some 1; stalled = false } in
  let script = over :: List.init (cfg.C.hysteresis + 2) (fun _ -> ok) in
  let _, log = run_script script in
  (match log with
  | shrink :: rest ->
      Alcotest.(check bool) "tick 1 halves the cap" true
        (List.mem (C.Set_batch_cap (cfg.C.max_batch / 2)) shrink);
      let quiet_ticks = List.filteri (fun i _ -> i < cfg.C.hysteresis) rest in
      List.iter
        (fun acts ->
          Alcotest.(check bool) "cooldown ticks leave the cap alone" false
            (List.exists (function C.Set_batch_cap _ -> true | _ -> false) acts))
        quiet_ticks;
      let after = List.nth rest cfg.C.hysteresis in
      Alcotest.(check bool) "regrows after the cooldown" true
        (List.mem (C.Set_batch_cap cfg.C.max_batch) after)
  | [] -> Alcotest.fail "empty log");
  (* A second shrink re-arms the cooldown: grow is not sticky. *)
  let _, log2 = run_script [ over; ok; over; ok ] in
  let shrinks =
    List.concat log2
    |> List.filter (function C.Set_batch_cap v -> v < cfg.C.max_batch | _ -> false)
  in
  Alcotest.(check int) "both over-target ticks shrink" 2 (List.length shrinks)

(* ---------------- policy 2: stall response ------------------------ *)

let stall_backoff_and_escalation () =
  let stalled = { C.backlog = 200; p99 = None; stalled = true } in
  let script = List.init 5 (fun _ -> stalled) @ [ quiet 200 ] in
  let _, log = run_script script in
  let cleanup acts =
    List.filter_map (function C.Set_cleanup_freq v -> Some v | _ -> None) acts
  in
  (match log with
  | [ t1; t2; t3; t4; t5; t6 ] ->
      Alcotest.(check (list int)) "tick 1 doubles" [ 2 * cfg.C.base_cleanup ] (cleanup t1);
      Alcotest.(check (list int)) "tick 2 doubles" [ 4 * cfg.C.base_cleanup ] (cleanup t2);
      Alcotest.(check (list int)) "tick 3 doubles" [ 8 * cfg.C.base_cleanup ] (cleanup t3);
      Alcotest.(check bool) "escalates after grace ticks" true
        (List.mem C.Escalate_abandon t3);
      Alcotest.(check bool) "escalates at most once per episode" false
        (List.mem C.Escalate_abandon t4 || List.mem C.Escalate_abandon t5);
      Alcotest.(check (list int)) "backoff clamps at max_cleanup"
        [ cfg.C.max_cleanup ] (cleanup t4);
      Alcotest.(check (list int)) "no emit when clamped value repeats" [] (cleanup t5);
      Alcotest.(check (list int)) "stall clear reverts to base"
        [ cfg.C.base_cleanup ] (cleanup t6)
  | _ -> Alcotest.fail "script length mismatch");
  (* A new stall episode after recovery escalates again. *)
  let script2 =
    List.init 3 (fun _ -> stalled) @ [ quiet 200 ] @ List.init 3 (fun _ -> stalled)
  in
  let _, log2 = run_script script2 in
  let escalations =
    List.concat log2 |> List.filter (fun a -> a = C.Escalate_abandon) |> List.length
  in
  Alcotest.(check int) "each stall episode escalates once" 2 escalations

(* ---------------- qcheck properties ------------------------------- *)

let signal_gen =
  Q.Gen.(
    let* backlog = int_range 0 3000 in
    let* p99 = opt (int_range 0 256) in
    let* stalled = bool in
    return { C.backlog; p99; stalled })

(* Reachable states only: fold a random signal prefix from [init].
   Properties of [step] need only hold on states [step] can produce. *)
let state_gen =
  Q.Gen.(
    let* sigs = list_size (int_range 0 30) signal_gen in
    return (List.fold_left (fun st s -> fst (C.step cfg st s)) (C.init cfg) sigs))

let prop_monotone_in_backlog =
  Q.Test.make ~name:"controller: step is monotone in the backlog" ~count:1000
    Q.Gen.(triple state_gen signal_gen (int_range 0 3000))
    (fun (st, s, d) ->
      let st1, a1 = C.step cfg st s in
      let st2, a2 = C.step cfg st { s with C.backlog = s.C.backlog + d } in
      (* More backlog: never a larger cap, never un-fires force-advance,
         never disengages sync-scan. *)
      C.state_batch_cap st2 <= C.state_batch_cap st1
      && ((not (List.mem C.Force_advance a1)) || List.mem C.Force_advance a2)
      && ((not (C.state_sync_scan st1)) || C.state_sync_scan st2))

let prop_actions_within_bounds =
  Q.Test.make ~name:"controller: emitted knob values stay inside the clamps"
    ~count:1000
    Q.Gen.(pair state_gen signal_gen)
    (fun (st, s) ->
      let st', acts = C.step cfg st s in
      List.for_all
        (function
          | C.Set_batch_cap v -> cfg.C.min_batch <= v && v <= cfg.C.max_batch
          | C.Set_cleanup_freq v -> cfg.C.base_cleanup <= v && v <= cfg.C.max_cleanup
          | C.Force_advance | C.Set_sync_scan _ | C.Escalate_abandon -> true)
        acts
      && cfg.C.min_batch <= C.state_batch_cap st'
      && C.state_batch_cap st' <= cfg.C.max_batch
      && cfg.C.base_cleanup <= C.state_cleanup_freq st'
      && C.state_cleanup_freq st' <= cfg.C.max_cleanup)

let prop_step_deterministic =
  Q.Test.make ~name:"controller: step is a pure function of (state, signals)"
    ~count:300
    Q.Gen.(pair state_gen signal_gen)
    (fun (st, s) ->
      let st1, a1 = C.step cfg st s in
      let st2, a2 = C.step cfg st s in
      st1 = st2 && a1 = a2)

(* ---------------- end-to-end: the adaptivity experiment ----------- *)

module T = Workload.Table

(* One adaptivity row's cell: [target] is the row id, [adapt] the
   controller knob. *)
let adaptivity_cell target ~adapt =
  let row =
    List.find (fun (r : T.row) -> r.id = target) (Workload.Experiments.adaptivity_rows ())
  in
  match T.sweep row row.instances with
  | [ off; on ] -> if adapt then on else off
  | os -> Alcotest.failf "%d cells, expected 2" (List.length os)

let col (o : T.outcome) name = List.assoc_opt name o.columns

(* The columns and the decision log: everything but wall-clock time. *)
let replayed (o : T.outcome) = (o.key, o.columns, o.adapt, o.errors, o.cell.c_leaked)

let adaptivity_replays_bit_identically () =
  let run () = adaptivity_cell "adaptivity" ~adapt:true in
  let a = run () in
  let b = run () in
  Alcotest.(check (list string)) "decision logs identical across replays" a.adapt b.adapt;
  Alcotest.(check bool) "full results identical across replays" true (replayed a = replayed b);
  (* Pin the episode shape: escalation fires at the first controller
     tick past the grace period (check_every * (watchdog strikes +
     grace)) and the log opens with the first backoff decision. *)
  Alcotest.(check (option int)) "escalates at iteration 192" (Some 192) (col a "escalated");
  (match a.adapt with
  | first :: _ ->
      Alcotest.(check string)
        "first decision is the first backoff"
        "t=4 backlog=128 p99=- stalled=true | cleanup_freq=128" first
  | [] -> Alcotest.fail "controller made no decisions");
  Alcotest.(check int) "leak-free" 0 a.cell.c_leaked;
  Alcotest.(check (list (pair string int))) "cell passed" [] a.errors

let adaptivity_bounds_garbage () =
  let on = adaptivity_cell "adaptivity" ~adapt:true in
  let off = adaptivity_cell "adaptivity" ~adapt:false in
  Alcotest.(check (option int)) "controller-on peak" (Some 224) (col on "peak_backlog");
  Alcotest.(check (option int)) "controller-on end" (Some 47) (col on "end_backlog");
  Alcotest.(check (option int))
    "fixed knobs grow without bound behind the pinned frontier" (Some 2000)
    (col off "end_backlog");
  Alcotest.(check (option int)) "fixed knobs never escalate" None (col off "escalated");
  Alcotest.(check int) "fixed-knob run still leak-free after teardown" 0 off.cell.c_leaked;
  Alcotest.(check (list (pair string int))) "fixed-knob cell passed" [] off.errors

(* The kv target: shard 0 of the KV service, the victim stalled at its
   8th shard-0 section entry. *)
let kv_replays_bit_identically () =
  let run () = adaptivity_cell "adaptivity-kv" ~adapt:true in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "full results identical across replays" true (replayed a = replayed b);
  Alcotest.(check (option int)) "escalates at iteration 384" (Some 384) (col a "escalated");
  (match a.adapt with
  | first :: _ ->
      Alcotest.(check string)
        "first decision is the first backoff"
        "t=10 backlog=313 p99=- stalled=true | cleanup_freq=128" first
  | [] -> Alcotest.fail "controller made no decisions");
  Alcotest.(check (option int)) "the fault fired" (Some 1) (col a "fired");
  Alcotest.(check int) "leak-free" 0 a.cell.c_leaked

let kv_bounds_garbage () =
  let on = adaptivity_cell "adaptivity-kv" ~adapt:true in
  let off = adaptivity_cell "adaptivity-kv" ~adapt:false in
  Alcotest.(check (option int)) "controller-on peak" (Some 409) (col on "peak_backlog");
  Alcotest.(check (option int)) "controller-on end" (Some 49) (col on "end_backlog");
  Alcotest.(check (option int)) "fixed-knob end" (Some 1993) (col off "end_backlog");
  Alcotest.(check (option int)) "the fault fired" (Some 1) (col off "fired");
  Alcotest.(check int) "fixed-knob run still leak-free after teardown" 0 off.cell.c_leaked;
  Alcotest.(check (list (pair string int))) "both cells passed" [] (on.errors @ off.errors)

(* ---------------- knob validation across every scheme ------------- *)

let all_schemes = List.map snd Workload.Instances.named_schemes

let knob_validation_uniform () =
  List.iter
    (fun (module S : Smr.Smr_intf.S) ->
      let rejects knob f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "%s.create accepted a non-positive %s" S.name knob
      in
      rejects "epoch_freq" (fun () -> ignore (S.create ~epoch_freq:0 ~max_threads:1 ()));
      rejects "cleanup_freq" (fun () ->
          ignore (S.create ~cleanup_freq:(-1) ~max_threads:1 ()));
      rejects "slots_per_thread" (fun () ->
          ignore (S.create ~slots_per_thread:0 ~max_threads:1 ())))
    all_schemes

let knob_ignored_counter () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  (* Leaky ignores all three tunables; HP ignores epoch_freq. *)
  let before = Obs.Metrics.value "smr.none.knob_ignored" in
  ignore
    (Smr.Leaky.create ~epoch_freq:5 ~cleanup_freq:5 ~slots_per_thread:5 ~max_threads:1 ());
  Alcotest.(check int) "Leaky records all three ignored knobs" (before + 3)
    (Obs.Metrics.value "smr.none.knob_ignored");
  let before_hp = Obs.Metrics.value "smr.hp.knob_ignored" in
  ignore (Smr.Hp.create ~epoch_freq:7 ~max_threads:1 ());
  Alcotest.(check int) "HP records its ignored epoch_freq" (before_hp + 1)
    (Obs.Metrics.value "smr.hp.knob_ignored");
  (* No false positives: a knob the scheme reads is not "ignored". *)
  let before_ebr = Obs.Metrics.value "smr.ebr.knob_ignored" in
  ignore (Smr.Ebr.create ~epoch_freq:5 ~cleanup_freq:5 ~max_threads:1 ());
  Alcotest.(check int) "EBR records nothing for knobs it reads" before_ebr
    (Obs.Metrics.value "smr.ebr.knob_ignored")

let knob_gauges_track_values () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  let g name = Obs.Metrics.gauge_value (Obs.Metrics.gauge name) in
  let k = Smr.Knobs.create ~epoch_freq:17 ~scheme:"GaugeProbe" () in
  Alcotest.(check int) "explicit value mirrored" 17 (g "smr.gaugeprobe.knob.epoch_freq");
  Alcotest.(check int) "default value mirrored" Smr.Knobs.default_cleanup_freq
    (g "smr.gaugeprobe.knob.cleanup_freq");
  Smr.Knobs.set_batch_cap k 33;
  Alcotest.(check int) "setter updates the gauge" 33 (g "smr.gaugeprobe.knob.batch_cap");
  Alcotest.(check int) "setter updates the accessor" 33 (Smr.Knobs.batch_cap k)

(* ------------------------------------------------------------------ *)
(* Reaction latency to a hotspot phase shift (ROADMAP item 5): after a
   hot-set migration, the abandoned phase expires and the sweep's
   retirement burst must reach the controller within a bounded number
   of ticks. The pipeline is expiry (ttl=32) + sweep cadence (8) +
   one controller tick, so 64 is a comfortable but meaningful bound —
   a controller that only notices pressure an epoch later blows it. *)

let reaction_latency_bounded () =
  let r = Workload.Experiments.measure_adapt_reaction () in
  Alcotest.(check bool) "at least two phase shifts occurred" true (r.a_shifts >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "every shift measured (got %d of %d)"
       (List.length r.a_reactions) r.a_shifts)
    true
    (List.length r.a_reactions >= 2);
  List.iter
    (fun dt ->
      Alcotest.(check bool)
        (Printf.sprintf "reaction %d ticks <= 64" dt)
        true (dt <= 64))
    r.a_reactions;
  (* The burst really happened: the post-shift peak clears the trip
     threshold (3/8 of the 256-key hot set) while the steady-state
     trickle stays below it — the reactions measure a real signal. *)
  Alcotest.(check bool) "retirement burst reached backlog_high" true
    (r.a_peak_backlog >= 96);
  Alcotest.(check bool)
    (Printf.sprintf "steady trickle %d below backlog_high" r.a_steady_peak)
    true
    (r.a_steady_peak < 96)

let reaction_gauge_recorded () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  let r = Workload.Experiments.measure_adapt_reaction () in
  let g = Obs.Metrics.gauge_value (Obs.Metrics.gauge "adapt.reaction_ticks") in
  Alcotest.(check bool) "gauge holds the last measured reaction" true
    (match r.a_reactions with last :: _ -> g = last | [] -> false)

let reaction_replays_bit_identically () =
  let a = Workload.Experiments.measure_adapt_reaction () in
  let b = Workload.Experiments.measure_adapt_reaction () in
  Alcotest.(check (list int)) "same reaction sequence" a.a_reactions b.a_reactions;
  Alcotest.(check int) "same peak" a.a_peak_backlog b.a_peak_backlog

let () =
  Alcotest.run "adapt"
    [
      ( "step",
        [
          Alcotest.test_case "force-advance at high-water mark" `Quick
            force_advance_at_high_water;
          Alcotest.test_case "sync-scan engage/disengage hysteresis" `Quick
            sync_scan_engage_disengage;
          Alcotest.test_case "SLO shrink, hysteresis-delayed regrow" `Quick
            slo_shrink_then_hysteresis_regrow;
          Alcotest.test_case "stall backoff and one-shot escalation" `Quick
            stall_backoff_and_escalation;
        ] );
      ( "properties",
        [
          to_alcotest prop_monotone_in_backlog;
          to_alcotest prop_actions_within_bounds;
          to_alcotest prop_step_deterministic;
        ] );
      ( "adaptivity",
        [
          Alcotest.test_case "replays bit-identically" `Quick
            adaptivity_replays_bit_identically;
          Alcotest.test_case "bounded vs unbounded garbage" `Quick
            adaptivity_bounds_garbage;
          Alcotest.test_case "kv target replays bit-identically" `Quick
            kv_replays_bit_identically;
          Alcotest.test_case "kv target bounded vs unbounded garbage" `Quick
            kv_bounds_garbage;
        ] );
      ( "reaction",
        [
          Alcotest.test_case "phase-shift reaction latency bounded" `Quick
            reaction_latency_bounded;
          Alcotest.test_case "adapt.reaction_ticks gauge recorded" `Quick
            reaction_gauge_recorded;
          Alcotest.test_case "reaction probe replays bit-identically" `Quick
            reaction_replays_bit_identically;
        ] );
      ( "knobs",
        [
          Alcotest.test_case "create validation uniform across schemes" `Quick
            knob_validation_uniform;
          Alcotest.test_case "ignored-knob misuse counter" `Quick knob_ignored_counter;
          Alcotest.test_case "gauges mirror effective values" `Quick
            knob_gauges_track_values;
        ] );
    ]
