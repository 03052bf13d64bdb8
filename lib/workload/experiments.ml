(** The experiments that are not rows of the experiment table
    ({!Table}): fault-injection robustness and controller adaptivity,
    plus [stats], which runs a table row (or robustness, or a chaos
    campaign) with telemetry on. DESIGN.md §4 carries the full index;
    EXPERIMENTS.md records paper-vs-measured outcomes. *)

(* ---------------- robustness (fault injection) ---------------- *)

(* The paper's §2/§5.2 robustness claim, machine-checked: stall one
   thread inside its critical section and watch each scheme's garbage.
   EBR's backlog grows without bound (the stalled section pins the
   epoch frontier); HP/IBR/HE cap it per stalled thread; and reaping
   the stalled thread with [abandon] restores reclamation everywhere.
   Workers run a Treiber push/pop loop — the smallest real SMR
   consumer — under a [Fault.Faulty_smr] wrapper, so the stall is
   injected by a deterministic plan rather than scripted by hand. *)

type robustness_result = {
  rb_scheme : string;
  rb_curve : (float * int) list; (* (seconds, live blocks) samples *)
  rb_peak_stalled : int; (* peak live blocks while the victim stalled *)
  rb_live_at_abandon : int;
  rb_live_end : int; (* live blocks once survivors drained post-abandon *)
  rb_leaked : int; (* after teardown *)
  rb_watchdog_fired : float option; (* seconds at which Stuck was reported *)
  rb_events : Fault.Fault_plan.event list;
  rb_errors : Harness.errors;
}

let pp_robustness_result ppf r =
  Format.fprintf ppf
    "%-8s peak(stalled)=%-8d live@abandon=%-8d live@end=%-8d leaked=%-4d watchdog=%s"
    r.rb_scheme r.rb_peak_stalled r.rb_live_at_abandon r.rb_live_end r.rb_leaked
    (match r.rb_watchdog_fired with
    | Some s -> Printf.sprintf "stuck@%.2fs" s
    | None -> "quiet")

let robustness_schemes : (module Smr.Smr_intf.S) list =
  [
    (module Smr.Ebr : Smr.Smr_intf.S);
    (module Smr.Ibr);
    (module Smr.Hp);
    (module Smr.Hazard_eras);
    (module Smr.Hyaline);
    (module Smr.Ptb);
  ]

let run_robustness_one ?(duration = 1.0) ?(seed = 42) (module S : Smr.Smr_intf.S) =
  let workers = 3 in
  let victim = 1 in
  (* Stall the victim forever at its 21st critical-section entry; the
     plan is the only thing that distinguishes this run from a healthy
     one. *)
  let plan =
    Fault.Fault_plan.create
      [ { site = On_begin_cs; pid = Some victim; at = 21; action = Stall 0 } ]
  in
  let module FS =
    Fault.Faulty_smr.Make
      (S)
      (struct
        let plan = plan
      end)
  in
  let module St = Ds.Treiber_stack_manual.Make (FS) in
  let st = St.create ~max_threads:(workers + 1) () in
  let worker pid continue =
    let c = St.ctx st pid in
    let rng = Repro_util.Rng.create ~seed:(seed + (pid * 7919)) in
    let n = ref 0 in
    while continue !n do
      if Fault.Fault_plan.stalled plan ~pid then
        (* Parked: the thread is "preempted" holding its protection. *)
        Unix.sleepf 0.001
      else begin
        St.push c (Repro_util.Rng.int rng 1000);
        ignore (St.pop c);
        n := !n + 2
      end
    done;
    if not (Fault.Fault_plan.stalled plan ~pid) then St.flush c
  in
  let wd = St.Ar.watchdog ~threshold:3 ~slack:256 () in
  let watchdog_fired = ref None in
  let curve = ref [] in
  let peak_stalled = ref 0 in
  let live_at_abandon = ref 0 in
  let abandoned = ref false in
  let abandon_at = duration /. 2. in
  let sample ~elapsed:now ~ops:_ =
    let live = St.live_objects st in
    curve := (now, live) :: !curve;
    if not !abandoned then begin
      peak_stalled := max !peak_stalled live;
      (match St.Ar.watchdog_check st.St.ar wd with
      | St.Ar.Stuck _ when !watchdog_fired = None -> watchdog_fired := Some now
      | _ -> ());
      if now >= abandon_at then begin
        (* Recovery: reap the stalled thread on its behalf. *)
        live_at_abandon := live;
        St.abandon st ~pid:victim;
        abandoned := true
      end
    end
  in
  let h =
    Harness.run ~name:(S.name ^ "/robustness") ~threads:workers ~duration
      ~sample:(0.002, sample) worker
  in
  let live_end = St.live_objects st in
  St.teardown st;
  {
    rb_scheme = S.name;
    rb_curve = List.rev !curve;
    rb_peak_stalled = !peak_stalled;
    rb_live_at_abandon = !live_at_abandon;
    rb_live_end = live_end;
    rb_leaked = St.live_objects st;
    rb_watchdog_fired = !watchdog_fired;
    rb_events = Fault.Fault_plan.trace plan;
    rb_errors = h.errors;
  }

let run_robustness ?(duration = 1.0) ?(schemes = []) ?(seed = 42) ?out () =
  Table.with_selection "robustness"
    (Instances.select
       ~find:(Instances.find_named (fun (module S : Smr.Smr_intf.S) -> S.name) robustness_schemes)
       robustness_schemes schemes)
  @@ fun picked ->
  Format.printf
    "@.== Robustness: one stalled thread, garbage growth and recovery by abandon \
     ==@.expected: EBR backlog grows unboundedly while stalled (watchdog trips); \
     HP/IBR/HE stay bounded; abandon restores leak-free reclamation everywhere@.@.";
  let results = List.map (run_robustness_one ~duration ~seed) picked in
  List.iter
    (fun r ->
      Format.printf "%a@." pp_robustness_result r;
      List.iter (fun e -> Format.printf "    [fault] %a@." Fault.Fault_plan.pp_event e) r.rb_events)
    results;
  Format.printf "@.";
  (match out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "# robustness: stalled thread at op 21, abandon at %.2fs, seed %d@."
        (duration /. 2.) seed;
      Format.fprintf ppf "# scheme,time_s,live_blocks@.";
      List.iter
        (fun r ->
          List.iter
            (fun (t, live) -> Format.fprintf ppf "%s,%.4f,%d@." r.rb_scheme t live)
            r.rb_curve;
          Format.fprintf ppf "# %a@." pp_robustness_result r)
        results;
      Format.pp_print_flush ppf ();
      close_out oc;
      Format.printf "curves written to %s@.@." path);
  Harness.status (List.map (fun r -> (r.rb_scheme ^ "/robustness", r.rb_errors)) results)

(* ---------------- adaptivity (controller vs fixed knobs) ---------------- *)

(* The tentpole claim of the adaptive controller, machine-checked on
   the PR 1 stalled-domain fault plan: a victim enters a critical
   section and stalls forever, pinning EBR's epoch frontier. With fixed
   knobs the healthy domain's garbage grows without bound — every scan
   is futile and no human calls [abandon]. With the controller on, the
   watchdog's Stuck verdicts feed the stall-response policy, which
   backs off the futile scans and, after the grace period, escalates to
   the abandon/orphanage-adoption path; the backlog then drains and
   stays bounded.

   Unlike [run_robustness], this is a {e single-domain} deterministic
   replay — a scripted churn loop with no worker domains, no wall clock,
   and no randomness — so the controller's decision log is a pure
   function of the iteration count and replays bit-identically
   (test/test_adapt.ml runs it twice and pins the log). *)

type adaptivity_result = {
  ad_scheme : string;
  ad_adapt : bool;
  ad_iters : int;
  ad_peak_backlog : int; (* max retired-but-unreclaimed entries seen *)
  ad_end_backlog : int; (* backlog after the last iteration *)
  ad_escalated_at : int option; (* iteration of the abandon escalation *)
  ad_leaked : int; (* live blocks after quiesce; 0 = leak-free *)
  ad_decisions : string list;
}

let pp_adaptivity_result ppf r =
  Format.fprintf ppf
    "%-8s adapt=%-5b iters=%-6d peak_backlog=%-6d end_backlog=%-6d escalate=%s leaked=%d \
     decisions=%d"
    r.ad_scheme r.ad_adapt r.ad_iters r.ad_peak_backlog r.ad_end_backlog
    (match r.ad_escalated_at with Some i -> Printf.sprintf "@%d" i | None -> "never")
    r.ad_leaked (List.length r.ad_decisions)

(* One deterministic run: [iters] alloc/retire/eject churn iterations
   on the healthy domain (pid 1) while pid 0 stalls inside its first
   critical section; a controller tick every [check_every] iterations.
   Exposed with these knobs so the tests and the CI smoke can pin exact
   escalation points. *)
let run_adaptivity_one ?(iters = 2000) ?(check_every = 32) ?config ~adapt
    (module S : Smr.Smr_intf.S) =
  let plan =
    Fault.Fault_plan.create
      [ { site = On_begin_cs; pid = Some 0; at = 1; action = Stall 0 } ]
  in
  let module FS =
    Fault.Faulty_smr.Make
      (S)
      (struct
        let plan = plan
      end)
  in
  let module Ar = Acquire_retire.Make (FS) in
  (* epoch_freq/cleanup_freq 1: the scheme is maximally eager, so any
     unbounded growth is the stall's fault, not the tuning's. *)
  let ar = Ar.create ~epoch_freq:1 ~cleanup_freq:1 ~max_threads:2 () in
  (* The victim enters and never leaves: the plan stalls it at its
     first section entry, freezing its announcement. *)
  Ar.begin_critical_section ar ~pid:0;
  let wd = Ar.watchdog ~threshold:3 ~slack:64 () in
  let escalated_at = ref None in
  let iter = ref 0 in
  let ctl =
    if adapt then
      Some
        (Adapt.Controller.create ?config
           ~on_escalate:(fun () ->
             escalated_at := Some !iter;
             Ar.abandon ar ~pid:0)
           [ Ar.handle ar ])
    else None
  in
  let peak = ref 0 in
  for i = 1 to iters do
    iter := i;
    Ar.begin_critical_section ar ~pid:1;
    let m = Ar.alloc ar ~pid:1 i in
    Ar.retire_free ar ~pid:1 m;
    Ar.end_critical_section ar ~pid:1;
    List.iter (fun op -> op 1) (Ar.eject ar ~pid:1);
    peak := max !peak (Ar.total_pending ar);
    if i mod check_every = 0 then
      match ctl with
      | None -> ()
      | Some c ->
          let stalled =
            match Ar.watchdog_check ar wd with Ar.Stuck _ -> true | Ar.Progressing -> false
          in
          ignore
            (Adapt.Controller.observe c
               {
                 Adapt.Controller.backlog = Ar.total_pending ar;
                 p99 = None;
                 stalled;
               })
  done;
  let end_backlog = Ar.total_pending ar in
  (* Teardown: reap the victim if the controller never did, then apply
     everything — the run must be leak-free either way. *)
  if !escalated_at = None then Ar.abandon ar ~pid:0;
  Ar.drain ar ~pid:1;
  Ar.quiesce ar;
  {
    ad_scheme = S.name;
    ad_adapt = adapt;
    ad_iters = iters;
    ad_peak_backlog = !peak;
    ad_end_backlog = end_backlog;
    ad_escalated_at = !escalated_at;
    ad_leaked = Simheap.live (Ar.heap ar);
    ad_decisions = (match ctl with None -> [] | Some c -> Adapt.Controller.decisions c);
  }

(* Controller-on vs fixed-knob EBR under the same stalled-domain plan.
   Returns [(ok, results)]: [ok] iff the controller kept the peak
   backlog at or under [bound] while the fixed-knob run ended above it
   — the CI smoke's assertion. *)
let run_adaptivity ?(iters = 2000) ?(bound = 512) ?out () =
  Format.printf
    "@.== Adaptivity: stalled domain, controller vs fixed knobs (EBR) ==@.expected: \
     fixed-knob EBR backlog grows without bound behind the pinned frontier; the \
     controller backs off scans, escalates to abandon after the grace period, and \
     keeps the backlog under %d@.@."
    bound;
  let on = run_adaptivity_one ~iters ~adapt:true (module Smr.Ebr : Smr.Smr_intf.S) in
  let off = run_adaptivity_one ~iters ~adapt:false (module Smr.Ebr : Smr.Smr_intf.S) in
  let results = [ on; off ] in
  List.iter (fun r -> Format.printf "%a@." pp_adaptivity_result r) results;
  Format.printf "@.controller decisions:@.";
  List.iter (fun d -> Format.printf "    [adapt] %s@." d) on.ad_decisions;
  let ok =
    on.ad_peak_backlog <= bound && off.ad_end_backlog > bound
    && on.ad_leaked = 0 && off.ad_leaked = 0
  in
  Format.printf "@.bound=%d controller-on peak=%d (%s) fixed-knob end=%d (%s)@.@." bound
    on.ad_peak_backlog
    (if on.ad_peak_backlog <= bound then "bounded" else "VIOLATED")
    off.ad_end_backlog
    (if off.ad_end_backlog > bound then "unbounded as expected" else "UNEXPECTEDLY BOUNDED");
  (match out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "# adaptivity: stalled domain at first begin_cs, EBR, iters=%d bound=%d@."
        iters bound;
      List.iter (fun r -> Format.fprintf ppf "%a@." pp_adaptivity_result r) results;
      Format.fprintf ppf "# controller decision log@.";
      List.iter (fun d -> Format.fprintf ppf "%s@." d) on.ad_decisions;
      Format.pp_print_flush ppf ();
      close_out oc;
      Format.printf "results written to %s@.@." path);
  (ok, results)

(* ---------------- telemetry (`stats`) ---------------- *)

let ensure_results_dir () =
  try Unix.mkdir "results" 0o755 with Unix.Unix_error _ -> ()

(* Run [f] with stdout silenced — used by [stats --json] so the
   process's only stdout is the JSON object itself. Redirection happens
   at the fd level because OCaml 5's [Format.std_formatter] swaps in a
   shared buffered backend at the first domain spawn, which would
   bypass silenced formatter out-functions. *)
let with_quiet_stdout f =
  Format.pp_print_flush Format.std_formatter ();
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush Format.std_formatter ();
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

(* The per-scheme rings are in the metric tree; this is their merge. *)
let print_reclaim_latency () =
  let counts = Obs.Histo.merged_suffix ".reclaim_latency" in
  let p q = Option.value ~default:0 (Obs.Histo.percentile_of_counts counts q) in
  let n = Array.fold_left ( + ) 0 counts in
  if n > 0 then
    Format.printf
      "@.reclamation latency, all schemes (operation ticks survived; bucket upper \
       bounds)@.  n=%-9d p50=%-8d p99=%-8d p999=%d@."
      n (p 50.) (p 99.) (p 99.9)

(* Run [run] with telemetry on, export its event trace to
   [results/trace-<exp>.jsonl] and report the metric registry; with
   [check], also demand a parsable trace and every counter in
   [needs]. *)
let instrumented ~json ~check exp needs run =
  Obs.Report.reset_all ();
  Obs.Metrics.set_enabled true;
  Obs.Trace.set_enabled true;
  let status = if json then with_quiet_stdout run else run () in
  Obs.Metrics.set_enabled false;
  Obs.Trace.set_enabled false;
  if status = 2 then 2
  else begin
    ensure_results_dir ();
    let trace_path = Filename.concat "results" ("trace-" ^ exp ^ ".jsonl") in
    let trace_lines = Obs.Trace.export_file trace_path in
    if json then begin
      print_string (Obs.Report.json ());
      print_newline ()
    end
    else begin
      Format.printf "@.== telemetry: %s ==@.@." exp;
      print_string (Obs.Report.tree ());
      print_reclaim_latency ();
      Format.printf "@.trace: %s (%d events)@." trace_path trace_lines
    end;
    if not check then status
    else begin
      let failures = ref [] in
      (match Obs.Report.validate_jsonl_file trace_path with
      | Ok 0 -> failures := Printf.sprintf "%s: empty trace" trace_path :: !failures
      | Ok _ -> ()
      | Error e -> failures := Printf.sprintf "%s: %s" trace_path e :: !failures);
      let counters, _ = Obs.Metrics.dump () in
      let nonzero_key k = List.exists (fun (n, v) -> n = k && v > 0) counters in
      let nonzero_prefix p =
        List.exists (fun (n, v) -> v > 0 && String.starts_with ~prefix:p n) counters
      in
      List.iter
        (fun r ->
          let ok, what =
            match r with
            | Table.Key k -> (nonzero_key k, "counter " ^ k)
            | Table.Prefix p -> (nonzero_prefix p, "a nonzero counter under " ^ p)
          in
          if not ok then failures := ("missing " ^ what) :: !failures)
        needs;
      match List.rev !failures with
      | [] ->
          Format.eprintf "stats --check: OK (trace parses; required metrics present)@.";
          status
      | fs ->
          List.iter (fun f -> Format.eprintf "stats --check: FAIL: %s@." f) fs;
          1
    end
  end

(** Run one experiment with telemetry enabled, export the event trace
    to [results/trace-<exp>.jsonl], and report the metric registry.
    Returns a process exit code: 0 on success, 1 if a worker died or
    [--check] failed, 2 for an unknown experiment id or scheme. *)
let run_stats ?(threads = [ 2 ]) ?(duration = 0.3) ?(schemes = []) ?(scale = 1)
    ?(json = false) ?(check = false) exp =
  (* Every figure row of the table, robustness and one chaos campaign,
     each with the counters a telemetry-enabled run of it must have
     made nonzero, assuming the default (all-schemes) instance list. *)
  let experiments =
    List.map
      (fun (r : Table.row) ->
        (r.id, (r.needs, fun () -> Table.run ~threads ~duration ~schemes ~scale r)))
      Table.figures
    @ [
        ( "robustness",
          ( Table.[ Key "fault.fired"; Prefix "smr."; Prefix "ar." ],
            fun () -> run_robustness ~duration ~schemes () ) );
        ( "chaos",
          ( Table.[ Prefix "kv.breaker."; Key "kv.retry"; Key "kv.shed" ],
            (* One mixed campaign with the breaker on; a deliberately
               tight deadline makes sure the retry/shed paths fire, so
               the requirements are discriminating. *)
            fun () ->
              Table.with_selection "chaos" (Chaos_runner.find_schemes schemes) @@ fun cschemes ->
              let spec = { Chaos_runner.default_spec with Chaos_runner.ch_deadline = 12 } in
              ignore (Chaos_runner.run_all ~spec ~schemes:cschemes ());
              0 ) );
      ]
  in
  match List.assoc_opt exp experiments with
  | None ->
      Format.eprintf "stats: unknown experiment %S (expected one of: %s)@." exp
        (String.concat ", " (List.map fst experiments));
      2
  | Some (needs, run) -> instrumented ~json ~check exp needs run
