(** The experiments that are not rows of the experiment table
    ({!Table}): fault-injection robustness, controller adaptivity on
    its two targets and the controller's reaction probe, plus [stats],
    which runs a table row (or robustness, or a chaos campaign) with
    telemetry on. DESIGN.md §4 carries the full index;
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

(* Every manual scheme but the leak-everything baseline, whose garbage
   grows with or without a stall. *)
let robustness_schemes = List.filter (fun (name, _) -> name <> "None") Instances.named_schemes

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
      if St.stalled st && !watchdog_fired = None then watchdog_fired := Some now;
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
    (Instances.select ~find:(Instances.find_named fst robustness_schemes) robustness_schemes
       schemes)
  @@ fun picked ->
  Format.printf
    "@.== Robustness: one stalled thread, garbage growth and recovery by abandon \
     ==@.expected: EBR backlog grows unboundedly while stalled (watchdog trips); \
     HP/IBR/HE stay bounded; abandon restores leak-free reclamation everywhere@.@.";
  let results = List.map (fun (_, s) -> run_robustness_one ~duration ~seed s) picked in
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
   two targets of one stalled-victim replay. A fault plan stalls a
   victim inside a critical section forever, pinning EBR's epoch
   frontier. With fixed knobs the healthy worker's garbage grows
   without bound — every scan is futile and no human calls [abandon].
   With the controller on, the watchdog's Stuck verdicts feed the
   stall-response policy, which backs off the futile scans and, after
   the grace period, escalates to the abandon/orphanage-adoption path;
   the backlog then drains and stays bounded.

   - [Ebr]: an acquire–retire instance; the victim (pid 0) stalls at
     its first section entry, before the first iteration, and pid 1
     churns alloc/retire/eject.
   - [Kv]: shard 0 of a 2-shard KV service; the victim (pid 1) puts
     until the plan stalls it at its 8th shard-0 section entry, while
     pid 2 overwrites a hot set of 8 shard-0 keys, so every put retires
     a box into the pinned runtime. Escalation calls
     {!Kv_intf.S.abandon_shard}.

   Unlike [run_robustness], this is a {e single-domain} deterministic
   replay — a scripted churn loop with no worker domains, no wall clock,
   and no randomness — so the controller's decision log is a pure
   function of the iteration count and replays bit-identically
   (test/test_adapt.ml runs each target twice and pins its log). *)

type target = Ebr | Kv

(* One target, set up and ready to churn. *)
type replay = {
  label : string;
  churn : int -> unit; (* iteration [i] *)
  backlog : unit -> int;
  stuck : unit -> bool; (* the watchdog's verdict *)
  control : Smr.Knobs.handle list;
  abandon : unit -> unit; (* reap the victim *)
  fired : (unit -> bool) option; (* did the plan stall the victim? [None]: at setup *)
  finish : unit -> int; (* drain and tear down; the live blocks left *)
}

(* epoch_freq/cleanup_freq 1: the scheme is maximally eager, so any
   unbounded growth is the stall's fault, not the tuning's. *)
let replay target =
  let plan =
    let pid, at = match target with Ebr -> (0, 1) | Kv -> (1, 8) in
    Fault.Fault_plan.create [ { site = On_begin_cs; pid = Some pid; at; action = Stall 0 } ]
  in
  let module FS =
    Fault.Faulty_smr.Make
      (Smr.Ebr)
      (struct
        let plan = plan
      end)
  in
  match target with
  | Ebr ->
      let module Ar = Acquire_retire.Make (FS) in
      let ar = Ar.create ~epoch_freq:1 ~cleanup_freq:1 ~max_threads:2 () in
      (* The victim enters and never leaves. *)
      Ar.begin_critical_section ar ~pid:0;
      (* A tighter slack than the instance's own watchdog: this backlog
         grows by one entry per iteration. *)
      let wd = Obs.Watchdog.create ~slack:64 ~scheme:FS.name () in
      {
        label = Smr.Ebr.name;
        churn =
          (fun i ->
            Ar.begin_critical_section ar ~pid:1;
            let m = Ar.alloc ar ~pid:1 i in
            Ar.retire_free ar ~pid:1 m;
            Ar.end_critical_section ar ~pid:1;
            Ar.eject ar ~pid:1);
        backlog = (fun () -> Ar.total_pending ar);
        stuck =
          (fun () ->
            match FS.reclamation_frontier ar.Ar.smr with
            | None -> false
            | Some frontier ->
                Obs.Watchdog.check wd ~pid:0 ~frontier ~pending:(Ar.total_pending ar)
                <> Obs.Watchdog.Progressing);
        control = [ Ar.handle ar ];
        abandon = (fun () -> Ar.abandon ar ~pid:0);
        fired = None;
        finish =
          (fun () ->
            Ar.flush ar ~pid:1;
            Ar.quiesce ar;
            Simheap.live (Ar.heap ar));
      }
  | Kv ->
      let module K = Kv_service.Make (Cdrc.Make (FS)) in
      let t = K.create ~shards:2 ~buckets:32 ~epoch_freq:1 ~max_threads:3 () in
      let victim = K.ctx t 1 in
      let healthy = K.ctx t 2 in
      let shard0 =
        Array.of_list (List.filter (fun k -> K.shard_of_key t k = 0) (List.init 4096 Fun.id))
      in
      let key i = shard0.(i mod Array.length shard0) in
      {
        label = "kv-EBR";
        churn =
          (fun i ->
            (* A stalled victim is parked: the wrapper froze its
               protection mid-operation. *)
            if not (Fault.Fault_plan.stalled plan ~pid:1) then
              ignore (K.put victim ~now:i (key i) i);
            ignore (K.put healthy ~now:i (key (i mod 8)) i));
        backlog = (fun () -> K.shard_backlog t ~shard:0);
        stuck = (fun () -> K.stalled t);
        control = K.shard_control t ~shard:0;
        abandon = (fun () -> K.abandon_shard t ~shard:0 ~pid:1);
        fired = Some (fun () -> Fault.Fault_plan.stalled plan ~pid:1);
        finish =
          (fun () ->
            K.flush healthy;
            K.teardown t;
            K.live_objects t);
      }

type adaptivity_result = {
  ad_scheme : string;
  ad_adapt : bool;
  ad_iters : int;
  ad_peak_backlog : int; (* max retired-but-unreclaimed entries seen *)
  ad_end_backlog : int; (* backlog after the last iteration *)
  ad_escalated_at : int option; (* iteration of the abandon escalation *)
  ad_fired : bool option; (* the replay's [fired] *)
  ad_leaked : int; (* live blocks after teardown; 0 = leak-free *)
  ad_decisions : string list;
}

let pp_adaptivity_result ppf r =
  Format.fprintf ppf
    "%-8s adapt=%-5b iters=%-6d peak_backlog=%-6d end_backlog=%-6d escalate=%s%s leaked=%d \
     decisions=%d"
    r.ad_scheme r.ad_adapt r.ad_iters r.ad_peak_backlog r.ad_end_backlog
    (match r.ad_escalated_at with Some i -> Printf.sprintf "@%d" i | None -> "never")
    (match r.ad_fired with
    | None -> ""
    | Some f -> if f then " fault=fired" else " fault=NOT-FIRED")
    r.ad_leaked (List.length r.ad_decisions)

(* One deterministic run: [iters] churn iterations; a controller tick
   every [check_every] iterations. *)
let run_adaptivity_one ?(iters = 2000) ?(check_every = 32) ~adapt target =
  let r = replay target in
  let escalated_at = ref None in
  let iter = ref 0 in
  let ctl =
    if adapt then
      Some
        (Adapt.Controller.create
           ~on_escalate:(fun () ->
             escalated_at := Some !iter;
             r.abandon ())
           r.control)
    else None
  in
  let peak = ref 0 in
  for i = 1 to iters do
    iter := i;
    r.churn i;
    peak := max !peak (r.backlog ());
    if i mod check_every = 0 then
      Option.iter
        (fun c ->
          let stalled = r.stuck () in
          ignore
            (Adapt.Controller.observe c
               { Adapt.Controller.backlog = r.backlog (); p99 = None; stalled }))
        ctl
  done;
  let end_backlog = r.backlog () in
  (* Reap the victim if the controller never did: the run must be
     leak-free either way. *)
  if !escalated_at = None then r.abandon ();
  let leaked = r.finish () in
  {
    ad_scheme = r.label;
    ad_adapt = adapt;
    ad_iters = iters;
    ad_peak_backlog = !peak;
    ad_end_backlog = end_backlog;
    ad_escalated_at = !escalated_at;
    ad_fired = Option.map (fun f -> f ()) r.fired;
    ad_leaked = leaked;
    ad_decisions = (match ctl with None -> [] | Some c -> Adapt.Controller.decisions c);
  }

(* Each target's title and expected result. *)
let adaptivity_header = function
  | Ebr ->
      ( "Adaptivity: stalled domain, controller vs fixed knobs (EBR)",
        "fixed-knob EBR backlog grows without bound behind the pinned frontier; the \
         controller backs off scans, escalates to abandon after the grace period, and keeps \
         the backlog under" )
  | Kv ->
      ( "KV stalled shard: victim pinned in a shard-0 critical section (EBR)",
        "fixed-knob backlog grows behind the pinned frontier; the controller escalates to \
         abandon_shard and keeps the peak under" )

(* Controller-on vs fixed knobs on each target. A target passes iff
   the controller kept the peak backlog at or under [bound] while the
   fixed-knob run ended above it, both leak-free and with the fault
   fired; the exit status is 1 unless both pass — the CI smoke's
   assertion. *)
let run_adaptivity ?(iters = 2000) ?(bound = 512) ?out () =
  let runs =
    List.map
      (fun target ->
        let title, expected = adaptivity_header target in
        Format.printf "@.== %s ==@.expected: %s %d@.@." title expected bound;
        let on = run_adaptivity_one ~iters ~adapt:true target in
        let off = run_adaptivity_one ~iters ~adapt:false target in
        Format.printf "%a@.%a@." pp_adaptivity_result on pp_adaptivity_result off;
        Format.printf "@.controller decisions:@.";
        List.iter (fun d -> Format.printf "    [adapt] %s@." d) on.ad_decisions;
        let fired r = r.ad_fired <> Some false in
        let ok =
          on.ad_peak_backlog <= bound && off.ad_end_backlog > bound
          && on.ad_leaked = 0 && off.ad_leaked = 0 && fired on && fired off
        in
        Format.printf "@.bound=%d controller-on peak=%d (%s) fixed-knob end=%d (%s)@.@." bound
          on.ad_peak_backlog
          (if on.ad_peak_backlog <= bound then "bounded" else "VIOLATED")
          off.ad_end_backlog
          (if off.ad_end_backlog > bound then "unbounded as expected" else "UNEXPECTEDLY BOUNDED");
        (ok, on, off))
      [ Ebr; Kv ]
  in
  (match out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "# adaptivity: stalled victim, EBR, iters=%d bound=%d@." iters bound;
      List.iter
        (fun (_, on, off) ->
          Format.fprintf ppf "%a@.%a@.# controller decision log@." pp_adaptivity_result on
            pp_adaptivity_result off;
          List.iter (fun d -> Format.fprintf ppf "%s@." d) on.ad_decisions)
        runs;
      Format.pp_print_flush ppf ();
      close_out oc;
      Format.printf "results written to %s@.@." path);
  if List.for_all (fun (ok, _, _) -> ok) runs then 0 else 1

(* Controller reaction latency to a workload phase shift: how fast
   adaptation reacts, not just whether it eventually bounds the
   backlog. Deterministic single thread, logical time.

   The probe couples the hotspot keygen's migrations to a retirement
   signal the controller can see: every tick refreshes the hot set
   with TTL'd puts, so while a phase is stable the entries are
   perpetually renewed and the backlog stays calm; the moment the hot
   set migrates, the abandoned phase stops being refreshed, expires
   [ttl] ticks later, and the next background sweep claims the whole
   old hot set at once — a retirement burst that drives the shard
   backlog past [backlog_high]. Reaction latency is the tick gap from
   the migration to the controller's first [Force_advance], so it
   bounds the end-to-end detection pipeline: expiry + sweep cadence +
   controller tick. *)

type reaction_result = {
  a_shifts : int; (* hot-set migrations that occurred *)
  a_reactions : int list; (* shift → first Force_advance, ticks, per shift *)
  a_worst : int; (* max reaction; -1 when nothing was measured *)
  a_peak_backlog : int; (* anywhere, including post-shift bursts *)
  a_steady_peak : int; (* outside the post-shift burst windows *)
  a_decisions : string list;
}

let reaction_g = Obs.Metrics.gauge "adapt.reaction_ticks"

let measure_adapt_reaction ?(ticks = 2400) ?(hot_keys = 256) ?(shift_ticks = 800)
    ?(ttl = 32) ?(sweep_every = 8) ?(per_tick = 8) ?(seed = 42) () =
  let module K = Instances.Kv_ebr in
  let metrics_were = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let t = K.create ~shards:1 ~buckets:64 ~epoch_freq:1 ~max_threads:2 () in
  let c = K.ctx t 1 in
  let kg =
    Keygen.create ~seed ~range:16_384
      (Keygen.Hotspot
         { hot_keys; hot_pct = 100; shift_every = shift_ticks * per_tick })
  in
  (* Thresholds sized so a steady phase never fires the pressure
     policy but one expired hot set always does. The sweep that claims
     an expired hot set drains most of its own burst as it goes (the
     retire path ejects every cleanup batch), so the observable spike
     tops out well under [hot_keys]; 3/8 of the hot set sits between
     the steady-churn plateau and that post-sweep residue. *)
  let config =
    {
      Adapt.Controller.default_config with
      Adapt.Controller.backlog_high = 3 * hot_keys / 8;
      backlog_low = hot_keys / 16;
    }
  in
  let ctl = Adapt.Controller.create ~config (K.shard_control t ~shard:0) in
  let seen_shifts = ref 0 in
  let pending_shift = ref None in
  let last_shift = ref min_int in
  let reactions = ref [] in
  let peak = ref 0 in
  let steady_peak = ref 0 in
  for tick = 1 to ticks do
    let now = K.tick t in
    for _ = 1 to per_tick do
      ignore (K.put c ~now ~ttl (Keygen.next kg) tick)
    done;
    if Keygen.shifts kg > !seen_shifts then begin
      seen_shifts := Keygen.shifts kg;
      (* A shift during an unfinished measurement restarts the clock:
         the controller has yet to react to any phase change. *)
      pending_shift := Some tick;
      last_shift := tick
    end;
    if tick mod sweep_every = 0 then ignore (K.expire_sweep c ~now);
    let backlog = K.shard_backlog t ~shard:0 in
    peak := max !peak backlog;
    if tick - !last_shift > 2 * (ttl + sweep_every) then
      steady_peak := max !steady_peak backlog;
    let actions =
      Adapt.Controller.observe ctl
        { Adapt.Controller.backlog; p99 = None; stalled = false }
    in
    match !pending_shift with
    | Some t0 when List.mem Adapt.Controller.Force_advance actions ->
        let dt = tick - t0 in
        reactions := dt :: !reactions;
        Obs.Metrics.set_gauge reaction_g dt;
        pending_shift := None
    | _ -> ()
  done;
  K.flush c;
  K.teardown t;
  Obs.Metrics.set_enabled metrics_were;
  {
    a_shifts = !seen_shifts;
    a_reactions = !reactions;
    a_worst = List.fold_left max (-1) !reactions;
    a_peak_backlog = !peak;
    a_steady_peak = !steady_peak;
    a_decisions = Adapt.Controller.decisions ctl;
  }

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
