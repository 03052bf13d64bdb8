(** The fault rows of the experiment table ({!Table}) — robustness and
    controller adaptivity; chaos campaigns are {!Chaos_runner}'s — the
    controller's reaction probe, and [stats], which runs a row with
    telemetry on. DESIGN.md §4 carries the full index; EXPERIMENTS.md
    records paper-vs-measured outcomes. *)

(* ---------------- robustness (fault injection) ---------------- *)

(* The paper's §2/§5.2 robustness claim, machine-checked: stall one
   thread inside its critical section and watch each scheme's garbage.
   EBR's and Hyaline's grow without bound (the stalled section pins the
   reclamation frontier), the robust schemes cap it per stalled thread,
   and reaping the stalled thread with [abandon] restores reclamation
   everywhere. Workers push and pop a Treiber stack — the smallest real
   SMR consumer — over a scheme injecting from the row's plan: pid 1
   stalls forever at its 21st section entry, and at half the run the
   runner's recovery abandons every stalled worker. *)

(* Every manual scheme but the leak-everything baseline, whose garbage
   grows with or without a stall. *)
let robustness_schemes = List.filter (fun (name, _) -> name <> "None") Instances.named_schemes
let robust_peak_bound = 1024

let robustness_instance ((name, scheme) : string * (module Smr.Smr_intf.S)) : Table.instance =
  ( name,
    fun s ->
      let module St = Ds.Treiber_stack_manual.Make ((val Table.faulty scheme s.plan)) in
      let st = St.create ~max_threads:(s.threads + 1) () in
      let robust = List.mem name Instances.robust_schemes in
      let recovered = ref false and peak = ref 0 and at_abandon = ref 0 and at_end = ref 0 in
      let live () =
        let n = St.live_objects st in
        if not !recovered then peak := max !peak n;
        n
      in
      let check () =
        at_end := St.live_objects st;
        Table.violations
          [
            (Fault.Fault_plan.trace s.plan <> [], "the stall never fired");
            (!recovered, "the stalled thread was never abandoned");
            ( (not robust) || !peak <= robust_peak_bound,
              Printf.sprintf "peak live blocks while stalled %d > %d" !peak robust_peak_bound );
            ( robust || !at_end < !at_abandon,
              Printf.sprintf "live blocks at the end %d not below %d at abandon" !at_end
                !at_abandon );
          ]
      in
      Table.probe ~check ~live
        ~stalled:(fun () -> St.stalled st)
        ~recover:(fun () ->
          at_abandon := St.live_objects st;
          recovered := true;
          for pid = 1 to s.threads do
            if Fault.Fault_plan.stalled s.plan ~pid then St.abandon st ~pid
          done)
        ~columns:(fun () ->
          [ ("stalled_peak", !peak); ("abandon_live", !at_abandon); ("end_live", !at_end) ])
        ~backlog:(fun () -> St.retired_backlog st)
        ~teardown:(fun () -> St.teardown st)
        (fun pid continue ->
          let c = St.ctx st pid in
          let rng = Repro_util.Rng.create ~seed:(42 + (pid * 7919)) in
          let stalled () = Fault.Fault_plan.stalled s.plan ~pid in
          (* A parked thread is "preempted" holding its protection. *)
          Table.batches ~iters:1 ~ops:2 continue (fun _ ->
              if stalled () then Unix.sleepf 0.001
              else begin
                St.push c (Repro_util.Rng.int rng 1000);
                ignore (St.pop c)
              end);
          if not (stalled ()) then St.flush c) )

let robustness_row ?(schemes = robustness_schemes) () =
  Table.row ~id:"robustness" ~selectable:true
    ~title:"Robustness: one stalled thread, garbage growth and recovery by abandon"
    ~expected:
      (Printf.sprintf
         "EBR and Hyaline grow without bound while stalled (EBR's watchdog trips); %s stay \
          under %d live blocks; abandon at half the run brings EBR and Hyaline back down; \
          nothing leaks"
         (String.concat "/" Instances.robust_schemes)
         robust_peak_bound)
    ~needs:Table.[ Key "fault.fired"; Prefix "smr."; Prefix "ar." ]
    (* The victim and two workers that make garbage, whatever
       --threads says: a lone victim shows nothing. *)
    ~axis:(Workers 3)
    ~faults:[ { site = On_begin_cs; pid = Some 1; at = 21; action = Stall 0 } ]
    "robustness"
    (List.map robustness_instance schemes)

let run_robustness ?(duration = 1.0) ?(schemes = []) () =
  if duration > 0. then Table.run ~duration ~schemes (robustness_row ())
  else begin
    Format.eprintf "robustness: --duration must be positive@.";
    2
  end

(* ---------------- adaptivity (controller vs fixed knobs) ---------------- *)

(* The adaptive controller's claim, machine-checked on two targets. A
   fault plan stalls a victim inside a critical section forever,
   pinning EBR's epoch frontier. With fixed knobs the healthy worker's
   garbage grows without bound: every scan is futile and nobody calls
   [abandon]. With the controller on, the watchdog's Stuck verdicts
   feed the stall-response policy, which backs off the futile scans
   and, after the grace period, escalates to the kernel's recovery
   (abandon and orphanage adoption); the backlog then drains.

   - [adaptivity]: an acquire–retire instance; the victim (pid 0)
     stalls at its first section entry and pid 1 churns
     alloc/retire/eject.
   - [adaptivity-kv]: shard 0 of a 2-shard KV service; the victim (pid
     1) puts until its 8th shard-0 section entry stalls it, while pid 2
     overwrites 8 hot shard-0 keys, retiring a box into the pinned
     runtime on every put. Recovery is {!Kv_intf.S.abandon_shard}.

   Each row is stepped, one churn iteration a step and a controller
   tick every 32, so its decision log replays bit-identically
   (test/test_adapt.ml pins it). A controller-on cell passes iff its
   peak backlog stays within the bound, a fixed-knob cell iff its end
   backlog exceeds it; the fixed-knob cell reaps the victim before
   teardown, and neither may leak. *)

(* A target's probe: a stepped worker running [churn], the recovery
   [abandon] and the checks; [fired]: did the plan stall the victim
   ([None]: at setup). epoch_freq/cleanup_freq 1 make the scheme
   maximally eager, so any unbounded growth is the stall's fault. *)
let stalled_victim ~bound (s : Table.setup) ~churn ~abandon ?fired ~control ~stalled ~live
    ~backlog ~teardown () =
  let step = ref 0 and peak = ref 0 and end_backlog = ref 0 and escalated = ref None in
  let check () =
    end_backlog := backlog ();
    Table.violations
      [
        ( (not s.adapt) || !peak <= bound,
          Printf.sprintf "controller-on peak backlog %d > %d" !peak bound );
        ( s.adapt || !end_backlog > bound,
          Printf.sprintf "fixed-knob end backlog %d <= %d" !end_backlog bound );
        (Option.fold ~none:true ~some:(fun f -> f ()) fired, "the fault never fired");
      ]
  in
  let column name = Option.map (fun v -> (name, v)) in
  Table.probe ~control ~stalled ~live ~backlog ~check
    ~recover:(fun () ->
      escalated := Some !step;
      abandon ())
    ~columns:(fun () ->
      [ ("peak_backlog", !peak); ("end_backlog", !end_backlog) ]
      @ Option.to_list (column "escalated" !escalated)
      @ Option.to_list (column "fired" (Option.map (fun f -> Bool.to_int (f ())) fired)))
    ~teardown:(fun () ->
      if !escalated = None then abandon ();
      teardown ())
    (fun _ ->
      Table.each_step (fun i ->
          step := i;
          churn i;
          peak := max !peak (backlog ())))

let ebr_target ~bound : Table.instance =
  ( Smr.Ebr.name,
    fun s ->
      let module FS = (val Table.faulty (module Smr.Ebr) s.plan) in
      let module Ar = Acquire_retire.Make (FS) in
      let ar = Ar.create ~epoch_freq:1 ~cleanup_freq:1 ~max_threads:2 () in
      (* The victim enters and never leaves. *)
      Ar.begin_critical_section ar ~pid:0;
      (* A tighter slack than the instance's own watchdog: this backlog
         grows by one entry per step. *)
      let wd = Obs.Watchdog.create ~slack:64 ~scheme:FS.name () in
      let backlog () = Ar.total_pending ar in
      stalled_victim ~bound s
        ~churn:(fun i ->
          Ar.begin_critical_section ar ~pid:1;
          Ar.retire_free ar ~pid:1 (Ar.alloc ar ~pid:1 i);
          Ar.end_critical_section ar ~pid:1;
          Ar.eject ar ~pid:1)
        ~abandon:(fun () -> Ar.abandon ar ~pid:0)
        ~backlog ~control:[ Ar.handle ar ]
        ~stalled:(fun () ->
          match FS.reclamation_frontier ar.Ar.smr with
          | None -> false
          | Some frontier ->
              Obs.Watchdog.check wd ~pid:0 ~frontier ~pending:(backlog ())
              <> Obs.Watchdog.Progressing)
        ~live:(fun () -> Simheap.live (Ar.heap ar))
        ~teardown:(fun () ->
          Ar.flush ar ~pid:1;
          Ar.quiesce ar)
        () )

let kv_target ~bound : Table.instance =
  ( Smr.Ebr.name,
    fun s ->
      let module K = Kv_service.Make (Cdrc.Make ((val Table.faulty (module Smr.Ebr) s.plan))) in
      let t = K.create ~shards:2 ~buckets:32 ~epoch_freq:1 ~max_threads:3 () in
      let victim = K.ctx t 1 and healthy = K.ctx t 2 in
      let shard0 =
        Array.of_list (List.filter (fun k -> K.shard_of_key t k = 0) (List.init 4096 Fun.id))
      in
      let key i = shard0.(i mod Array.length shard0) in
      let fired () = Fault.Fault_plan.stalled s.plan ~pid:1 in
      stalled_victim ~bound s ~fired
        ~churn:(fun i ->
          (* A stalled victim is parked: the wrapper froze its
             protection mid-operation. *)
          if not (fired ()) then ignore (K.put victim ~now:i (key i) i);
          ignore (K.put healthy ~now:i (key (i mod 8)) i))
        ~abandon:(fun () -> K.abandon_shard t ~shard:0 ~pid:1)
        ~control:(K.shard_control t ~shard:0)
        ~stalled:(fun () -> K.stalled t)
        ~live:(fun () -> K.live_objects t)
        ~backlog:(fun () -> K.shard_backlog t ~shard:0)
        ~teardown:(fun () ->
          K.flush healthy;
          K.teardown t)
        () )

(* Each target with the controller off, then on. *)
let adaptivity_rows ?(iters = 2000) ?(bound = 512) () =
  let row ~id ~title ~expected ~victim ~at structure target =
    Table.row ~id ~title ~expected:(Printf.sprintf "%s %d" expected bound)
      ~axis:Adapt
      ~faults:[ { site = On_begin_cs; pid = Some victim; at; action = Stall 0 } ]
      ~length:(Steps { steps = iters; every = 32 })
      structure [ target ~bound ]
  in
  [
    row ~id:"adaptivity" ~victim:0 ~at:1 "ar" ebr_target
      ~title:"Adaptivity: stalled domain, fixed knobs vs controller (EBR)"
      ~expected:
        "fixed-knob EBR backlog grows without bound behind the pinned frontier; the \
         controller backs off scans, escalates to abandon after the grace period, and keeps \
         the backlog under";
    row ~id:"adaptivity-kv" ~victim:1 ~at:8 "kv" kv_target
      ~title:"KV stalled shard: victim pinned in a shard-0 critical section (EBR)"
      ~expected:
        "fixed-knob backlog grows behind the pinned frontier; the controller escalates to \
         abandon_shard and keeps the peak under";
  ]

(* Exit 1 unless every cell of both rows passes: the CI smoke's
   assertion. *)
let run_adaptivity ?iters ?bound () =
  List.fold_left (fun status r -> max status (Table.run r)) 0 (adaptivity_rows ?iters ?bound ())

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
      let counters, _ = Obs.Metrics.dump () in
      let nonzero named = List.exists (fun (n, v) -> v > 0 && named n) counters in
      let failures =
        (match Obs.Report.validate_jsonl_file trace_path with
        | Ok 0 -> [ trace_path ^ ": empty trace" ]
        | Ok _ -> []
        | Error e -> [ trace_path ^ ": " ^ e ])
        @ Table.violations
            (List.map
               (function
                 | Table.Key k -> (nonzero (String.equal k), "missing counter " ^ k)
                 | Table.Prefix p ->
                     ( nonzero (String.starts_with ~prefix:p),
                       "missing a nonzero counter under " ^ p ))
               needs)
      in
      match failures with
      | [] ->
          Format.eprintf "stats --check: OK (trace parses; required metrics present)@.";
          status
      | fs ->
          List.iter (fun f -> Format.eprintf "stats --check: FAIL: %s@." f) fs;
          1
    end
  end

(** Run one row with telemetry enabled, export the event trace to
    [results/trace-<exp>.jsonl], and report the metric registry. The
    experiments are the figure rows, robustness, and one mixed chaos
    campaign with the breaker on and a deliberately tight deadline,
    which makes the retry/shed paths fire so its requirements are
    discriminating. The adaptivity rows are not: telemetry feeds their
    controller a latency signal, so it would measure another
    controller. Returns a process exit code: 0 on success, 1 if a cell
    failed or [--check] did, 2 for an unknown experiment id or
    scheme. *)
let run_stats ?(threads = [ 2 ]) ?(duration = 0.3) ?(schemes = []) ?(scale = 1)
    ?(json = false) ?(check = false) exp =
  let chaos = Chaos_runner.row { Chaos_runner.default_spec with ch_deadline = 12 } in
  let rows = Table.figures @ [ robustness_row (); Result.get_ok chaos ] in
  match List.find_opt (fun (r : Table.row) -> r.id = exp) rows with
  | None ->
      Format.eprintf "stats: unknown experiment %S (expected one of: %s)@." exp
        (String.concat ", " (List.map (fun (r : Table.row) -> r.id) rows));
      2
  | Some r ->
      instrumented ~json ~check exp r.needs (fun () ->
          Table.run ~threads ~duration ~schemes ~scale r)
