(** The robustness fault row of the experiment table ({!Table}), and
    [stats], which runs a row with telemetry on. DESIGN.md §4 carries
    the full index; EXPERIMENTS.md records paper-vs-measured
    outcomes. *)

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
    experiments are the figure rows and robustness. Returns a process
    exit code: 0 on success, 1 if a cell failed or [--check] did, 2 for
    an unknown experiment id or scheme. *)
let run_stats ?(threads = [ 2 ]) ?(duration = 0.3) ?(schemes = []) ?(scale = 1)
    ?(json = false) ?(check = false) exp =
  let rows = Table.figures @ [ robustness_row () ] in
  match List.find_opt (fun (r : Table.row) -> r.id = exp) rows with
  | None ->
      Format.eprintf "stats: unknown experiment %S (expected one of: %s)@." exp
        (String.concat ", " (List.map (fun (r : Table.row) -> r.id) rows));
      2
  | Some r ->
      instrumented ~json ~check exp r.needs (fun () ->
          Table.run ~threads ~duration ~schemes ~scale r)
