(* Command-line driver: run any single experiment from the paper's
   evaluation with full parameter control. Every row of the experiment
   table (Workload.Table) is a subcommand:

     cdrc-bench fig11 --threads 1,2,4 --duration 0.5
     cdrc-bench fig13c --schemes EBR,RCEBR --scale 10
     cdrc-bench abl-epochfreq --threads 1,2
     cdrc-bench custom --structure tree --update 20 --rq 5 ...

   `bench/main.exe` runs every row; this tool is for focused
   measurements. *)

open Cmdliner

let threads_arg =
  let doc = "Comma-separated thread counts to sweep." in
  Arg.(value & opt (list int) [ 1; 2; 4 ] & info [ "t"; "threads" ] ~docv:"N,N,..." ~doc)

let duration_arg =
  let doc = "Measured seconds per data point." in
  Arg.(value & opt float 0.5 & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc)

let schemes_arg =
  let doc =
    "Comma-separated scheme names (EBR, IBR, Hyaline, HP, HE, RCEBR, RCIBR, RCHyaline, \
     RCHP, RCHE; queues also accept Original, locked-weak, RC*-weak). Default: all."
  in
  Arg.(value & opt (list string) [] & info [ "s"; "schemes" ] ~docv:"NAME,..." ~doc)

let scale_arg =
  let doc = "Divide structure sizes by this factor (smoke runs)." in
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"K" ~doc)

let adapt_arg =
  let doc =
    "Run the adaptive reclamation controller alongside the sampler (on|off). The \
     controller's decision log is printed with each result."
  in
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) false
    & info [ "adapt" ] ~docv:"on|off" ~doc)

(* Experiment runners return their exit status: 2 for an unknown
   scheme, 1 when a worker died, else 0. *)
let exit_with status = if status <> 0 then exit status

(* A table row's flags: --threads and --duration, plus --schemes when
   the row is selectable, --scale and --adapt for the set figures,
   --repeats when the row repeats its cells. *)
let row_term ~schemes ~scale ~adapt ~repeats =
  let flag present arg default = if present then arg else Term.const default in
  let repeats_arg =
    Arg.(
      value & opt int repeats
      & info [ "repeats" ] ~docv:"N" ~doc:"Repeats per cell (median reported).")
  in
  let run threads duration schemes scale adapt repeats row =
    exit_with (Workload.Table.run ~threads ~duration ~schemes ~scale ~adapt ~repeats row)
  in
  Term.(
    const run $ threads_arg $ duration_arg
    $ flag schemes schemes_arg [] $ flag scale scale_arg 1 $ flag adapt adapt_arg false
    $ flag (repeats > 1) repeats_arg 1)

let row_cmd (r : Workload.Table.row) =
  let figure = r.axis = Workload.Table.Threads && r.keys > 0 in
  let term = row_term ~schemes:r.selectable ~scale:figure ~adapt:figure ~repeats:r.repeats in
  Cmd.v (Cmd.info r.id ~doc:r.title) Term.(term $ const r)

let robustness_cmd =
  let run duration schemes =
    exit_with (Workload.Experiments.run_robustness ~duration ~schemes ())
  in
  Cmd.v
    (Cmd.info "robustness"
       ~doc:
         "Fault injection: garbage growth under one stalled thread, and recovery via \
          abandon (exit 1 unless every scheme passes its check)")
    Term.(const run $ duration_arg $ schemes_arg)

let adaptivity_cmd =
  let iters_arg =
    Arg.(
      value & opt int 2000
      & info [ "iters" ] ~docv:"N" ~doc:"Churn iterations per replay.")
  in
  let bound_arg =
    Arg.(
      value & opt int 512
      & info [ "bound" ] ~docv:"B"
          ~doc:
            "Backlog bound asserted for the controller-on run (and exceeded by the \
             fixed-knob run).")
  in
  let run iters bound = exit_with (Workload.Experiments.run_adaptivity ~iters ~bound ()) in
  Cmd.v
    (Cmd.info "adaptivity"
       ~doc:
         "Adaptive controller vs fixed knobs under a stalled victim: deterministic \
          replays on an acquire-retire instance and on shard 0 of the KV service, \
          asserting the controller keeps EBR's garbage bounded where fixed knobs do not \
          (exit 1 on violation)")
    Term.(const run $ iters_arg $ bound_arg)

let perf_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the JSON summary to FILE (default: stdout).")
  in
  let label_arg =
    Arg.(
      value & opt string "perf"
      & info [ "label" ] ~docv:"LABEL" ~doc:"Label recorded in the summary's meta block.")
  in
  let keys_arg =
    Arg.(
      value
      & opt int Workload.Table.perf_keys
      & info [ "keys" ] ~docv:"N" ~doc:"Structure size (elements / key range) per cell.")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Validate the emitted summary (schema sanity + coverage of all 7 reclamation \
             schemes); exit 1 on failure.")
  in
  let run threads duration keys label out validate =
    let log m = Printf.eprintf "perf: %s\n%!" m in
    let s, failures = Workload.Perf_runner.run ~label ~threads ~duration ~scale:keys ~log () in
    let json = Obs.Perf.to_string s in
    (match out with
    | None -> print_endline json
    | Some f ->
        let oc = open_out f in
        output_string oc json;
        output_char oc '\n';
        close_out oc;
        Printf.eprintf "perf: wrote %s (%d cells, %d atomic profiles)\n%!" f
          (List.length s.Obs.Perf.s_cells)
          (List.length s.Obs.Perf.s_atomics));
    (if validate then
      match
        Obs.Perf.validate ~require_schemes:Workload.Perf_runner.required_schemes s
      with
      | Ok () -> Printf.eprintf "perf: summary valid\n%!"
      | Error e ->
          Printf.eprintf "perf: summary INVALID: %s\n%!" e;
          exit 1);
    exit_with (Workload.Harness.status failures)
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Run the pinned perf-trajectory matrix (every scheme x stack/queue/hash x \
          thread count) with telemetry on and emit a machine-readable BENCH_*.json \
          summary; gate it against a baseline with tools/bench_check")
    Term.(
      const run $ threads_arg $ duration_arg $ keys_arg $ label_arg $ out_arg
      $ validate_arg)

let stats_cmd =
  let exp_arg =
    let doc =
      "Experiment to instrument: any table row (fig11, fig12, abl-sticky, ...), robustness \
       or chaos."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let perf_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "perf" ] ~docv:"FILE"
          ~doc:
            "Instead of running an experiment, render the perf summary in FILE (a \
             BENCH_*.json from the perf subcommand) as a per-scheme breakdown table \
             including atomics-per-op.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one JSON object (run output suppressed) instead of the metric tree.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the exported trace JSONL and assert required metric keys are \
             nonzero; exit 1 on failure.")
  in
  let run threads duration schemes scale json check perf exp =
    match (perf, exp) with
    | Some file, _ -> (
        match Obs.Perf.load_file file with
        | Error e ->
            Format.eprintf "stats: %s@." e;
            exit 2
        | Ok s -> Format.printf "%a@." Obs.Perf.pp s)
    | None, None ->
        Format.eprintf "stats: an EXPERIMENT is required (or --perf FILE)@.";
        exit 2
    | None, Some exp ->
        exit_with
          (Workload.Experiments.run_stats ~threads ~duration ~schemes ~scale ~json ~check
             exp)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run an experiment with telemetry enabled: metric tree, reclamation-latency \
          percentiles, and an event trace in results/trace-<EXPERIMENT>.jsonl. With \
          --perf FILE, render a saved perf summary instead.")
    Term.(
      const run $ threads_arg $ duration_arg $ schemes_arg $ scale_arg $ json_arg
      $ check_arg $ perf_arg $ exp_arg)

let custom_cmd =
  let structure_arg =
    let structure_conv =
      Arg.enum
        [
          ("list", Workload.Instances.List_s);
          ("hash", Workload.Instances.Hash_s);
          ("tree", Workload.Instances.Tree_s);
        ]
    in
    Arg.(value & opt structure_conv Workload.Instances.Tree_s & info [ "structure" ] ~doc:"list|hash|tree")
  in
  let update_arg = Arg.(value & opt int 10 & info [ "update" ] ~doc:"Update percentage.") in
  let rq_arg = Arg.(value & opt int 0 & info [ "rq" ] ~doc:"Range-query percentage.") in
  let rq_size_arg = Arg.(value & opt int 64 & info [ "rq-size" ] ~doc:"Range-query width.") in
  let size_arg = Arg.(value & opt int 100_000 & info [ "size" ] ~doc:"Initial keys.") in
  let range_arg =
    Arg.(value & opt (some int) None & info [ "range" ] ~doc:"Key range (default 2x size).")
  in
  let make structure update rq rq_size size range =
    let range = Option.value range ~default:(2 * size) in
    Workload.Table.custom ~structure ~update ~rq ~rq_size ~size ~range
  in
  let row =
    Term.(const make $ structure_arg $ update_arg $ rq_arg $ rq_size_arg $ size_arg $ range_arg)
  in
  Cmd.v
    (Cmd.info "custom" ~doc:"Custom workload on any structure")
    Term.(row_term ~schemes:true ~scale:false ~adapt:true ~repeats:1 $ row)

let kv_cmd =
  let shards_arg =
    Arg.(
      value & opt (list int) [ 4 ]
      & info [ "shards" ] ~docv:"N,N,..."
          ~doc:"Comma-separated shard counts to sweep (rounded up to powers of two).")
  in
  let mix_arg =
    Arg.(
      value & opt (list string) [ "read95" ]
      & info [ "mix" ] ~docv:"M,M,..."
          ~doc:"Operation mixes to run: read95 (95% gets), write50 (50% gets).")
  in
  let keys_arg = Arg.(value & opt int 16_384 & info [ "keys" ] ~docv:"N" ~doc:"Key range.") in
  let run threads duration schemes adapt shards mixes keys =
    let rows =
      List.map
        (fun m ->
          match Workload.Table.kv_row ~keys ~shards m with
          | Ok r -> r
          | Error e ->
              Format.eprintf "kv: %s@." e;
              exit 2)
        mixes
    in
    exit_with
      (List.fold_left
         (fun status r ->
           if status = 2 then 2
           else max status (Workload.Table.run ~threads ~duration ~schemes ~adapt r))
         0 rows)
  in
  Cmd.v
    (Cmd.info "kv"
       ~doc:
         "Sharded KV serving workload over the RC hash table: scheme x thread count x \
          shard count cells per mix, Zipfian keys with TTL-expiry churn; every cell checks \
          the accounting identities and leak-freedom (exit 1 on a violation)")
    Term.(
      const run $ threads_arg $ duration_arg $ schemes_arg $ adapt_arg $ shards_arg
      $ mix_arg $ keys_arg)

let chaos_cmd =
  let campaign_arg =
    Arg.(
      value & opt string "mixed"
      & info [ "campaign" ] ~docv:"KIND"
          ~doc:
            "Campaign kind: stall-storm | rolling-crash | crash-eject | gray-slow | \
             mixed (stall + rolling crash + gray + eject-crash across victims).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign seed: victim selection, fire points and all request randomness \
             derive from it, so a failed campaign replays bit-identically.")
  in
  let steps_arg =
    Arg.(value & opt int 4000 & info [ "steps" ] ~docv:"N" ~doc:"Requests to issue.")
  in
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N" ~doc:"Shard count (power of two).")
  in
  let victims_arg =
    Arg.(
      value & opt (some int) None
      & info [ "victims" ] ~docv:"N" ~doc:"Faulted shards (default: all).")
  in
  let breaker_arg =
    Arg.(
      value & opt (enum [ ("on", true); ("off", false) ]) true
      & info [ "breaker" ] ~docv:"on|off"
          ~doc:
            "Per-shard circuit breakers + recovery drills. With off, no recovery runs \
             — the recovery-SLO oracle then fails on campaigns that pin a shard (the \
             CI inverted gate).")
  in
  let write_pct_arg =
    Arg.(
      value & opt int 40
      & info [ "write-pct" ] ~docv:"PCT" ~doc:"Percentage of write requests.")
  in
  let bound_arg =
    Arg.(
      value & opt int 256
      & info [ "bound" ] ~docv:"N"
          ~doc:"Backlog bound: breaker trip point and end-of-campaign recovery gate.")
  in
  let slo_arg =
    Arg.(
      value & opt int 200
      & info [ "recovery-slo" ] ~docv:"STEPS"
          ~doc:"Max steps from a breaker trip to bounded backlog.")
  in
  let run campaign seed steps shards victims breaker write_pct bound slo schemes =
    let spec kind =
      {
        Workload.Chaos_runner.default_spec with
        ch_seed = seed;
        ch_kind = kind;
        ch_shards = shards;
        ch_victims = Option.value victims ~default:shards;
        ch_steps = steps;
        ch_write_pct = write_pct;
        ch_breaker = breaker;
        ch_backlog_bound = bound;
        ch_recovery_slo = slo;
      }
    in
    let row k = Workload.Chaos_runner.row (spec k) in
    match Result.bind (Fault.Chaos.kind_of_string campaign) row with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok row -> exit_with (Workload.Table.run ~schemes row)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Deterministic chaos campaign against the sharded KV service: seeded \
          multi-shard fault schedules (stall storms, rolling crashes, crash-during-\
          eject, gray-failure slow shards) driven through deadlines, retries and \
          per-shard circuit breakers with abandon-based recovery drills; exits 1 if \
          any safety or SLO oracle fails, 2 on an invalid campaign")
    Term.(
      const run $ campaign_arg $ seed_arg $ steps_arg $ shards_arg $ victims_arg
      $ breaker_arg $ write_pct_arg $ bound_arg $ slo_arg $ schemes_arg)

let explore_cmd =
  let target_arg =
    let doc =
      "Scenario to explore (use --list to enumerate). Targets marked MUTANT carry an \
       injected bug: the run succeeds when a counterexample is found."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)
  in
  let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List available targets and exit.") in
  let mode_arg =
    let mode_conv =
      Arg.enum [ ("dfs", Explore.Dfs); ("pct", Explore.Pct); ("random", Explore.Random) ]
    in
    Arg.(
      value & opt mode_conv Explore.Dfs
      & info [ "mode" ] ~docv:"dfs|pct|random"
          ~doc:
            "Exploration strategy: bounded-exhaustive DFS, PCT-style priority \
             randomization, or seeded random scheduling.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed (pct/random modes).")
  in
  let iters_arg =
    Arg.(
      value & opt int 1_000
      & info [ "iters" ] ~docv:"N" ~doc:"Schedules to try (pct/random modes).")
  in
  let preempt_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "preemptions" ] ~docv:"N"
          ~doc:"Bound forced context switches per schedule (dfs mode; default unbounded).")
  in
  let depth_arg =
    Arg.(
      value & opt int 3
      & info [ "depth" ] ~docv:"D" ~doc:"Priority-change points per schedule (pct mode).")
  in
  let max_steps_arg =
    Arg.(
      value & opt int 10_000
      & info [ "max-steps" ] ~docv:"N" ~doc:"Abort any single schedule after N steps.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"TRACE"
          ~doc:
            "Replay one schedule instead of exploring; TRACE is the printed fiber-index \
             list, e.g. '[0;1;1;0]' or '0,1,1,0'.")
  in
  let run list target mode seed iters preemptions depth max_steps replay =
    if list then begin
      List.iter
        (fun t ->
          Format.printf "%-26s %s@." t.Explore.t_name t.Explore.t_doc)
        Explore.targets;
      exit 0
    end;
    match target with
    | None ->
        Format.eprintf "explore: a TARGET is required (try --list)@.";
        exit 2
    | Some name -> (
        match Explore.find name with
        | None ->
            Format.eprintf "explore: unknown target %S (try --list)@." name;
            exit 2
        | Some t ->
            let replay =
              match replay with
              | None -> None
              | Some s -> (
                  try Some (Sched.trace_of_string s)
                  with Invalid_argument m ->
                    Format.eprintf "explore: %s@." m;
                    exit 2)
            in
            let r =
              Explore.run_target t ~mode ~seed ~iters ~max_preemptions:preemptions
                ~max_steps ~depth ~replay
            in
            exit (Explore.report Format.std_formatter t r))
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Deterministic schedule exploration of the production lock-free cores (sticky \
          counter, acquire-retire over hazard pointers, CDRC weak upgrade) under the race \
          & lifetime sanitizer; failures print a replayable schedule")
    Term.(
      const run $ list_arg $ target_arg $ mode_arg $ seed_arg $ iters_arg
      $ preempt_arg $ depth_arg $ max_steps_arg $ replay_arg)

let () =
  let info =
    Cmd.info "cdrc-bench" ~version:"1.0.0"
      ~doc:
        "Benchmarks reproducing 'Turning Manual Concurrent Memory Reclamation into \
         Automatic Reference Counting' (PLDI 2022)"
  in
  let cmds =
    List.map row_cmd Workload.Table.figures
    @ [
        robustness_cmd; adaptivity_cmd; stats_cmd; perf_cmd; kv_cmd; chaos_cmd; custom_cmd;
        explore_cmd;
      ]
  in
  exit (Cmd.eval (Cmd.group info cmds))
