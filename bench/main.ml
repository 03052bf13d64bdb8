(* Full benchmark harness: regenerates every figure of the paper's
   evaluation (§5) plus our ablations, preceded by a Bechamel
   micro-suite with one Test.make per table/figure (a single-threaded
   per-operation kernel of that figure's workload) and per-primitive
   costs.

   Environment knobs (all optional):
     BENCH_THREADS  — comma-separated sweep (default "1,2,4")
     BENCH_DURATION — seconds per data point (default 0.25)
     BENCH_SCALE    — divide structure sizes by this (default 1)
     BENCH_SKIP_MICRO=1 — skip the Bechamel section

   `main.exe perf` runs the pinned perf-trajectory matrix instead of
   the figure suite and writes a machine-readable summary (default
   BENCH.json, override with BENCH_PERF_OUT) for tools/bench_check —
   same output as `cdrc-bench perf`, reachable without cmdliner.

   See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
   paper-vs-measured record. *)

open Bechamel
open Toolkit

let getenv_default name default = match Sys.getenv_opt name with Some v -> v | None -> default

let threads =
  getenv_default "BENCH_THREADS" "1,2,4"
  |> String.split_on_char ','
  |> List.filter_map int_of_string_opt

let duration = float_of_string (getenv_default "BENCH_DURATION" "0.25")
let scale = int_of_string (getenv_default "BENCH_SCALE" "1")

(* ------------------------------------------------------------------ *)
(* Bechamel micro-suite *)

module I = Workload.Instances

(* Per-figure kernels: a prefilled small structure and one operation of
   the figure's mix per run. Single-threaded per-op cost — the
   multi-domain versions below give the scalability picture. *)
let figure_kernel (type a) (module D : Ds.Set_intf.S with type t = a) ~size ~update_pct
    ~rq_pct ~rq_size =
  let d = D.create ~max_threads:1 () in
  let c = D.ctx d 0 in
  let rng = Repro_util.Rng.create ~seed:7 in
  let filled = ref 0 in
  while !filled < size do
    if D.insert c (Repro_util.Rng.int rng (2 * size)) then incr filled
  done;
  Staged.stage (fun () ->
      let r = Repro_util.Rng.int rng 100 in
      let key = Repro_util.Rng.int rng (2 * size) in
      if r < update_pct then
        if r land 1 = 0 then ignore (D.insert c key) else ignore (D.remove c key)
      else if r < update_pct + rq_pct then ignore (D.range_query c key (key + rq_size))
      else ignore (D.contains c key))

let figure_tests =
  [
    Test.make ~name:"fig11/tree-RCEBR upd50+rq50 kernel"
      (figure_kernel (module I.Tr_ebr) ~size:10_000 ~update_pct:50 ~rq_pct:50 ~rq_size:64);
    Test.make ~name:"fig12/queue-RCHP-weak pop-push kernel"
      (let q = I.Q_rc_hp.create ~max_threads:1 () in
       let c = I.Q_rc_hp.ctx q 0 in
       I.Q_rc_hp.enqueue c 1;
       Staged.stage (fun () ->
           match I.Q_rc_hp.dequeue c with
           | Some v -> I.Q_rc_hp.enqueue c v
           | None -> ()));
    Test.make ~name:"fig13a/list-RCEBR upd10 kernel"
      (figure_kernel (module I.Lr_ebr) ~size:1_000 ~update_pct:10 ~rq_pct:0 ~rq_size:0);
    Test.make ~name:"fig13b/hash-RCEBR upd10 kernel"
      (figure_kernel (module I.Hr_ebr) ~size:10_000 ~update_pct:10 ~rq_pct:0 ~rq_size:0);
    Test.make ~name:"fig13c/tree-RCEBR upd10 kernel"
      (figure_kernel (module I.Tr_ebr) ~size:10_000 ~update_pct:10 ~rq_pct:0 ~rq_size:0);
    Test.make ~name:"fig13d/tree-RCEBR upd50 kernel"
      (figure_kernel (module I.Tr_ebr) ~size:10_000 ~update_pct:50 ~rq_pct:0 ~rq_size:0);
    Test.make ~name:"fig13e/tree-RCEBR upd1 kernel"
      (figure_kernel (module I.Tr_ebr) ~size:10_000 ~update_pct:1 ~rq_pct:0 ~rq_size:0);
    Test.make ~name:"fig13f/tree-RCEBR upd100 kernel"
      (figure_kernel (module I.Tr_ebr) ~size:10_000 ~update_pct:100 ~rq_pct:0 ~rq_size:0);
  ]

let primitive_tests =
  let sticky = Sticky.Sticky_counter.create 1 in
  let casloop = Sticky.Casloop_counter.create 1 in
  let ebr = Smr.Ebr.create ~max_threads:1 () in
  let hp = Smr.Hp.create ~max_threads:1 () in
  let obj = ref 0 in
  let id = Smr.Ident.of_val obj in
  let module R = I.RC_ebr in
  let rt = R.create ~max_threads:1 () in
  let th = R.thread rt 0 in
  let sp = R.Shared.make th 42 in
  let cell = R.Asp.make th (R.Shared.ptr sp) in
  R.begin_critical_section th;
  [
    Test.make ~name:"prim/sticky inc+dec"
      (Staged.stage (fun () ->
           if Sticky.Sticky_counter.increment_if_not_zero sticky then
             ignore (Sticky.Sticky_counter.decrement sticky)));
    Test.make ~name:"prim/casloop inc+dec"
      (Staged.stage (fun () ->
           if Sticky.Casloop_counter.increment_if_not_zero casloop then
             ignore (Sticky.Casloop_counter.decrement casloop)));
    Test.make ~name:"prim/EBR critical section"
      (Staged.stage (fun () ->
           Smr.Ebr.begin_critical_section ebr ~pid:0;
           Smr.Ebr.end_critical_section ebr ~pid:0));
    Test.make ~name:"prim/HP announce+confirm+release"
      (Staged.stage (fun () ->
           match Smr.Hp.try_acquire hp ~pid:0 id with
           | Some g ->
               ignore (Smr.Hp.confirm hp ~pid:0 g id);
               Smr.Hp.release hp ~pid:0 g
           | None -> ()));
    Test.make ~name:"prim/RCEBR asp load+drop"
      (Staged.stage (fun () ->
           let p = R.Asp.load th cell in
           R.Shared.drop th p));
    Test.make ~name:"prim/RCEBR asp get_snapshot+drop"
      (Staged.stage (fun () ->
           let s = R.Asp.get_snapshot th cell in
           R.Snapshot.drop th s));
    Test.make ~name:"prim/RCEBR asp store"
      (Staged.stage (fun () -> R.Asp.store th cell (R.Shared.ptr sp)));
  ]

let run_micro () =
  let tests = Test.make_grouped ~name:"cdrc" (figure_tests @ primitive_tests) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "@.== Bechamel micro-suite (ns/op, single-threaded kernels) ==@.@.";
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> Format.printf "%-45s %12.1f ns/op@." name est
      | _ -> Format.printf "%-45s %12s@." name "n/a")
    (List.sort compare rows);
  Format.printf "@."

(* ------------------------------------------------------------------ *)

let run_perf () =
  let out = getenv_default "BENCH_PERF_OUT" "BENCH.json" in
  let label = Filename.remove_extension (Filename.basename out) in
  Format.printf "cdrc_repro perf matrix — threads=%s duration=%.2fs out=%s@."
    (String.concat "," (List.map string_of_int threads))
    duration out;
  let s, failures =
    Workload.Perf_runner.run ~label ~threads ~duration
      ~log:(fun m -> Format.eprintf "perf: %s@." m)
      ()
  in
  (match
     Obs.Perf.validate ~require_schemes:Workload.Perf_runner.required_schemes s
   with
  | Ok () -> ()
  | Error e ->
      Format.eprintf "perf: summary INVALID: %s@." e;
      exit 1);
  let oc = open_out out in
  output_string oc (Obs.Perf.to_string s);
  output_char oc '\n';
  close_out oc;
  Format.printf "perf summary written to %s (%d cells, %d atomic profiles)@." out
    (List.length s.Obs.Perf.s_cells)
    (List.length s.Obs.Perf.s_atomics);
  Workload.Harness.status failures

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "perf" then begin
    exit (run_perf ())
  end;
  Format.printf
    "cdrc_repro benchmark suite — threads=%s duration=%.2fs scale=%d (1 = paper sizes)@."
    (String.concat "," (List.map string_of_int threads))
    duration scale;
  Format.printf "host: %d recommended domains@." (Domain.recommended_domain_count ());
  if Sys.getenv_opt "BENCH_SKIP_MICRO" = None then run_micro ();
  (* Any worker death anywhere in the suite fails it. *)
  let status = ref 0 in
  let record code = status := max !status code in
  List.iter
    (fun e -> record (Workload.Experiments.run_set_exp ~threads ~duration ~scale e))
    Workload.Experiments.set_experiments;
  record (Workload.Experiments.run_fig12 ~threads ~duration ());
  record (Workload.Experiments.run_abl_sticky ~threads ~duration ());
  record
    (Workload.Experiments.run_abl_epochfreq
       ~threads:(List.fold_left max 1 threads)
       ~duration ());
  record
    (Workload.Experiments.run_abl_hpslots
       ~threads:(min 2 (List.fold_left max 1 threads))
       ~duration ());
  record (Workload.Experiments.run_ext_stack ~threads ~duration ());
  Format.printf "done.@.";
  exit !status
