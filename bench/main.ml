(* Full benchmark harness: runs every figure row of the experiment
   table (Workload.Table) — the paper's evaluation (§5) plus our
   ablations — preceded by a Bechamel micro-suite with one Test.make
   per table/figure (a single-threaded per-operation kernel of that
   figure's workload) and per-primitive costs.

   Environment knobs (all optional; a malformed value exits 2):
     BENCH_THREADS  — comma-separated sweep of positive counts (default "1,2,4")
     BENCH_DURATION — positive seconds per data point (default 0.25)
     BENCH_SCALE    — divide structure sizes by this positive factor (default 1)
     BENCH_SKIP_MICRO=1 — skip the Bechamel section

   The perf-trajectory matrix is `cdrc-bench perf`. See DESIGN.md §4
   for the experiment index and EXPERIMENTS.md for the
   paper-vs-measured record. *)

open Bechamel
open Toolkit

(* [parse] the variable [name], or [default] when it is unset. *)
let env name ~default ~expect parse =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
      match parse v with
      | Some x -> x
      | None ->
          Printf.eprintf "%s=%S: expected %s\n%!" name v expect;
          exit 2)

let positive zero of_string v =
  Option.bind (of_string (String.trim v)) (fun x -> if x > zero then Some x else None)

let threads =
  env "BENCH_THREADS" ~default:[ 1; 2; 4 ] ~expect:"a comma-separated list of positive integers"
    (fun v ->
      let ts = List.map (positive 0 int_of_string_opt) (String.split_on_char ',' v) in
      if List.mem None ts then None else Some (List.filter_map Fun.id ts))

let duration =
  env "BENCH_DURATION" ~default:0.25 ~expect:"a positive number of seconds"
    (positive 0. float_of_string_opt)

let scale = env "BENCH_SCALE" ~default:1 ~expect:"a positive integer" (positive 0 int_of_string_opt)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-suite *)

module I = Workload.Instances
module T = Workload.Table
module Tree = Ds.Nm_tree_rc.Make (I.RC_ebr)
module List_rc = Ds.Hm_list_rc.Make (I.RC_ebr)
module Hash_rc = Ds.Hash_table_rc.Make (I.RC_ebr)
module Queue_rc = Ds.Dl_queue_rc.Make (I.RC_hp)

(* Per-figure kernels: [keys / 2] keys prefilled from a range of
   [keys], then one operation of the figure's mix (the table's set op
   step) per run. Single-threaded per-op cost — the table's
   multi-domain rows give the scalability picture. *)
let micro (module D : Ds.Set_intf.S) ~keys mix =
  let d = D.create ~max_threads:1 () in
  let c = D.ctx d 0 in
  let rng = Repro_util.Rng.create ~seed:7 in
  T.set_prefill (module D) c rng ~keys ~init:(keys / 2);
  Staged.stage (fun () -> T.set_op (module D) mix ~keys rng c)

let figure_tests =
  [
    Test.make ~name:"fig11/tree-RCEBR upd50+rq50 kernel"
      (micro (module Tree) ~keys:20_000 (T.mix 50 ~rq_pct:50));
    Test.make ~name:"fig12/queue-RCHP-weak pop-push kernel"
      (let q = Queue_rc.create ~max_threads:1 () in
       let c = Queue_rc.ctx q 0 in
       Queue_rc.enqueue c 1;
       Staged.stage (fun () ->
           match Queue_rc.dequeue c with
           | Some v -> Queue_rc.enqueue c v
           | None -> ()));
    Test.make ~name:"fig13a/list-RCEBR upd10 kernel"
      (micro (module List_rc) ~keys:2_000 (T.mix 10));
    Test.make ~name:"fig13b/hash-RCEBR upd10 kernel"
      (micro (module Hash_rc) ~keys:20_000 (T.mix 10));
    Test.make ~name:"fig13c/tree-RCEBR upd10 kernel"
      (micro (module Tree) ~keys:20_000 (T.mix 10));
    Test.make ~name:"fig13d/tree-RCEBR upd50 kernel"
      (micro (module Tree) ~keys:20_000 (T.mix 50));
    Test.make ~name:"fig13e/tree-RCEBR upd1 kernel"
      (micro (module Tree) ~keys:20_000 (T.mix 1));
    Test.make ~name:"fig13f/tree-RCEBR upd100 kernel"
      (micro (module Tree) ~keys:20_000 (T.mix 100));
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

let () =
  Format.printf
    "cdrc_repro benchmark suite — threads=%s duration=%.2fs scale=%d (1 = paper sizes)@."
    (String.concat "," (List.map string_of_int threads))
    duration scale;
  Format.printf "host: %d recommended domains@." (Domain.recommended_domain_count ());
  if Sys.getenv_opt "BENCH_SKIP_MICRO" = None then run_micro ();
  (* Any worker death anywhere in the suite fails it. *)
  let status =
    List.fold_left (fun st row -> max st (T.run ~threads ~duration ~scale row)) 0 T.figures
  in
  Format.printf "done.@.";
  exit status
