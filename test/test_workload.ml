(* Tests for the benchmark harness itself: the experiment table's
   runner must prefill to the requested size, count operations, sample
   memory, and leave no leaks; the table must cover every figure and
   sweep every requested thread count; the shared measurement loop
   must hand out pids 1..P, keep a dead worker's ops and tally every
   death by kind, and no caller may swallow one. *)

module L_ebr = Ds.Hm_list_manual.Make (Smr.Ebr)
module T = Workload.Table

let find_row id =
  match List.find_opt (fun (r : T.row) -> r.id = id) (T.figures @ T.perf_rows) with
  | Some r -> r
  | None -> Alcotest.failf "row %s missing" id

(* 20% updates over a list of 256 keys, 128 prefilled. *)
let tiny_row = T.custom ~structure:List_s ~update:20 ~rq:0 ~rq_size:64 ~size:128 ~range:256

let test_driver_basics () =
  let o =
    match T.select tiny_row [ "EBR" ] with
    | Error e -> Alcotest.fail e
    | Ok instances -> (
        match T.sweep ~threads:[ 2 ] ~duration:0.1 tiny_row instances with
        | [ o ] -> o
        | os -> Alcotest.failf "%d cells, expected 1" (List.length os))
  in
  Alcotest.(check string) "scheme name" "EBR" o.cell.c_scheme;
  Alcotest.(check string) "cell key" "EBR/list/2" o.key;
  Alcotest.(check bool) "performed ops" true (o.cell.c_ops > 0);
  (* No wall-clock bounds: they are flaky on loaded machines. Check the
     measurement is internally consistent instead — elapsed is positive
     and the reported throughput derives from ops/elapsed. *)
  Alcotest.(check bool) "elapsed positive" true (o.elapsed > 0.);
  Alcotest.(check bool) "throughput positive" true (o.cell.c_mops > 0.);
  let derived = float_of_int o.cell.c_ops /. o.elapsed /. 1e6 in
  Alcotest.(check bool) "mops consistent with ops/elapsed" true
    (abs_float (o.cell.c_mops -. derived) <= 0.05 *. derived);
  Alcotest.(check bool) "live average near init size" true
    (o.live_avg > 64. && o.live_avg < 512.);
  Alcotest.(check bool) "exact peak at least the sampled one" true
    (o.peak >= o.cell.c_peak_live);
  Alcotest.(check int) "no leak" 0 o.cell.c_leaked;
  Alcotest.(check int) "no uaf on EBR" 0 o.uaf;
  Alcotest.(check (list (pair string int))) "no deaths" [] o.errors

let test_driver_deterministic_prefill () =
  (* Same seed => same prefill contents: verify via size only. *)
  let d = L_ebr.create ~max_threads:1 () in
  T.set_prefill (module L_ebr) (L_ebr.ctx d 0) (Repro_util.Rng.create ~seed:42) ~keys:256 ~init:128;
  Alcotest.(check int) "prefill reaches target" 128 (L_ebr.size d);
  L_ebr.teardown d

let test_registry_covers_figures () =
  let ids = List.map (fun (r : T.row) -> r.id) T.figures in
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [
      "fig11"; "fig13a"; "fig13b"; "fig13c"; "fig13d"; "fig13e"; "fig13f"; "fig12";
      "abl-sticky"; "abl-epochfreq"; "abl-hpslots"; "ext-stack"; "obs-overhead";
    ];
  Alcotest.(check (list string)) "ids unique" (List.sort_uniq compare ids) (List.sort compare ids);
  (* The rows whose command takes --schemes. *)
  Alcotest.(check (list string))
    "selectable rows"
    [ "fig11"; "fig13a"; "fig13b"; "fig13c"; "fig13d"; "fig13e"; "fig13f"; "fig12" ]
    (List.filter_map (fun (r : T.row) -> if r.selectable then Some r.id else None) T.figures)

(* The knob rows once kept only the first --threads entry. *)
let test_knob_rows_sweep_threads () =
  List.iter
    (fun id ->
      let r = find_row id in
      let cells = T.sweep ~threads:[ 1; 2 ] ~duration:0.005 ~scale:1000 r r.instances in
      let at p = List.length (List.filter (fun (o : T.outcome) -> o.cell.c_threads = p) cells) in
      let knobs =
        match r.axis with
        | T.Knob (_, vs) -> List.length vs
        | T.Telemetry | T.Adapt -> 2
        | T.Threads | T.Workers _ -> 1
      in
      Alcotest.(check int) (id ^ " cells at P=1") knobs (at 1);
      Alcotest.(check int) (id ^ " cells at P=2") knobs (at 2))
    [ "abl-epochfreq"; "abl-hpslots"; "obs-overhead" ]

let test_instance_matrix_complete () =
  List.iter
    (fun s ->
      let names =
        List.map
          (fun (module D : Ds.Set_intf.S) -> D.name)
          (Workload.Instances.all_sets s)
      in
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Workload.Instances.structure_name s ^ "/" ^ n)
            true (List.mem n names))
        [ "EBR"; "IBR"; "Hyaline"; "HP"; "HE"; "PTB"; "RCEBR"; "RCIBR"; "RCHyaline"; "RCHP"; "RCHE"; "RCPTB" ])
    [ Workload.Instances.List_s; Hash_s; Tree_s ];
  Alcotest.(check int) "8 queue instances" 8 (List.length Workload.Instances.queues)

let test_find_set () =
  let find = T.select (find_row "fig13c") in
  (match find [ "rc_ebr" ] with
  | Ok [ (name, _) ] -> Alcotest.(check string) "found" "RCEBR" name
  | _ -> Alcotest.fail "RCEBR not found");
  Alcotest.(check bool) "unknown scheme" true (Result.is_error (find [ "nope" ]))

(* "EBR,ebr" once ran EBR twice under one cell key. *)
let test_select_dedup () =
  match T.select (find_row "fig13c") [ "EBR"; "RCEBR"; "ebr"; "rc-ebr" ] with
  | Ok picked -> Alcotest.(check (list string)) "first picks kept" [ "EBR"; "RCEBR" ] (List.map fst picked)
  | Error e -> Alcotest.fail e

(* The kv command's row: one cell per shard count, each checked at
   quiescence and leak-free. *)
let test_kv_row_shards () =
  let row =
    match T.kv_row ~keys:512 ~shards:[ 1; 2 ] "read95" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let instances = Result.get_ok (T.select row [ "EBR" ]) in
  let cells = T.sweep ~threads:[ 1 ] ~duration:0.05 row instances in
  Alcotest.(check (list string))
    "cell keys"
    [ "EBR/kv-read95/1 shards=1"; "EBR/kv-read95/1 shards=2" ]
    (List.map (fun (o : T.outcome) -> o.key) cells);
  List.iter
    (fun (o : T.outcome) ->
      Alcotest.(check bool) (o.key ^ " ops") true (o.cell.c_ops > 0);
      Alcotest.(check int) (o.key ^ " no leak") 0 o.cell.c_leaked;
      Alcotest.(check (list (pair string int))) (o.key ^ " no violation") [] o.errors)
    cells;
  Alcotest.(check bool) "unknown mix" true (Result.is_error (T.kv_row ~keys:512 ~shards:[ 1 ] "scan"))

(* A kernel whose teardown leaves a block live fails its cell. *)
let test_leak_fails_row () =
  let leaky : T.instance =
    ( "leaky",
      fun _ ->
        T.probe ~live:(fun () -> 1) ~backlog:(fun () -> 0) ~teardown:ignore (fun _ continue ->
            T.batches continue ignore) )
  in
  let row = T.row ~id:"stub" ~title:"stub" ~expected:"" "stub" [ leaky ] in
  Alcotest.(check int) "status 1" 1 (T.run ~threads:[ 1 ] ~duration:0.01 row)

(* A worker that reports 0, 10, ..., [limit] ops and then raises,
   whatever [continue] answers. *)
let dies_after limit exn continue =
  let rec go n =
    ignore (continue n);
    if n >= limit then raise exn else go (n + 10)
  in
  go 0

let test_harness_errors () =
  let healthy_final = ref (-1) in
  let duration = 0.2 in
  let r =
    Workload.Harness.run ~name:"harness-test" ~threads:3 ~duration (fun pid continue ->
        match pid with
        | 1 -> dies_after 100 (Simheap.Use_after_free "injected") continue
        | 2 -> dies_after 50 (Failure "injected") continue
        | _ ->
            let rec go n = if continue n then go (n + 1) else healthy_final := n in
            go 0)
  in
  Alcotest.(check (list (pair string int)))
    "one death of each kind"
    [ ("Failure", 1); ("Use_after_free", 1) ]
    r.errors;
  Alcotest.(check bool) "healthy worker ran to the stop flag" true (!healthy_final >= 0);
  Alcotest.(check int) "dead workers keep their ops" (150 + !healthy_final) r.ops;
  Alcotest.(check bool) "ran for the duration" true (r.elapsed >= duration)

let test_harness_pids_and_sampler () =
  let threads = 4 in
  let duration = 0.1 in
  let seen = Array.make (threads + 2) 0 in
  let samples = ref [] in
  let returned = ref false in
  let sample ~elapsed ~ops:_ =
    if !returned then Alcotest.fail "sampler ran after run returned";
    samples := elapsed :: !samples
  in
  let r =
    Workload.Harness.run ~name:"harness-test" ~threads ~duration ~sample:(0.002, sample)
      (fun pid continue ->
        seen.(pid) <- seen.(pid) + 1;
        let rec go n = if continue n then go (n + 1) in
        go 0)
  in
  returned := true;
  Alcotest.(check (list (pair string int))) "no deaths" [] r.errors;
  Alcotest.(check (array int)) "pids are exactly 1..threads" [| 0; 1; 1; 1; 1; 0 |] seen;
  let ts = List.rev !samples in
  Alcotest.(check bool) "sampled" true (ts <> []);
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "elapsed never decreases" true (nondecreasing ts);
  Alcotest.(check bool) "samples inside the duration" true
    (List.for_all (fun t -> t >= 0. && t < duration) ts);
  let n = List.length !samples in
  Unix.sleepf 0.02;
  Alcotest.(check int) "no sample after return" n (List.length !samples)

(* A stack whose pushes fail once 1000 have gone through. *)
module Failing_stack = struct
  include Ds.Treiber_stack_manual.Make (Smr.Ebr)

  let name = "failing"
  let pushes = Atomic.make 0

  let push c v =
    if Atomic.fetch_and_add pushes 1 >= 1000 then failwith "injected" else push c v
end

let test_perf_cell_reports_death () =
  let cell =
    match
      T.sweep ~threads:[ 1 ] ~duration:0.05 ~keys:64 (find_row "perf-stack")
        [ T.stack_kernel ~pairs:false (module Failing_stack : Workload.Instances.STACK) ]
    with
    | [ o ] -> o
    | os -> Alcotest.failf "%d cells, expected 1" (List.length os)
  in
  Alcotest.(check (list (pair string int))) "death tallied" [ ("Failure", 1) ] cell.errors;
  Alcotest.(check bool) "ops before the death kept" true (cell.cell.c_ops > 0);
  Alcotest.(check int) "status 1" 1 (Workload.Harness.status [ (cell.key, cell.errors) ])

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_select_unknown () =
  let select = T.select (find_row "fig12") in
  (match select [ "rchp-weak"; "Bogus"; "Nope" ] with
  | Ok _ -> Alcotest.fail "unknown names accepted"
  | Error e ->
      Alcotest.(check bool) "names Bogus" true (contains e "Bogus");
      Alcotest.(check bool) "names Nope" true (contains e "Nope");
      Alcotest.(check bool) "known name not blamed" false (contains e "rchp"));
  (match select [ "rchp-weak" ] with
  | Ok [ (name, _) ] -> Alcotest.(check string) "found" "RCHP-weak" name
  | _ -> Alcotest.fail "RCHP-weak not selected");
  (match select [] with
  | Ok all -> Alcotest.(check int) "empty selects all" 8 (List.length all)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "fig12 exits 2" 2 (T.run ~schemes:[ "Bogus" ] (find_row "fig12"))

let test_fig12_cell () =
  let fig12 = find_row "fig12" in
  match T.select fig12 [ "Original" ] with
  | Error e -> Alcotest.fail e
  | Ok instances -> (
      match T.sweep ~threads:[ 2 ] ~duration:0.1 fig12 instances with
      | [ o ] ->
          Alcotest.(check string) "cell key" "Original/queue/2" o.key;
          Alcotest.(check bool) "ops" true (o.cell.c_ops > 0);
          Alcotest.(check (list (pair string int))) "no deaths" [] o.errors;
          Alcotest.(check int) "no leak" 0 o.cell.c_leaked
      | os -> Alcotest.failf "%d cells, expected 1" (List.length os))

(* The stepped loop: steps 1..n on the caller's domain, the sampler
   every [every] steps at logical time, and a death tallied as [run]
   tallies it. *)
let test_harness_steps () =
  let stepped = ref [] and samples = ref [] in
  let sample ~elapsed ~ops = samples := (elapsed, ops) :: !samples in
  let worker step _ = T.each_step step in
  let r =
    Workload.Harness.steps ~name:"steps-test" ~steps:7 ~every:3 ~sample
      (worker (fun i -> stepped := i :: !stepped))
  in
  Alcotest.(check (list int)) "steps 1..7" [ 1; 2; 3; 4; 5; 6; 7 ] (List.rev !stepped);
  Alcotest.(check (list (pair (float 0.) int)))
    "sampled after steps 3 and 6" [ (3., 3); (6., 6) ] (List.rev !samples);
  Alcotest.(check int) "ops" 7 r.ops;
  Alcotest.(check (list (pair string int))) "no deaths" [] r.errors;
  let r =
    Workload.Harness.steps ~name:"steps-test" ~steps:7 ~every:3
      (worker (fun i -> if i = 5 then raise (Invalid_argument "injected")))
  in
  Alcotest.(check (list (pair string int))) "death tallied" [ ("Invalid_argument", 1) ] r.errors;
  Alcotest.(check int) "steps before the death kept" 4 r.ops

(* Every malformed campaign is refused by the row builder, before
   anything runs; the CLI turns the refusal into exit 2. *)
let test_chaos_spec_rejected () =
  let module CR = Workload.Chaos_runner in
  let d = CR.default_spec in
  List.iter
    (fun (what, spec) ->
      Alcotest.(check bool) (what ^ " rejected") true (Result.is_error (CR.row spec)))
    [
      ("--shards 3", { d with ch_shards = 3; ch_victims = 3 });
      ("--shards 0", { d with ch_shards = 0; ch_victims = 0 });
      ("--shards 64", { d with ch_shards = 64; ch_victims = 64 });
      ("--shards 32", { d with ch_shards = 32; ch_victims = 32 });
      ("--victims 0", { d with ch_victims = 0 });
      ("--victims 9", { d with ch_victims = 9 });
      ("--bound 0", { d with ch_backlog_bound = 0 });
      ("--write-pct 150", { d with ch_write_pct = 150 });
    ];
  Alcotest.(check bool) "the default spec accepted" true (Result.is_ok (CR.row d))

(* EBR whose [abandon] does nothing: the stalled thread keeps pinning
   the frontier after the runner's recovery, so the row must fail. *)
module Ebr_no_abandon = struct
  include Smr.Ebr

  let abandon _ ~pid:_ = ()
end

let test_robustness_checks_recovery () =
  let run scheme =
    T.run ~duration:0.2 (Workload.Experiments.robustness_row ~schemes:[ ("EBR", scheme) ] ())
  in
  Alcotest.(check int) "EBR passes" 0 (run (module Smr.Ebr));
  Alcotest.(check int) "EBR without abandon fails" 1 (run (module Ebr_no_abandon));
  Alcotest.(check int) "a non-positive duration is a usage error" 2
    (Workload.Experiments.run_robustness ~duration:0. ())

let () =
  Alcotest.run "workload"
    [
      ( "driver",
        [
          Alcotest.test_case "basics" `Slow test_driver_basics;
          Alcotest.test_case "deterministic prefill" `Quick test_driver_deterministic_prefill;
        ] );
      ( "registry",
        [
          Alcotest.test_case "figures covered" `Quick test_registry_covers_figures;
          Alcotest.test_case "instance matrix" `Quick test_instance_matrix_complete;
          Alcotest.test_case "find_set" `Quick test_find_set;
          Alcotest.test_case "select keeps the first of duplicates" `Quick test_select_dedup;
          Alcotest.test_case "kv row sweeps shard counts" `Slow test_kv_row_shards;
          Alcotest.test_case "a leaking cell fails its row" `Quick test_leak_fails_row;
          Alcotest.test_case "select rejects unknown" `Quick test_select_unknown;
          Alcotest.test_case "knob rows sweep every thread count" `Slow
            test_knob_rows_sweep_threads;
        ] );
      ( "harness",
        [
          Alcotest.test_case "errors tallied" `Slow test_harness_errors;
          Alcotest.test_case "pids and sampler" `Slow test_harness_pids_and_sampler;
          Alcotest.test_case "perf cell death" `Slow test_perf_cell_reports_death;
          Alcotest.test_case "fig12 cell" `Slow test_fig12_cell;
          Alcotest.test_case "stepped loop" `Quick test_harness_steps;
        ] );
      ( "fault rows",
        [
          Alcotest.test_case "bad chaos specs are refused" `Quick test_chaos_spec_rejected;
          Alcotest.test_case "robustness checks recovery" `Slow test_robustness_checks_recovery;
        ] );
    ]
