(* Tests for the benchmark harness itself: the driver must prefill to
   the requested size, count operations, sample memory, and leave no
   leaks; the experiment registry must cover every figure; the shared
   measurement loop must hand out pids 1..P, keep a dead worker's ops
   and tally every death by kind, and no caller may swallow one. *)

module L_ebr = Ds.Hm_list_manual.Make (Smr.Ebr)
module D = Workload.Driver.Run (L_ebr)

let tiny_spec =
  {
    Workload.Driver.default_spec with
    threads = 2;
    duration = 0.1;
    key_range = 256;
    init_size = 128;
    update_pct = 20;
  }

let test_driver_basics () =
  let r = D.run ~spec:tiny_spec () in
  Alcotest.(check string) "scheme name" "EBR" r.scheme;
  Alcotest.(check bool) "performed ops" true (r.total_ops > 0);
  (* No wall-clock bounds: they are flaky on loaded machines. Check the
     measurement is internally consistent instead — elapsed is positive
     and the reported throughput derives from ops/elapsed. *)
  Alcotest.(check bool) "elapsed positive" true (r.elapsed > 0.);
  Alcotest.(check bool) "throughput positive" true (r.mops > 0.);
  let derived = float_of_int r.total_ops /. r.elapsed /. 1e6 in
  Alcotest.(check bool) "mops consistent with ops/elapsed" true
    (abs_float (r.mops -. derived) <= 0.05 *. derived);
  Alcotest.(check bool) "live average near init size" true
    (r.live_avg > 64. && r.live_avg < 512.);
  Alcotest.(check int) "no leak" 0 r.leaked;
  Alcotest.(check int) "no uaf on EBR" 0 r.uaf

let test_driver_deterministic_prefill () =
  (* Same seed => same prefill contents: verify via size only (the
     driver owns teardown, so probe with a fresh structure). *)
  let d = L_ebr.create ~max_threads:1 () in
  let c = L_ebr.ctx d 0 in
  let rng = Repro_util.Rng.create ~seed:tiny_spec.seed in
  let filled = ref 0 in
  while !filled < tiny_spec.init_size do
    if L_ebr.insert c (Repro_util.Rng.int rng tiny_spec.key_range) then incr filled
  done;
  Alcotest.(check int) "prefill reaches target" tiny_spec.init_size (L_ebr.size d);
  L_ebr.teardown d

let test_registry_covers_figures () =
  let ids =
    List.map (fun e -> e.Workload.Experiments.id) Workload.Experiments.set_experiments
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [ "fig11"; "fig13a"; "fig13b"; "fig13c"; "fig13d"; "fig13e"; "fig13f" ]

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
  (match Workload.Instances.find_set Workload.Instances.Tree_s "rcebr" with
  | Some (module D : Ds.Set_intf.S) -> Alcotest.(check string) "found" "RCEBR" D.name
  | None -> Alcotest.fail "RCEBR not found");
  Alcotest.(check bool) "unknown scheme" true
    (Workload.Instances.find_set Workload.Instances.Tree_s "nope" = None)

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
  include Workload.Instances.St_ebr

  let name = "failing"
  let pushes = Atomic.make 0

  let push c v =
    if Atomic.fetch_and_add pushes 1 >= 1000 then failwith "injected" else push c v
end

let test_perf_cell_reports_death () =
  let cell, errors =
    Workload.Perf_runner.stack_cell ~threads:1 ~duration:0.05 ~scale:64
      (module Failing_stack : Workload.Instances.STACK)
  in
  Alcotest.(check (list (pair string int))) "death tallied" [ ("Failure", 1) ] errors;
  Alcotest.(check bool) "ops before the death kept" true (cell.Obs.Perf.c_ops > 0);
  Alcotest.(check int) "status 1" 1
    (Workload.Harness.status [ ("failing/stack/1", errors) ])

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_select_unknown () =
  let select = Workload.Instances.(select ~find:find_queue queues) in
  (match select [ "rchp-weak"; "Bogus"; "Nope" ] with
  | Ok _ -> Alcotest.fail "unknown names accepted"
  | Error e ->
      Alcotest.(check bool) "names Bogus" true (contains e "Bogus");
      Alcotest.(check bool) "names Nope" true (contains e "Nope");
      Alcotest.(check bool) "known name not blamed" false (contains e "rchp"));
  (match select [ "rchp-weak" ] with
  | Ok [ (module Q : Ds.Queue_intf.S) ] -> Alcotest.(check string) "found" "RCHP-weak" Q.name
  | _ -> Alcotest.fail "RCHP-weak not selected");
  (match select [] with
  | Ok all -> Alcotest.(check int) "empty selects all" 8 (List.length all)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "fig12 exits 2" 2
    (Workload.Experiments.run_fig12 ~schemes:[ "Bogus" ] ())

let test_fig12_cell () =
  let h, leaked =
    Workload.Experiments.fig12_cell ~threads:2 ~duration:0.1
      (module Workload.Instances.Q_manual)
  in
  Alcotest.(check bool) "ops" true (h.ops > 0);
  Alcotest.(check (list (pair string int))) "no deaths" [] h.errors;
  Alcotest.(check int) "no leak" 0 leaked

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
          Alcotest.test_case "select rejects unknown" `Quick test_select_unknown;
        ] );
      ( "harness",
        [
          Alcotest.test_case "errors tallied" `Slow test_harness_errors;
          Alcotest.test_case "pids and sampler" `Slow test_harness_pids_and_sampler;
          Alcotest.test_case "perf cell death" `Slow test_perf_cell_reports_death;
          Alcotest.test_case "fig12 cell" `Slow test_fig12_cell;
        ] );
    ]
