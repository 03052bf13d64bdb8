(* Perf-trajectory summaries (DESIGN.md §11): JSON round-trips, quantile
   agreement with Histo, the regression-gate semantics behind
   tools/bench_check, and the pinned atomic-op footprints of the
   lock-free cores under the counting shim. The footprint expectations
   are protocol invariants — if one moves, an algorithm's atomic cost
   changed and the new number must be justified, not just re-pinned. *)

module P = Obs.Perf
module Json = Obs.Json

let q ?(count = 10) p50 p99 p999 =
  { P.q_count = count; q_p50 = p50; q_p99 = p99; q_p999 = p999 }

let cell ?(scheme = "EBR") ?(structure = "hash") ?(threads = 2) ?(mops = 10.0)
    ?(reclaim = q 63 127 255) () =
  {
    P.c_scheme = scheme;
    c_structure = structure;
    c_threads = threads;
    c_ops = int_of_float (mops *. 1e6);
    c_mops = mops;
    c_reclaim = reclaim;
    c_eject_batch = q 7 15 15;
    c_peak_live = 1000;
    c_peak_backlog = 200;
    c_leaked = 0;
  }

let profile ?(core = "sticky") ?(op = "inc_dec") () =
  {
    P.a_core = core;
    a_op = op;
    a_ops = 1000;
    a_gets = 0;
    a_sets = 0;
    a_exchanges = 0;
    a_cas = 0;
    a_cas_failures = 0;
    a_faa = 2000;
  }

let summary ?(cells = [ cell () ]) ?(atomics = [ profile () ]) () =
  {
    P.s_meta =
      {
        P.m_label = "test";
        m_git_sha = "deadbeef";
        m_host_domains = 4;
        m_duration = 0.25;
        m_threads = [ 1; 2 ];
        m_scale = 4096;
      };
    s_cells = cells;
    s_atomics = atomics;
  }

(* ---------------- JSON ---------------- *)

let test_round_trip () =
  let s =
    summary
      ~cells:
        [
          cell ();
          cell ~scheme:{|RC"EBR\odd|} ~structure:"stack" ~threads:1 ~mops:0.000123 ();
        ]
      ()
  in
  let j = P.to_string s in
  match P.summary_of_string j with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok s' ->
      Alcotest.(check string) "bit-identical re-encode" j (P.to_string s');
      Alcotest.(check int) "cells" 2 (List.length s'.P.s_cells);
      Alcotest.(check string) "escaped scheme survives" {|RC"EBR\odd|}
        (List.nth s'.P.s_cells 1).P.c_scheme

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* [replace ~sub ~by s] swaps the first occurrence of [sub]. *)
let replace ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if String.sub s i n = sub then String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

let test_parse_rejects_garbage () =
  List.iter
    (fun j ->
      match P.summary_of_string j with
      | Ok _ -> Alcotest.failf "accepted %S" j
      | Error _ -> ())
    [ ""; "{"; "[1,2]"; {|{"schema_version":"x"}|}; {|{"meta":{}}|}; "nullx" ];
  (* Integer fields reject every non-integral or out-of-range number,
     and the error names the field. *)
  let good = P.to_string (summary ()) in
  List.iter
    (fun (sub, by, path) ->
      let j = replace ~sub ~by good in
      match P.summary_of_string j with
      | Ok _ -> Alcotest.failf "accepted %S" j
      | Error e ->
          if not (contains ~sub:path e) then Alcotest.failf "error %S does not name %s" e path)
    [
      ({|"schema_version":1|}, {|"schema_version":1.9|}, "schema_version");
      ({|"schema_version":1|}, {|"schema_version":1e400|}, "schema_version");
      ({|"ops":10000000|}, {|"ops":1e400|}, "cells[0].ops");
      ({|"p99":127|}, {|"p99":127.0|}, "cells[0].reclaim_latency.p99");
      ({|"host_domains":4|}, {|"host_domains":99999999999999999999|}, "meta.host_domains");
      ({|"threads":[1,2]|}, {|"threads":[1,2.5]|}, "meta.threads[1]");
      ({|"faa":2000|}, {|"faa":-2e3|}, "atomics[0].faa");
    ]

(* The committed trajectory points re-encode byte for byte: the codec
   changes nothing a consumer of BENCH_PR<N>.json sees. *)
let test_committed_points_reencode () =
  List.iter
    (fun path ->
      let raw = In_channel.with_open_bin path In_channel.input_all in
      match P.load_file path with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok s -> Alcotest.(check string) path raw (P.to_string s ^ "\n"))
    [ "../BENCH_PR7.json"; "../BENCH_PR8.json" ]

let test_load_file_missing () =
  match P.load_file "/nonexistent/bench.json" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ()

(* JSON values whose floats survive [%.6f]: k millionths, printed
   exactly and read back to the same double. *)
let json_gen =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun k -> Json.Float (float_of_int k /. 1e6)) (int_range (-1_000_000_000_000) 1_000_000_000_000);
        map (fun s -> Json.String s) string_small;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 4))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4) (pair string_small (self (n / 4)))) );
             ])

let round_trip_prop =
  QCheck2.Test.make ~name:"Json.of_string (to_string v) = Ok v" ~count:500
    ~print:Json.to_string json_gen (fun v -> Json.of_string (Json.to_string v) = Ok v)

(* Outside input: random bytes, prefixes and single-byte mutations of a
   real summary. Both parsers must answer, never raise. *)
let never_raise_prop =
  let sample = P.to_string (summary ~cells:[ cell (); cell ~scheme:"HP" () ] ()) in
  let n = String.length sample in
  let input =
    let open QCheck2.Gen in
    oneof
      [
        string;
        map (fun k -> String.sub sample 0 k) (int_bound n);
        map2
          (fun i c -> String.mapi (fun j x -> if j = i then c else x) sample)
          (int_bound (n - 1)) char;
      ]
  in
  QCheck2.Test.make ~name:"parsers never raise" ~count:2000 ~print:(Printf.sprintf "%S") input
    (fun s ->
      (match Json.of_string s with Ok _ | Error _ -> true)
      && match P.summary_of_string s with Ok _ | Error _ -> true)

let test_every_prefix_rejected () =
  let sample = P.to_string (summary ()) in
  for k = 0 to String.length sample - 1 do
    match P.summary_of_string (String.sub sample 0 k) with
    | Ok _ -> Alcotest.failf "accepted a %d-byte prefix" k
    | Error _ -> ()
  done

(* ---------------- quantiles ---------------- *)

let test_quantiles_match_histo () =
  Obs.Report.reset_all ();
  Obs.Metrics.set_enabled true;
  let h = Obs.Histo.histo "test.perf_quantiles" in
  let rng = Repro_util.Rng.create ~seed:11 in
  for _ = 1 to 5000 do
    Obs.Histo.observe h ~pid:0 (Repro_util.Rng.int rng 100_000)
  done;
  let counts = Obs.Histo.merged h in
  let qq = P.quantiles_of_counts counts in
  let expect p =
    match Obs.Histo.percentile_of_counts counts p with
    | Some v -> v
    | None -> Alcotest.fail "histo empty"
  in
  Alcotest.(check int) "count" 5000 qq.P.q_count;
  Alcotest.(check int) "p50" (expect 50.0) qq.P.q_p50;
  Alcotest.(check int) "p99" (expect 99.0) qq.P.q_p99;
  Alcotest.(check int) "p999" (expect 99.9) qq.P.q_p999;
  Obs.Metrics.set_enabled false;
  Obs.Report.reset_all ();
  let empty = P.quantiles_of_counts (Array.make Obs.Histo.buckets 0) in
  Alcotest.(check int) "empty count" 0 empty.P.q_count

(* [merged_suffix] sums exactly the rings whose name ends in the
   suffix. *)
let test_merged_suffix () =
  Obs.Report.reset_all ();
  Obs.Metrics.set_enabled true;
  let a = Obs.Histo.histo "test.a.merge_lat" in
  let b = Obs.Histo.histo "test.b.merge_lat" in
  let other = Obs.Histo.histo "test.merge_lat.other" in
  Obs.Histo.observe a ~pid:0 3;
  Obs.Histo.observe b ~pid:1 3;
  Obs.Histo.observe b ~pid:0 1000;
  Obs.Histo.observe other ~pid:0 5;
  let counts = Obs.Histo.merged_suffix ".merge_lat" in
  Obs.Metrics.set_enabled false;
  Obs.Report.reset_all ();
  Alcotest.(check int) "total" 3 (Array.fold_left ( + ) 0 counts);
  Alcotest.(check int) "both 3s in one bucket" 2 counts.(Obs.Histo.bucket_of 3);
  Alcotest.(check int) "1000 counted" 1 counts.(Obs.Histo.bucket_of 1000)

(* ---------------- validate ---------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_validate () =
  (match P.validate (summary ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid summary rejected: %s" e);
  (match P.validate (summary ~cells:[] ()) with
  | Ok () -> Alcotest.fail "empty matrix accepted"
  | Error _ -> ());
  (match P.validate (summary ~cells:[ cell (); cell () ] ()) with
  | Ok () -> Alcotest.fail "duplicate cell key accepted"
  | Error _ -> ());
  (match P.validate (summary ~atomics:[] ()) with
  | Ok () -> Alcotest.fail "missing atomic profiles accepted"
  | Error _ -> ());
  match P.validate ~require_schemes:[ "EBR"; "PTB" ] (summary ()) with
  | Ok () -> Alcotest.fail "missing required scheme accepted"
  | Error e -> Alcotest.(check bool) "names the scheme" true (contains e "PTB")

(* ---------------- regression gate ---------------- *)

let compare ?throughput_tol ?latency_tol ?allow base cand =
  P.compare_summaries ?throughput_tol ?latency_tol ?allow base cand

let test_gate_throughput_regression () =
  let base = summary () in
  let worse = summary ~cells:[ cell ~mops:8.0 () ] () in
  let regs, compared = compare base worse in
  Alcotest.(check int) "one cell compared" 1 compared;
  Alcotest.(check bool) "fails" true (P.failed regs);
  (match regs with
  | [ r ] ->
      Alcotest.(check string) "metric" "throughput" r.P.r_metric;
      Alcotest.(check string) "key" "EBR/hash/2" r.P.r_key
  | _ -> Alcotest.failf "expected 1 regression, got %d" (List.length regs));
  (* 20% drop passes a 30% gate *)
  let regs, _ = compare ~throughput_tol:30.0 base worse in
  Alcotest.(check bool) "within widened tolerance" false (P.failed regs)

let test_gate_improvement_ok () =
  let base = summary () in
  let better =
    summary ~cells:[ cell ~mops:14.0 ~reclaim:(q 31 63 127) () ] ()
  in
  let regs, compared = compare base better in
  Alcotest.(check int) "compared" 1 compared;
  Alcotest.(check (list string)) "no regressions" []
    (List.map (fun r -> r.P.r_key) regs)

let test_gate_latency_regression () =
  let base = summary () in
  let slower = summary ~cells:[ cell ~reclaim:(q 63 255 511) () ] () in
  let regs, _ = compare base slower in
  Alcotest.(check bool) "fails" true (P.failed regs);
  (match regs with
  | [ r ] -> Alcotest.(check string) "metric" "reclaim_p99" r.P.r_metric
  | _ -> Alcotest.fail "expected exactly the latency regression");
  (* p99s below the 8-tick noise floor never flag: 1 -> 4 is +300% but
     both are bucket-resolution noise. *)
  let tiny_base = summary ~cells:[ cell ~reclaim:(q 1 1 1) () ] () in
  let tiny_cand = summary ~cells:[ cell ~reclaim:(q 1 4 4) () ] () in
  let regs, _ = compare tiny_base tiny_cand in
  Alcotest.(check bool) "noise floor" false (P.failed regs)

let test_gate_allowlist () =
  let base = summary () in
  let worse = summary ~cells:[ cell ~mops:8.0 () ] () in
  let check_allowed allow =
    let regs, _ = compare ~allow base worse in
    Alcotest.(check int) "still reported" 1 (List.length regs);
    Alcotest.(check bool) "but allowed" false (P.failed regs)
  in
  check_allowed [ "EBR/hash/2" ];
  check_allowed [ "EBR" ];
  check_allowed [ "EBR/hash" ];
  let regs, _ = compare ~allow:[ "RCEBR" ] base worse in
  Alcotest.(check bool) "prefix must match a '/' boundary" true (P.failed regs)

let test_gate_intersection_only () =
  let base = summary () in
  let cand =
    summary ~cells:[ cell ~scheme:"IBR" (); cell ~scheme:"HP" ~mops:1.0 () ] ()
  in
  (* No common key: nothing compared, nothing flagged. *)
  let regs, compared = compare base cand in
  Alcotest.(check int) "no common cells" 0 compared;
  Alcotest.(check bool) "no verdict" false (P.failed regs)

(* ---------------- counting windows ---------------- *)

module C = Sched.Atomic

let test_counting_shim () =
  C.reset ();
  let r = C.counting (fun () -> C.make 5) in
  Alcotest.(check int) "make is free" 0 (C.total (C.snapshot ()));
  ignore (C.get r);
  Alcotest.(check int) "outside a window nothing counts" 0 (C.total (C.snapshot ()));
  C.counting (fun () ->
      ignore (C.get r);
      C.set r 6;
      ignore (C.exchange r 7);
      Alcotest.(check bool) "cas success" true (C.compare_and_set r 7 8);
      Alcotest.(check bool) "cas failure" false (C.compare_and_set r 7 9);
      ignore (C.fetch_and_add r 1));
  let c = C.snapshot () in
  Alcotest.(check int) "gets" 1 c.C.gets;
  Alcotest.(check int) "sets" 1 c.C.sets;
  Alcotest.(check int) "exchanges" 1 c.C.exchanges;
  Alcotest.(check int) "cas" 2 c.C.cas;
  Alcotest.(check int) "cas failures" 1 c.C.cas_failures;
  Alcotest.(check int) "faa" 1 c.C.faa;
  Alcotest.(check int) "total" 6 (C.total c);
  Alcotest.(check int) "value" 9 (Atomic.get r);
  C.reset ();
  Alcotest.(check int) "reset" 0 (C.total (C.snapshot ()))

let test_pinned_atomic_footprints () =
  let profiles = Workload.Perf_runner.atomic_profiles () in
  let find core op =
    match
      List.find_opt (fun a -> a.P.a_core = core && a.P.a_op = op) profiles
    with
    | Some a -> a
    | None -> Alcotest.failf "missing profile %s/%s" core op
  in
  let expect core op ~gets ~sets ~exchanges ~cas ~faa =
    let a = find core op in
    let ops = a.P.a_ops in
    Alcotest.(check int) (core ^ "/" ^ op ^ " gets") (gets * ops) a.P.a_gets;
    Alcotest.(check int) (core ^ "/" ^ op ^ " sets") (sets * ops) a.P.a_sets;
    Alcotest.(check int) (core ^ "/" ^ op ^ " xchg") (exchanges * ops) a.P.a_exchanges;
    Alcotest.(check int) (core ^ "/" ^ op ^ " cas") (cas * ops) a.P.a_cas;
    Alcotest.(check int) (core ^ "/" ^ op ^ " cas failures") 0 a.P.a_cas_failures;
    Alcotest.(check int) (core ^ "/" ^ op ^ " faa") (faa * ops) a.P.a_faa;
    Alcotest.(check (float 0.001))
      (core ^ "/" ^ op ^ " atomics/op")
      (float_of_int (gets + sets + exchanges + cas + faa))
      (P.atomics_per_op a)
  in
  Alcotest.(check int) "8 pinned scripts" 8 (List.length profiles);
  (* Refcount hot path: one FAA up, one FAA down. *)
  expect "sticky" "inc_dec" ~gets:0 ~sets:0 ~exchanges:0 ~cas:0 ~faa:2;
  expect "sticky" "load" ~gets:1 ~sets:0 ~exchanges:0 ~cas:0 ~faa:0;
  (* Uncontended death: the final FAA plus the zero-flag CAS. *)
  expect "sticky" "death" ~gets:0 ~sets:0 ~exchanges:0 ~cas:1 ~faa:1;
  (* HP read path: pre-read + settle re-read + confirm, announce +
     release. *)
  expect "slot" "protect_release" ~gets:3 ~sets:2 ~exchanges:0 ~cas:0 ~faa:0;
  (* The HP eject scan: 1 thread x (2 slots + 1 get for the reserved
     slot), plus 1 exchange taking the orphanage's entries. A forced
     eject reads no knob. *)
  expect "slot" "retire_eject" ~gets:3 ~sets:0 ~exchanges:1 ~cas:0 ~faa:0;
  expect "rc_cell" "upgrade_drop" ~gets:0 ~sets:0 ~exchanges:0 ~cas:0 ~faa:2;
  expect "rc_cell" "read" ~gets:1 ~sets:0 ~exchanges:0 ~cas:0 ~faa:0;
  (* Disposal: strong death (FAA+CAS), the claim of the block word's
     dead bit (FAA), weak death (FAA+CAS). *)
  expect "rc_cell" "dispose" ~gets:0 ~sets:0 ~exchanges:0 ~cas:2 ~faa:3

(* ---------------- the matrix ---------------- *)

(* The table's perf rows must keep emitting exactly the committed
   trajectory's cells: bench_check compares only the keys both sides
   share, so a dropped cell would otherwise pass silently. *)
let test_matrix_matches_committed_point () =
  let point =
    match P.load_file "../BENCH_PR8.json" with Ok s -> s | Error e -> Alcotest.fail e
  in
  let s, failures = Workload.Perf_runner.run ~threads:[ 1 ] ~duration:0.002 ~scale:64 () in
  let keys cells =
    List.sort Stdlib.compare
      (List.filter_map (fun c -> if c.P.c_threads = 1 then Some (P.cell_key c) else None) cells)
  in
  Alcotest.(check int) "45 cells at P=1" 45 (List.length s.P.s_cells);
  Alcotest.(check (list string)) "cell keys = the point's */1" (keys point.P.s_cells)
    (keys s.P.s_cells);
  (* slot/retire_eject now profiles the production HP scan, and
     rc_cell/dispose claims the heap word's dead bit with an add where
     the point's separate flag took an exchange: both were re-pinned
     after the point was taken, and the footprint test above pins them. *)
  let unchanged =
    List.filter (fun a ->
        not (List.mem (a.P.a_core, a.P.a_op) [ ("slot", "retire_eject"); ("rc_cell", "dispose") ]))
  in
  Alcotest.(check bool)
    "atomics = the point's" true
    (unchanged s.P.s_atomics = unchanged point.P.s_atomics);
  Alcotest.(check (list (pair string int))) "no worker deaths" []
    (List.concat_map snd failures);
  match P.validate ~require_schemes:Workload.Perf_runner.required_schemes s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "perf"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_parse_rejects_garbage;
          Alcotest.test_case "missing file" `Quick test_load_file_missing;
          Alcotest.test_case "committed points re-encode" `Quick
            test_committed_points_reencode;
          Alcotest.test_case "every prefix rejected" `Quick test_every_prefix_rejected;
          QCheck_alcotest.to_alcotest round_trip_prop;
          QCheck_alcotest.to_alcotest never_raise_prop;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "agree with Histo" `Quick test_quantiles_match_histo;
          Alcotest.test_case "merged by suffix" `Quick test_merged_suffix;
        ] );
      ("validate", [ Alcotest.test_case "schema sanity" `Quick test_validate ]);
      ( "gate",
        [
          Alcotest.test_case "throughput regression" `Quick test_gate_throughput_regression;
          Alcotest.test_case "improvement passes" `Quick test_gate_improvement_ok;
          Alcotest.test_case "latency regression" `Quick test_gate_latency_regression;
          Alcotest.test_case "allowlist" `Quick test_gate_allowlist;
          Alcotest.test_case "intersection only" `Quick test_gate_intersection_only;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "counting shim" `Quick test_counting_shim;
          Alcotest.test_case "pinned core footprints" `Quick test_pinned_atomic_footprints;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "cells and atomics match the committed point" `Slow
            test_matrix_matches_committed_point;
        ] );
    ]
