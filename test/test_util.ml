(* Tests for the utility library: RNG determinism and distribution
   sanity, padded array semantics, statistics. *)

open Repro_util

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 in
  let b = Rng.create ~seed:42 in
  for _ = 1 to 1000 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 in
  let b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.next a = Rng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  let c = Rng.split a in
  let overlap = ref 0 in
  for _ = 1 to 100 do
    if Rng.next b = Rng.next c then incr overlap
  done;
  Alcotest.(check bool) "split streams differ" true (!overlap < 5)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_int_covers_range () =
  let r = Rng.create ~seed:11 in
  let seen = Array.make 10 false in
  for _ = 1 to 10_000 do
    seen.(Rng.int r 10) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id seen)

let test_rng_float_unit_interval () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_bool_balanced () =
  let r = Rng.create ~seed:9 in
  let trues = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bool r then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool) "roughly balanced" true (frac > 0.45 && frac < 0.55)

let test_padded_basic () =
  let p = Padded.create 4 0 in
  Alcotest.(check int) "length" 4 (Padded.length p);
  Padded.set p 2 99;
  Alcotest.(check int) "get" 99 (Padded.get p 2);
  Alcotest.(check int) "others untouched" 0 (Padded.get p 1);
  Alcotest.(check int) "exchange returns old" 99 (Padded.exchange p 2 7);
  Alcotest.(check int) "exchange stored" 7 (Padded.get p 2)

let test_padded_cas () =
  let p = Padded.create 2 10 in
  Alcotest.(check bool) "cas succeeds" true (Padded.compare_and_set p 0 10 20);
  Alcotest.(check bool) "cas fails" false (Padded.compare_and_set p 0 10 30);
  Alcotest.(check int) "value" 20 (Padded.get p 0)

let test_padded_fold () =
  let p = Padded.create 5 1 in
  Padded.set p 3 10;
  Alcotest.(check int) "sum" 14 (Padded.fold ( + ) 0 p)

let test_padded_parallel_disjoint () =
  (* Each domain hammers its own logical slot; no cross-talk expected. *)
  let n = 4 in
  let p = Padded.create n 0 in
  let domains =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            for k = 1 to 10_000 do
              Padded.set p i k
            done))
  in
  List.iter Domain.join domains;
  for i = 0 to n - 1 do
    Alcotest.(check int) "final value" 10_000 (Padded.get p i)
  done

let feq what a b = Alcotest.(check (float 1e-9)) what a b

let test_stats_mean_stddev () =
  feq "mean" 2. (Stats.mean [| 1.; 2.; 3. |]);
  feq "stddev" 1. (Stats.stddev [| 1.; 2.; 3. |]);
  feq "mean empty" 0. (Stats.mean [||]);
  feq "stddev single" 0. (Stats.stddev [| 5. |])

let test_stats_median_percentile () =
  feq "median odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  feq "median even" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |]);
  feq "p50" 3. (Stats.percentile [| 1.; 2.; 3.; 4.; 5. |] 50.);
  feq "p100" 5. (Stats.percentile [| 1.; 2.; 3.; 4.; 5. |] 100.)

let test_stats_min_max_throughput () =
  let lo, hi = Stats.min_max [| 3.; 1.; 2. |] in
  feq "min" 1. lo;
  feq "max" 3. hi;
  feq "mops" 2. (Stats.throughput_mops ~ops:1_000_000 ~seconds:0.5)

let test_stats_fixed_percentiles () =
  (* Nearest-rank on 1..1000: rank ceil(p/100 * 1000), 1-indexed. *)
  let xs = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  feq "p50" 500. (Stats.p50 xs);
  feq "p99" 990. (Stats.p99 xs);
  feq "p999" 999. (Stats.p999 xs);
  feq "p50 singleton" 7. (Stats.p50 [| 7. |]);
  feq "p999 singleton" 7. (Stats.p999 [| 7. |])

let test_stats_merge_counts () =
  Alcotest.(check (array int)) "pointwise sum" [| 3; 5; 0 |]
    (Stats.merge_counts [| 1; 2; 0 |] [| 2; 3; 0 |]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.merge_counts: bucket count mismatch") (fun () ->
      ignore (Stats.merge_counts [| 1 |] [| 1; 2 |]))

(* Property: [percentile] never mutates its input, always returns an
   element of the input, agrees with a sorted-copy nearest-rank oracle,
   and pins p=0 to the minimum and p=100 to the maximum. *)
let percentile_oracle_prop =
  QCheck.Test.make ~name:"percentile vs sorted-copy oracle" ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (int_range (-1000) 1000))
        (int_range 0 100))
    (fun (l, p_int) ->
      let xs = Array.of_list (List.map float_of_int l) in
      let before = Array.copy xs in
      let p = float_of_int p_int in
      let got = Stats.percentile xs p in
      let oracle =
        let ys = Array.copy before in
        Array.sort compare ys;
        let n = Array.length ys in
        let rank = int_of_float (ceil ((p /. 100. *. float_of_int n) -. 1e-9)) in
        ys.(max 0 (min (n - 1) (rank - 1)))
      in
      xs = before
      && got = oracle
      && Array.exists (fun x -> x = got) before
      && Stats.percentile xs 0. = fst (Stats.min_max xs)
      && Stats.percentile xs 100. = snd (Stats.min_max xs))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "float unit interval" `Quick test_rng_float_unit_interval;
          Alcotest.test_case "bool balanced" `Quick test_rng_bool_balanced;
        ] );
      ( "padded",
        [
          Alcotest.test_case "basic" `Quick test_padded_basic;
          Alcotest.test_case "cas" `Quick test_padded_cas;
          Alcotest.test_case "fold" `Quick test_padded_fold;
          Alcotest.test_case "parallel disjoint slots" `Quick test_padded_parallel_disjoint;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "median/percentile" `Quick test_stats_median_percentile;
          Alcotest.test_case "min/max/throughput" `Quick test_stats_min_max_throughput;
          Alcotest.test_case "p50/p99/p999" `Quick test_stats_fixed_percentiles;
          Alcotest.test_case "merge_counts" `Quick test_stats_merge_counts;
          QCheck_alcotest.to_alcotest percentile_oracle_prop;
        ] );
    ]
