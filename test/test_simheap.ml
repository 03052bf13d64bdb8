(* Tests for the simulated heap: accounting, poisoning, failure
   injection (double free, use-after-free), and thread safety of the
   counters. *)

let test_alloc_free_accounting () =
  let h = Simheap.create ~name:"t" () in
  Alcotest.(check int) "live 0" 0 (Simheap.live h);
  let b1 = Simheap.alloc h in
  let b2 = Simheap.alloc h in
  Alcotest.(check int) "live 2" 2 (Simheap.live h);
  Alcotest.(check int) "allocated 2" 2 (Simheap.allocated h);
  Simheap.free b1;
  Alcotest.(check int) "live 1" 1 (Simheap.live h);
  Alcotest.(check int) "freed 1" 1 (Simheap.freed h);
  Simheap.free b2;
  Alcotest.(check int) "live 0 again" 0 (Simheap.live h)

let test_peak_tracking () =
  let h = Simheap.create () in
  let bs = List.init 5 (fun _ -> Simheap.alloc h) in
  Alcotest.(check int) "peak 5" 5 (Simheap.peak h);
  List.iter Simheap.free bs;
  Alcotest.(check int) "peak stays 5" 5 (Simheap.peak h);
  Simheap.reset_peak h;
  Alcotest.(check int) "peak reset to live" 0 (Simheap.peak h);
  let b = Simheap.alloc h in
  Alcotest.(check int) "peak 1 after reset" 1 (Simheap.peak h);
  Simheap.free b

let test_double_free_detected () =
  let h = Simheap.create ~name:"df" () in
  let b = Simheap.alloc h in
  Simheap.free b;
  match Simheap.free b with
  | () -> Alcotest.fail "expected Double_free"
  | exception Simheap.Double_free _ -> ()

let test_use_after_free_detected () =
  let h = Simheap.create ~name:"uaf" () in
  let b = Simheap.alloc h in
  Simheap.check_live b;
  Alcotest.(check bool) "is_live" true (Simheap.is_live b);
  Simheap.free b;
  Alcotest.(check bool) "not live" false (Simheap.is_live b);
  match Simheap.check_live b with
  | () -> Alcotest.fail "expected Use_after_free"
  | exception Simheap.Use_after_free _ -> ()

(* The dead bit: a second bit of the block word, claimed once and read
   with the freed bit. *)
let test_dead_bit_claimed_once () =
  let h = Simheap.create ~name:"dead" () in
  let b = Simheap.alloc h in
  let uid = Simheap.uid b in
  Alcotest.(check bool) "fresh block is not dead" false (Simheap.check_dead b);
  Alcotest.(check bool) "first claim wins" true (Simheap.mark_dead b);
  Alcotest.(check bool) "second claim fails" false (Simheap.mark_dead b);
  Alcotest.(check bool) "a dead block reads dead" true (Simheap.check_dead b);
  Alcotest.(check int) "uid unchanged" uid (Simheap.uid b);
  Alcotest.(check int) "live unchanged" 1 (Simheap.live h);
  Alcotest.(check int) "peak unchanged" 1 (Simheap.peak h);
  Alcotest.(check bool) "still live" true (Simheap.is_live b);
  Simheap.check_live b;
  Simheap.free b;
  Alcotest.(check int) "freed after the claim" 0 (Simheap.live h);
  Alcotest.(check bool) "a claim after the free fails" false (Simheap.mark_dead b);
  Alcotest.(check int) "uid unchanged by the failed claim" uid (Simheap.uid b);
  (match Simheap.free b with
  | () -> Alcotest.fail "expected Double_free"
  | exception Simheap.Double_free _ -> ());
  match Simheap.check_dead b with
  | _ -> Alcotest.fail "expected Use_after_free"
  | exception Simheap.Use_after_free msg ->
      let expected = Printf.sprintf "dead: block %d used after free" uid in
      Alcotest.(check string) "message names the heap and the uid" expected msg

(* Two domains, released together, race to claim the same blocks: each
   block has exactly one winner, and the loser's give-back leaves its
   uid and the heap's counts as they were. *)
let test_racing_claims () =
  let h = Simheap.create ~name:"claims" () in
  let n = 2 and m = 5_000 in
  let blocks = Array.init m (fun _ -> Simheap.alloc h) in
  let uids = Array.map Simheap.uid blocks in
  let wins = Array.init m (fun _ -> Atomic.make 0) in
  let ready = Atomic.make 0 in
  let domains =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < n do
              Domain.cpu_relax ()
            done;
            Array.iteri (fun i b -> if Simheap.mark_dead b then Atomic.incr wins.(i)) blocks))
  in
  List.iter Domain.join domains;
  Alcotest.(check bool) "each block claimed exactly once" true
    (Array.for_all (fun w -> Atomic.get w = 1) wins);
  Alcotest.(check bool) "every block dead" true (Array.for_all Simheap.check_dead blocks);
  Alcotest.(check bool) "uids unchanged" true (Array.map Simheap.uid blocks = uids);
  Alcotest.(check int) "live" m (Simheap.live h);
  Alcotest.(check int) "peak" m (Simheap.peak h);
  Array.iter Simheap.free blocks;
  Alcotest.(check int) "all freed" 0 (Simheap.live h)

let test_uids_unique () =
  let h = Simheap.create () in
  let bs = List.init 100 (fun _ -> Simheap.alloc h) in
  let uids = List.map Simheap.uid bs in
  let sorted = List.sort_uniq compare uids in
  Alcotest.(check int) "all distinct" 100 (List.length sorted)

let test_parallel_accounting () =
  (* N domains allocate and free M blocks each; totals must be exact. *)
  let h = Simheap.create () in
  let n = 4 and m = 5_000 in
  let domains =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to m do
              let b = Simheap.alloc h in
              Simheap.free b
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "allocated" (n * m) (Simheap.allocated h);
  Alcotest.(check int) "freed" (n * m) (Simheap.freed h);
  Alcotest.(check int) "live" 0 (Simheap.live h);
  Alcotest.(check int) "allocated = freed + live" (Simheap.allocated h)
    (Simheap.freed h + Simheap.live h);
  Alcotest.(check bool) "peak sane" true (Simheap.peak h >= 1 && Simheap.peak h <= n * m)

(* N domains, released together, race to free the same blocks in the
   same order: of the N frees of each block exactly one succeeds and
   the rest raise [Double_free], and the accounting counts each block
   freed once. *)
let test_racing_free () =
  let h = Simheap.create ~name:"race" () in
  let n = 4 and m = 5_000 in
  let blocks = Array.init m (fun _ -> Simheap.alloc h) in
  let wins = Array.init m (fun _ -> Atomic.make 0) in
  let ready = Atomic.make 0 in
  let domains =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < n do
              Domain.cpu_relax ()
            done;
            Array.iteri
              (fun i b ->
                match Simheap.free b with
                | () -> Atomic.incr wins.(i)
                | exception Simheap.Double_free _ -> ())
              blocks))
  in
  List.iter Domain.join domains;
  Alcotest.(check bool) "each block freed exactly once" true
    (Array.for_all (fun w -> Atomic.get w = 1) wins);
  Alcotest.(check bool) "every block dead" true
    (Array.for_all (fun b -> not (Simheap.is_live b)) blocks);
  Alcotest.(check int) "allocated" m (Simheap.allocated h);
  Alcotest.(check int) "freed" m (Simheap.freed h);
  Alcotest.(check int) "live" 0 (Simheap.live h);
  Alcotest.(check int) "allocated = freed + live" (Simheap.allocated h)
    (Simheap.freed h + Simheap.live h)

let test_pp_stats () =
  let h = Simheap.create ~name:"pp" () in
  let b = Simheap.alloc h in
  let s = Format.asprintf "%a" Simheap.pp_stats h in
  Alcotest.(check string) "format" "live=1 peak=1 allocated=1 freed=0" s;
  Simheap.free b

let () =
  Alcotest.run "simheap"
    [
      ( "accounting",
        [
          Alcotest.test_case "alloc/free" `Quick test_alloc_free_accounting;
          Alcotest.test_case "peak" `Quick test_peak_tracking;
          Alcotest.test_case "uids unique" `Quick test_uids_unique;
          Alcotest.test_case "parallel" `Quick test_parallel_accounting;
          Alcotest.test_case "pp_stats" `Quick test_pp_stats;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "double free" `Quick test_double_free_detected;
          Alcotest.test_case "use after free" `Quick test_use_after_free_detected;
          Alcotest.test_case "racing free" `Quick test_racing_free;
          Alcotest.test_case "dead bit claimed once" `Quick test_dead_bit_claimed_once;
          Alcotest.test_case "racing claims" `Quick test_racing_claims;
        ] );
    ]
