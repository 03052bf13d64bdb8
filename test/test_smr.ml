(* Scheme-generic tests of the SMR implementations, instantiated for
   EBR, IBR, Hyaline, HP, HE, and PTB. The stress test is the central safety
   property: under concurrent replace-and-retire churn, a reader that
   followed the announce/confirm protocol never dereferences a
   reclaimed object (Simheap poisoning would raise), and at quiescence
   nothing leaks. *)

module Ident = Smr.Ident

module Make_tests (S : Smr.Smr_intf.S) = struct
  module Ar = Acquire_retire.Make (S)

  let t name speed f = Alcotest.test_case (S.name ^ ": " ^ name) speed f

  (* -------------------- lifecycle unit tests ----------------------- *)

  let retire_then_eject_unprotected () =
    let s = S.create ~cleanup_freq:1 ~max_threads:2 () in
    let obj = ref 0 in
    let hits = ref 0 in
    let birth = S.alloc_hook s ~pid:0 in
    S.retire s ~pid:0 (Smr.Deferred.of_fun ~id:(Ident.of_val obj) ~birth (fun _ -> incr hits));
    (* Nothing is protected: a forced eject must surface the op. *)
    let ops = S.eject ~force:true s ~pid:0 in
    Smr.Deferred.run_all ~pid:0 ops;
    Alcotest.(check int) "op ran" 1 !hits;
    Alcotest.(check int) "queue empty" 0 (S.retired_count s ~pid:0)

  let blocked_while_protected () =
    let s = S.create ~cleanup_freq:1 ~max_threads:2 () in
    let obj = ref 0 in
    let hits = ref 0 in
    (* Reader (pid 1): critical section + confirmed guard on obj. *)
    S.begin_critical_section s ~pid:1;
    let id = Ident.of_val obj in
    let g = S.acquire s ~pid:1 id in
    while not (S.confirm s ~pid:1 g id) do
      ()
    done;
    (* Writer (pid 0): allocates (advancing epochs) then retires obj. *)
    let birth = S.alloc_hook s ~pid:0 in
    S.retire s ~pid:0 (Smr.Deferred.of_fun ~id ~birth (fun _ -> incr hits));
    let ops = S.eject ~force:true s ~pid:0 in
    Alcotest.(check int) "blocked while protected" 0 (Smr.Deferred.length ops);
    Alcotest.(check int) "op not run while protected" 0 !hits;
    (* The entry is still pending somewhere: in the retirer's queue, or
       (PTB) handed off to the pinning guard. *)
    (* Release protection; now it must eject — for PTB the buck lands
       in the releaser's queue, so drain both pids. *)
    S.release s ~pid:1 g;
    S.end_critical_section s ~pid:1;
    Smr.Deferred.run_all ~pid:0 (S.eject ~force:true s ~pid:0);
    Smr.Deferred.run_all ~pid:1 (S.eject ~force:true s ~pid:1);
    Alcotest.(check int) "ejected after release" 1 !hits

  let multi_retire_ejects_each_once () =
    (* Def 3.3: the same pointer retired n times is ejected n times. *)
    let s = S.create ~cleanup_freq:1 ~max_threads:1 () in
    let obj = ref 0 in
    let hits = ref 0 in
    let id = Ident.of_val obj in
    for _ = 1 to 5 do
      let birth = S.alloc_hook s ~pid:0 in
      S.retire s ~pid:0 (Smr.Deferred.of_fun ~id ~birth (fun _ -> incr hits))
    done;
    let rec drain () =
      match S.eject ~force:true s ~pid:0 with
      | Smr.Deferred.Nil -> ()
      | ops ->
          Smr.Deferred.run_all ~pid:0 ops;
          drain ()
    in
    drain ();
    Alcotest.(check int) "five ejects" 5 !hits

  let multi_retire_blocked_together () =
    let s = S.create ~cleanup_freq:1 ~max_threads:2 () in
    let obj = ref 0 in
    let hits = ref 0 in
    let id = Ident.of_val obj in
    S.begin_critical_section s ~pid:1;
    let g = S.acquire s ~pid:1 id in
    while not (S.confirm s ~pid:1 g id) do
      ()
    done;
    for _ = 1 to 3 do
      let birth = S.alloc_hook s ~pid:0 in
      S.retire s ~pid:0 (Smr.Deferred.of_fun ~id ~birth (fun _ -> incr hits))
    done;
    Smr.Deferred.run_all ~pid:0 (S.eject ~force:true s ~pid:0);
    Alcotest.(check int) "all blocked" 0 !hits;
    S.release s ~pid:1 g;
    S.end_critical_section s ~pid:1;
    let rec drain pid =
      match S.eject ~force:true s ~pid with
      | Smr.Deferred.Nil -> ()
      | ops ->
          Smr.Deferred.run_all ~pid ops;
          drain pid
    in
    drain 0;
    drain 1;
    Alcotest.(check int) "all released" 3 !hits

  let amortization_gates_scans () =
    let s = S.create ~cleanup_freq:1000 ~max_threads:1 () in
    let obj = ref 0 in
    let birth = S.alloc_hook s ~pid:0 in
    S.retire s ~pid:0 (Smr.Deferred.of_fun ~id:(Ident.of_val obj) ~birth (fun _ -> ()));
    (* Hyaline has no per-thread amortization (global safe pool), so the
       gate only applies to the queue-based schemes. *)
    if S.name <> "Hyaline" then begin
      Alcotest.(check int) "unforced eject empty"
         0
        (Smr.Deferred.length (S.eject s ~pid:0));
      Alcotest.(check int) "entry retained" 1 (S.retired_count s ~pid:0)
    end;
    ignore (S.eject ~force:true s ~pid:0)

  let drain_all_returns_everything () =
    let s = S.create ~cleanup_freq:1_000_000 ~max_threads:4 () in
    let hits = ref 0 in
    for pid = 0 to 3 do
      for _ = 1 to 10 do
        let obj = ref 0 in
        let birth = S.alloc_hook s ~pid in
        S.retire s ~pid (Smr.Deferred.of_fun ~id:(Ident.of_val obj) ~birth (fun _ -> incr hits))
      done
    done;
    let rec go () =
      match S.drain_all s with
      | Smr.Deferred.Nil -> ()
      | ops ->
          Smr.Deferred.run_all ~pid:0 ops;
          go ()
    in
    go ();
    Alcotest.(check int) "all 40 ops" 40 !hits

  let try_acquire_exhaustion () =
    (* Protected-pointer schemes run out of slots; region schemes never
       do. *)
    let s = S.create ~slots_per_thread:2 ~max_threads:1 () in
    let obj = ref 0 in
    let id = Ident.of_val obj in
    S.begin_critical_section s ~pid:0;
    let g1 = S.try_acquire s ~pid:0 id in
    let g2 = S.try_acquire s ~pid:0 id in
    let g3 = S.try_acquire s ~pid:0 id in
    if S.is_protected_region then
      Alcotest.(check bool) "region never exhausts" true (g3 <> None)
    else begin
      Alcotest.(check bool) "two slots acquired" true (g1 <> None && g2 <> None);
      Alcotest.(check bool) "third exhausts" true (g3 = None);
      (* Releasing returns the slot to the pool. *)
      (match g1 with Some g -> S.release s ~pid:0 g | None -> ());
      Alcotest.(check bool) "slot reusable" true (S.try_acquire s ~pid:0 id <> None)
    end;
    S.end_critical_section s ~pid:0

  let reserved_acquire_always_succeeds () =
    let s = S.create ~slots_per_thread:1 ~max_threads:1 () in
    let obj = ref 0 in
    let id = Ident.of_val obj in
    S.begin_critical_section s ~pid:0;
    (* Exhaust the free slots, then the reserved acquire still works. *)
    let _ = S.try_acquire s ~pid:0 id in
    let g = S.acquire s ~pid:0 id in
    while not (S.confirm s ~pid:0 g id) do
      ()
    done;
    S.release s ~pid:0 g;
    S.end_critical_section s ~pid:0;
    Alcotest.(check pass) "reserved acquire ok" () ()

  (* -------------------- acquire-retire layer ----------------------- *)

  let ar_managed_lifecycle () =
    let ar = Ar.create ~cleanup_freq:1 ~max_threads:1 () in
    let m = Ar.alloc ar ~pid:0 "hello" in
    Alcotest.(check string) "get" "hello" (Ar.get m);
    Alcotest.(check bool) "live" true (Ar.is_live m);
    Ar.retire_free ar ~pid:0 m;
    Ar.flush ar ~pid:0;
    Alcotest.(check bool) "reclaimed" false (Ar.is_live m);
    (match Ar.get m with
    | _ -> Alcotest.fail "expected Use_after_free"
    | exception Simheap.Use_after_free _ -> ());
    Alcotest.(check int) "heap empty" 0 (Simheap.live (Ar.heap ar))

  let ar_typed_acquire_protocol () =
    let ar = Ar.create ~cleanup_freq:1 ~max_threads:2 () in
    let m1 = Ar.alloc ar ~pid:0 1 in
    let cell = Atomic.make m1 in
    let m2 =
      Ar.scope ar ~pid:1
        {
          f =
            (fun s ->
              match Ar.protect s ~ident:Ar.ident cell with
              | None -> Alcotest.fail "unexpected exhaustion with free slots"
              | Some (v, g) ->
                  Alcotest.(check int) "read value" 1 (Ar.get v);
                  (* Writer swaps in a new object and retires the old one. *)
                  let m2 = Ar.alloc ar ~pid:0 2 in
                  let old = Atomic.exchange cell m2 in
                  Ar.retire_free ar ~pid:0 old;
                  Ar.flush ar ~pid:0;
                  (* Still protected: the object must not have been freed. *)
                  Alcotest.(check int) "still readable under guard" 1 (Ar.get v);
                  Ar.release s g;
                  m2);
        }
    in
    Ar.flush ar ~pid:0;
    (* PTB hand-off lands in the releaser's queue. *)
    Ar.flush ar ~pid:1;
    Alcotest.(check bool) "freed after release" false (Ar.is_live m1);
    Ar.retire_free ar ~pid:0 m2;
    Ar.quiesce ar;
    Alcotest.(check int) "leak free" 0 (Simheap.live (Ar.heap ar))

  (* -------------------- concurrency stress ------------------------- *)

  (* [nslots] shared cells; writers replace the managed object in a
     random cell and retire-free the old one; readers acquire a random
     cell with the full protocol and dereference. Poisoned derefs raise
     Use_after_free, failing the test. *)
  let stress ~readers ~writers ~iters () =
    let nthreads = readers + writers in
    let ar = Ar.create ~cleanup_freq:32 ~max_threads:nthreads () in
    let nslots = 16 in
    let cells =
      Array.init nslots (fun i -> Atomic.make (Ar.alloc ar ~pid:0 i))
    in
    let failures = Atomic.make 0 in
    let reader pid () =
      let rng = Repro_util.Rng.create ~seed:(pid * 7919) in
      try
        for _ = 1 to iters do
          let slot = Repro_util.Rng.int rng nslots in
          Ar.scope ar ~pid
            {
              f =
                (fun s ->
                  match Ar.protect s ~ident:Ar.ident cells.(slot) with
                  | Some (v, g) ->
                      ignore (Sys.opaque_identity (Ar.get v));
                      Ar.release s g
                  | None -> failwith "slots exhausted with one guard held");
            }
        done
      with e ->
        ignore (Atomic.fetch_and_add failures 1);
        Printf.eprintf "[%s] reader %d: %s\n%!" S.name pid (Printexc.to_string e)
    in
    let writer pid () =
      let rng = Repro_util.Rng.create ~seed:(pid * 104729) in
      try
        for i = 1 to iters do
          Ar.begin_critical_section ar ~pid;
          let slot = Repro_util.Rng.int rng nslots in
          let nu = Ar.alloc ar ~pid i in
          let old = Atomic.exchange cells.(slot) nu in
          Ar.retire_free ar ~pid old;
          Ar.end_critical_section ar ~pid;
          Ar.eject ar ~pid
        done
      with e ->
        ignore (Atomic.fetch_and_add failures 1);
        Printf.eprintf "[%s] writer %d: %s\n%!" S.name pid (Printexc.to_string e)
    in
    let domains =
      List.init nthreads (fun pid ->
          Domain.spawn (if pid < readers then reader pid else writer pid))
    in
    List.iter Domain.join domains;
    Alcotest.(check int) "no reader/writer failures" 0 (Atomic.get failures);
    (* Teardown: retire the survivors, then everything must be freed. *)
    Array.iter (fun c -> Ar.retire_free ar ~pid:0 (Atomic.get c)) cells;
    Ar.quiesce ar;
    Alcotest.(check int) "leak free at quiescence" 0 (Simheap.live (Ar.heap ar))

  let tests =
    [
      t "retire/eject unprotected" `Quick retire_then_eject_unprotected;
      t "blocked while protected" `Quick blocked_while_protected;
      t "multi-retire ejects each" `Quick multi_retire_ejects_each_once;
      t "multi-retire blocked together" `Quick multi_retire_blocked_together;
      t "amortization gates scans" `Quick amortization_gates_scans;
      t "drain_all returns everything" `Quick drain_all_returns_everything;
      t "try_acquire exhaustion" `Quick try_acquire_exhaustion;
      t "reserved acquire" `Quick reserved_acquire_always_succeeds;
      t "managed lifecycle" `Quick ar_managed_lifecycle;
      t "typed acquire protocol" `Quick ar_typed_acquire_protocol;
      t "stress 2r/2w" `Slow (stress ~readers:2 ~writers:2 ~iters:20_000);
      t "stress read-heavy" `Slow (stress ~readers:3 ~writers:1 ~iters:20_000);
    ]
end

module T_ebr = Make_tests (Smr.Ebr)
module T_ibr = Make_tests (Smr.Ibr)
module T_hyaline = Make_tests (Smr.Hyaline)
module T_hp = Make_tests (Smr.Hp)
module T_he = Make_tests (Smr.Hazard_eras)
module T_ptb = Make_tests (Smr.Ptb)

(* The free-slot pool of HP, HE and PTB: LIFO like the free list it
   replaces, [None] once exhausted, and a slot given back twice is
   handed out once. *)
let slot_pool () =
  let p = Smr.Slot_pool.create 3 in
  (* [n] takes, in order (list literals evaluate right to left). *)
  let takes n = List.init n (fun _ -> Smr.Slot_pool.take p) in
  Alcotest.(check (list (option int)))
    "increasing order" [ Some 0; Some 1; Some 2; None ] (takes 4);
  Smr.Slot_pool.give p 1;
  Smr.Slot_pool.give p 1;
  Smr.Slot_pool.give p 2;
  Alcotest.(check (list (option int))) "last given first" [ Some 2; Some 1; None ] (takes 3);
  Smr.Slot_pool.reset p;
  Smr.Slot_pool.give p 0;
  Alcotest.(check (list (option int))) "reset frees all" [ Some 0; Some 1; Some 2; None ] (takes 4)

let () =
  Alcotest.run "smr"
    [
      ("slot_pool", [ Alcotest.test_case "slot pool" `Quick slot_pool ]);
      ("ebr", T_ebr.tests);
      ("ibr", T_ibr.tests);
      ("hyaline", T_hyaline.tests);
      ("hp", T_hp.tests);
      ("hazard_eras", T_he.tests);
      ("ptb", T_ptb.tests);
    ]
