(* Data-structure tests: each set implementation is checked against a
   sequential model, for set semantics under concurrency (disjoint-key
   partitions), for range queries, and for leak freedom at teardown.
   Queues are checked for per-thread FIFO order, element conservation
   under concurrency, and leak freedom. *)

module IntSet = Set.Make (Int)

module Make_set_tests (D : Ds.Set_intf.S) (L : sig
  val label : string
end) =
struct
  let t name speed f = Alcotest.test_case (L.label ^ ": " ^ name) speed f

  let sequential_model () =
    let d = D.create ~max_threads:1 () in
    let c = D.ctx d 0 in
    let model = ref IntSet.empty in
    let rng = Repro_util.Rng.create ~seed:2024 in
    for _ = 1 to 5_000 do
      let key = Repro_util.Rng.int rng 64 in
      match Repro_util.Rng.int rng 3 with
      | 0 ->
          let expected = not (IntSet.mem key !model) in
          model := IntSet.add key !model;
          Alcotest.(check bool) "insert agrees" expected (D.insert c key)
      | 1 ->
          let expected = IntSet.mem key !model in
          model := IntSet.remove key !model;
          Alcotest.(check bool) "remove agrees" expected (D.remove c key)
      | _ ->
          Alcotest.(check bool) "contains agrees" (IntSet.mem key !model) (D.contains c key)
    done;
    Alcotest.(check int) "final size agrees" (IntSet.cardinal !model) (D.size d);
    D.flush c;
    Alcotest.(check bool) "backlog non-negative" true (D.retired_backlog d >= 0);
    D.teardown d;
    Alcotest.(check int) "leak free" 0 (D.live_objects d);
    (* Teardown quiesces: nothing may stay parked in the retire
       pipeline once every thread has drained. *)
    Alcotest.(check int) "backlog drained" 0 (D.retired_backlog d)

  let duplicate_semantics () =
    let d = D.create ~max_threads:1 () in
    let c = D.ctx d 0 in
    Alcotest.(check bool) "fresh insert" true (D.insert c 7);
    Alcotest.(check bool) "duplicate insert" false (D.insert c 7);
    Alcotest.(check bool) "present" true (D.contains c 7);
    Alcotest.(check bool) "remove" true (D.remove c 7);
    Alcotest.(check bool) "absent remove" false (D.remove c 7);
    Alcotest.(check bool) "absent" false (D.contains c 7);
    D.teardown d

  let range_query_counts () =
    let d = D.create ~max_threads:1 () in
    let c = D.ctx d 0 in
    for k = 0 to 99 do
      ignore (D.insert c k)
    done;
    Alcotest.(check int) "[10,20)" 10 (D.range_query c 10 20);
    Alcotest.(check int) "[0,100)" 100 (D.range_query c 0 100);
    Alcotest.(check int) "[95,200)" 5 (D.range_query c 95 200);
    Alcotest.(check int) "empty range" 0 (D.range_query c 200 300);
    ignore (D.remove c 15);
    Alcotest.(check int) "[10,20) after remove" 9 (D.range_query c 10 20);
    D.teardown d

  (* Disjoint key partitions: every thread owns keys ≡ pid (mod P), so
     expected final contents are exact. *)
  let concurrent_disjoint () =
    let p = 4 in
    let per = 300 in
    let d = D.create ~max_threads:p () in
    let failures = Atomic.make 0 in
    let worker pid () =
      let c = D.ctx d pid in
      try
        for i = 0 to per - 1 do
          let key = (i * p) + pid in
          if not (D.insert c key) then raise Exit
        done;
        (* Remove every other one of our keys. *)
        for i = 0 to (per / 2) - 1 do
          let key = (2 * i * p) + pid in
          if not (D.remove c key) then raise Exit
        done;
        D.flush c
      with _ -> ignore (Atomic.fetch_and_add failures 1)
    in
    let domains = List.init p (fun pid -> Domain.spawn (worker pid)) in
    List.iter Domain.join domains;
    Alcotest.(check int) "no worker failures" 0 (Atomic.get failures);
    Alcotest.(check int) "final size" (p * per / 2) (D.size d);
    let c0 = D.ctx d 0 in
    for i = 0 to per - 1 do
      for pid = 0 to p - 1 do
        let key = (i * p) + pid in
        let expected = i mod 2 = 1 in
        if D.contains c0 key <> expected then
          Alcotest.failf "key %d: expected %b" key expected
      done
    done;
    D.teardown d;
    Alcotest.(check int) "leak free" 0 (D.live_objects d)

  (* Contended single-key churn plus readers: exercises helping and
     unlink races; checks nothing crashes and memory is reclaimed. *)
  let concurrent_churn () =
    let p = 4 in
    let d = D.create ~max_threads:p () in
    let failures = Atomic.make 0 in
    let worker pid () =
      let c = D.ctx d pid in
      let rng = Repro_util.Rng.create ~seed:(pid + 31) in
      try
        for _ = 1 to 5_000 do
          let key = Repro_util.Rng.int rng 16 in
          match Repro_util.Rng.int rng 3 with
          | 0 -> ignore (D.insert c key)
          | 1 -> ignore (D.remove c key)
          | _ -> ignore (D.contains c key)
        done;
        D.flush c
      with e ->
        ignore (Atomic.fetch_and_add failures 1);
        Printf.eprintf "[%s churn %d] %s\n%!" L.label pid (Printexc.to_string e)
    in
    let domains = List.init p (fun pid -> Domain.spawn (worker pid)) in
    List.iter Domain.join domains;
    Alcotest.(check int) "no worker failures" 0 (Atomic.get failures);
    let size = D.size d in
    Alcotest.(check bool) "size within key range" true (size >= 0 && size <= 16);
    Alcotest.(check bool) "backlog non-negative" true (D.retired_backlog d >= 0);
    D.teardown d;
    Alcotest.(check int) "leak free" 0 (D.live_objects d);
    Alcotest.(check int) "backlog drained" 0 (D.retired_backlog d)

  let tests =
    [
      t "sequential model" `Slow sequential_model;
      t "duplicate semantics" `Quick duplicate_semantics;
      t "range query" `Quick range_query_counts;
      t "concurrent disjoint" `Slow concurrent_disjoint;
      t "concurrent churn" `Slow concurrent_churn;
    ]
end

(* ---- instantiations: a representative matrix (the benchmark covers
   the full one) ---- *)

module RC_ebr = Cdrc.Make (Smr.Ebr)
module RC_hp = Cdrc.Make (Smr.Hp)
module RC_hyaline = Cdrc.Make (Smr.Hyaline)
module RC_ibr = Cdrc.Make (Smr.Ibr)
module RC_he = Cdrc.Make (Smr.Hazard_eras)
module RC_ptb = Cdrc.Make (Smr.Ptb)

module L_ebr = Ds.Hm_list_manual.Make (Smr.Ebr)
module L_hp = Ds.Hm_list_manual.Make (Smr.Hp)
module L_ibr = Ds.Hm_list_manual.Make (Smr.Ibr)
module L_hyaline = Ds.Hm_list_manual.Make (Smr.Hyaline)
module L_he = Ds.Hm_list_manual.Make (Smr.Hazard_eras)
module Lr_ebr = Ds.Hm_list_rc.Make (RC_ebr)
module Lr_hp = Ds.Hm_list_rc.Make (RC_hp)
module H_ebr = Ds.Hash_table_manual.Make (Smr.Ebr)
module Hr_ebr = Ds.Hash_table_rc.Make (RC_ebr)
module T_ebr = Ds.Nm_tree_manual.Make (Smr.Ebr)
module T_hp = Ds.Nm_tree_manual.Make (Smr.Hp)
module T_hyaline = Ds.Nm_tree_manual.Make (Smr.Hyaline)
module Tr_ebr = Ds.Nm_tree_rc.Make (RC_ebr)
module Tr_hp = Ds.Nm_tree_rc.Make (RC_hp)
module Tr_ibr = Ds.Nm_tree_rc.Make (RC_ibr)

module Tests_l_ebr =
  Make_set_tests
    (L_ebr)
    (struct
      let label = "list/EBR"
    end)

module Tests_l_hp =
  Make_set_tests
    (L_hp)
    (struct
      let label = "list/HP"
    end)

module Tests_l_ibr =
  Make_set_tests
    (L_ibr)
    (struct
      let label = "list/IBR"
    end)

module Tests_l_hyaline =
  Make_set_tests
    (L_hyaline)
    (struct
      let label = "list/Hyaline"
    end)

module Tests_l_he =
  Make_set_tests
    (L_he)
    (struct
      let label = "list/HE"
    end)

module Tests_lr_ebr =
  Make_set_tests
    (Lr_ebr)
    (struct
      let label = "list/RCEBR"
    end)

module Tests_lr_hp =
  Make_set_tests
    (Lr_hp)
    (struct
      let label = "list/RCHP"
    end)

module Tests_h_ebr =
  Make_set_tests
    (H_ebr)
    (struct
      let label = "hash/EBR"
    end)

module Tests_hr_ebr =
  Make_set_tests
    (Hr_ebr)
    (struct
      let label = "hash/RCEBR"
    end)

module Tests_t_ebr =
  Make_set_tests
    (T_ebr)
    (struct
      let label = "tree/EBR"
    end)

module Tests_t_hyaline =
  Make_set_tests
    (T_hyaline)
    (struct
      let label = "tree/Hyaline"
    end)

module Tests_tr_ebr =
  Make_set_tests
    (Tr_ebr)
    (struct
      let label = "tree/RCEBR"
    end)

module Tests_tr_hp =
  Make_set_tests
    (Tr_hp)
    (struct
      let label = "tree/RCHP"
    end)

module Tests_tr_ibr =
  Make_set_tests
    (Tr_ibr)
    (struct
      let label = "tree/RCIBR"
    end)

(* ---- queue tests ---- *)

module Make_queue_tests (Q : Ds.Queue_intf.S) (L : sig
  val label : string
end) =
struct
  let t name speed f = Alcotest.test_case (L.label ^ ": " ^ name) speed f

  let fifo_single_thread () =
    let q = Q.create ~max_threads:1 () in
    let c = Q.ctx q 0 in
    Alcotest.(check (option int)) "empty" None (Q.dequeue c);
    for i = 1 to 100 do
      Q.enqueue c i
    done;
    for i = 1 to 100 do
      Alcotest.(check (option int)) "fifo order" (Some i) (Q.dequeue c)
    done;
    Alcotest.(check (option int)) "empty again" None (Q.dequeue c);
    Q.flush c;
    Q.teardown q;
    Alcotest.(check int) "leak free" 0 (Q.live_objects q)

  let interleaved_enq_deq () =
    let q = Q.create ~max_threads:1 () in
    let c = Q.ctx q 0 in
    for round = 0 to 9 do
      for i = 0 to 9 do
        Q.enqueue c ((round * 10) + i)
      done;
      for i = 0 to 9 do
        Alcotest.(check (option int)) "fifo" (Some ((round * 10) + i)) (Q.dequeue c)
      done
    done;
    Q.flush c;
    Q.teardown q;
    Alcotest.(check int) "leak free" 0 (Q.live_objects q)

  (* The paper's Fig 12 workload shape: P threads each repeatedly
     dequeue an element and re-enqueue it; the multiset of values is
     conserved. *)
  let conservation_under_contention () =
    let p = 4 in
    let q = Q.create ~max_threads:p () in
    let c0 = Q.ctx q 0 in
    for i = 1 to p * 3 do
      Q.enqueue c0 i
    done;
    let failures = Atomic.make 0 in
    let worker pid () =
      let c = Q.ctx q pid in
      try
        for _ = 1 to 5_000 do
          match Q.dequeue c with Some v -> Q.enqueue c v | None -> ()
        done;
        Q.flush c
      with e ->
        ignore (Atomic.fetch_and_add failures 1);
        Printf.eprintf "[%s conserve %d] %s\n%!" L.label pid (Printexc.to_string e)
    in
    let domains = List.init p (fun pid -> Domain.spawn (worker pid)) in
    List.iter Domain.join domains;
    Alcotest.(check int) "no worker failures" 0 (Atomic.get failures);
    let rec drain acc =
      match Q.dequeue c0 with Some v -> drain (v :: acc) | None -> acc
    in
    let final = List.sort compare (drain []) in
    let expected = List.init (p * 3) (fun i -> i + 1) in
    Alcotest.(check (list int)) "values conserved" expected final;
    Q.flush c0;
    Alcotest.(check bool) "backlog non-negative" true (Q.retired_backlog q >= 0);
    Q.teardown q;
    Alcotest.(check int) "leak free" 0 (Q.live_objects q);
    Alcotest.(check int) "backlog drained" 0 (Q.retired_backlog q)

  let per_producer_order () =
    (* Two producers with disjoint value spaces and one consumer: each
       producer's values must come out in its insertion order. *)
    let q = Q.create ~max_threads:3 () in
    let n = 2_000 in
    let producer pid () =
      let c = Q.ctx q pid in
      for i = 0 to n - 1 do
        Q.enqueue c ((pid * 1_000_000) + i);
        if i land 63 = 0 then Q.flush c
      done;
      Q.flush c
    in
    let consumer () =
      let c = Q.ctx q 2 in
      let seen = Array.make 2 (-1) in
      let got = ref 0 in
      let ok = ref true in
      while !got < 2 * n do
        match Q.dequeue c with
        | None -> Domain.cpu_relax ()
        | Some v ->
            incr got;
            let pid = v / 1_000_000 in
            let i = v mod 1_000_000 in
            if i <= seen.(pid) then ok := false;
            seen.(pid) <- i
      done;
      !ok
    in
    let p1 = Domain.spawn (producer 0) in
    let p2 = Domain.spawn (producer 1) in
    let cons = Domain.spawn consumer in
    Domain.join p1;
    Domain.join p2;
    Alcotest.(check bool) "per-producer order" true (Domain.join cons);
    Q.teardown q;
    Alcotest.(check int) "leak free" 0 (Q.live_objects q)

  let tests =
    [
      t "fifo single thread" `Quick fifo_single_thread;
      t "interleaved" `Quick interleaved_enq_deq;
      t "conservation" `Slow conservation_under_contention;
      t "per-producer order" `Slow per_producer_order;
    ]
end

module Q_rc_hp = Ds.Dl_queue_rc.Make (RC_hp)
module Q_rc_ebr = Ds.Dl_queue_rc.Make (RC_ebr)
module Q_rc_hyaline = Ds.Dl_queue_rc.Make (RC_hyaline)
module Q_manual = Ds.Dl_queue_manual.Make ()
module Q_locked = Ds.Dl_queue_locked.Make ()

module Tests_q_rc_hp =
  Make_queue_tests
    (Q_rc_hp)
    (struct
      let label = "queue/RCHP-weak"
    end)

module Tests_q_rc_ebr =
  Make_queue_tests
    (Q_rc_ebr)
    (struct
      let label = "queue/RCEBR-weak"
    end)

module Tests_q_rc_hyaline =
  Make_queue_tests
    (Q_rc_hyaline)
    (struct
      let label = "queue/RCHyaline-weak"
    end)

module Tests_q_manual =
  Make_queue_tests
    (Q_manual)
    (struct
      let label = "queue/Original"
    end)

module Tests_q_locked =
  Make_queue_tests
    (Q_locked)
    (struct
      let label = "queue/locked"
    end)

(* ---- retention: a queue at steady length keeps only its items ---- *)

(* Each node's disposal releases its successor's count, so reclaiming
   a dequeued run is a chain of deferred operations, one retire round
   per link. [flush] must follow the chain to its end: with 64 items
   queued, after every flush only the items and the head dummy may be
   live, plus, in the weak queue, the dummy's weakly held predecessor
   ([bound] 66 vs 65), and nothing may stay parked. *)
let retention ~bound kind (module Q : Ds.Queue_intf.S) =
  Alcotest.test_case (kind ^ "/" ^ Q.name ^ ": flush reclaims dequeued nodes") `Quick
    (fun () ->
      let q = Q.create ~max_threads:1 () in
      let c = Q.ctx q 0 in
      for i = 1 to 64 do
        Q.enqueue c i
      done;
      for i = 1 to 10_000 do
        Q.enqueue c (64 + i);
        Alcotest.(check (option int)) "fifo" (Some i) (Q.dequeue c);
        if i mod 1_000 = 0 then begin
          Q.flush c;
          Alcotest.(check int) (Printf.sprintf "backlog after %d pairs" i) 0
            (Q.retired_backlog q);
          let live = Q.live_objects q in
          if live > bound then
            Alcotest.failf "%d blocks live after %d pairs (bound %d)" live i bound
        end
      done;
      Q.teardown q;
      Alcotest.(check int) "leak free" 0 (Q.live_objects q))

(* [Ms_queue_rc.create] takes optional knobs; fix them to fit
   [Queue_intf.S]. *)
module Ms_q (R : Cdrc.Intf.S) = struct
  include Ds.Ms_queue_rc.Make (R)

  let create ~max_threads () = create ~max_threads ()
end

let retention_tests =
  List.map (retention ~bound:66 "queue")
    [
      (module Q_rc_ebr : Ds.Queue_intf.S);
      (module Q_rc_hp);
      (module Ds.Dl_queue_rc.Make (RC_ibr));
      (module Ds.Dl_queue_rc.Make (RC_he));
      (module Ds.Dl_queue_rc.Make (RC_ptb));
      (module Q_rc_hyaline);
    ]
  @ List.map (retention ~bound:65 "ms-queue")
      [
        (module Ms_q (RC_ebr) : Ds.Queue_intf.S);
        (module Ms_q (RC_hp));
        (module Ms_q (RC_ibr));
        (module Ms_q (RC_he));
        (module Ms_q (RC_ptb));
      ]

(* Two removals racing on the sibling leaves of one parent, under the
   DFS explorer. The cleanup's yield points let both flag their edge
   before either excises; the winner must then retire only its own
   leaf. Retiring the flagged sibling too frees it twice once the
   other removal completes, and Simheap raises [Double_free] when the
   final flush applies the retirements. *)
let nm_sibling_deletes () =
  let t = T_ebr.create ~max_threads:3 () in
  let c0 = T_ebr.ctx t 0 in
  (* Leaves 1 and 2 become the two children of internal node 2. *)
  ignore (T_ebr.insert c0 1);
  ignore (T_ebr.insert c0 2);
  let removed = [| false; false |] in
  let remove i key () = removed.(i) <- T_ebr.remove (T_ebr.ctx t (i + 1)) key in
  {
    Sched.fibers = [| remove 0 1; remove 1 2 |];
    check =
      (fun () ->
        if not (removed.(0) && removed.(1)) then failwith "a removal reported absent";
        if T_ebr.size t <> 0 then failwith "keys survived both removals";
        List.iter (fun pid -> T_ebr.flush (T_ebr.ctx t pid)) [ 0; 1; 2 ];
        T_ebr.teardown t;
        let live = T_ebr.live_objects t in
        if live <> 0 then failwith (Printf.sprintf "%d blocks leaked" live));
  }

let test_nm_sibling_deletes () =
  (* A cleanup that picks the excised child by its flag alone fails
     the 4th schedule explored. *)
  match Sched.explore_dfs nm_sibling_deletes with
  | Sched.Pass { schedules } ->
      Alcotest.(check bool) "explored past 4 schedules" true (schedules > 4)
  | r -> Alcotest.failf "dfs: %a" Sched.pp_result r

(* Two removals of neighbouring keys under the DFS explorer, in the
   list [1; 2; 3]. One schedule: fiber 0 marks 2 and yields; fiber 1
   unlinks 2 on its way, marks 3 and yields; fiber 0's unlink CAS then
   fails, and its helping search loses the race to unlink 3. Each
   removal must report its key exactly once: re-running a remove whose
   mark already took effect finds 2 gone and reports it absent. *)
let list_mark_then_help () =
  let t = L_ebr.create ~max_threads:3 () in
  let c0 = L_ebr.ctx t 0 in
  List.iter (fun k -> ignore (L_ebr.insert c0 k)) [ 1; 2; 3 ];
  let removed = [| false; false |] in
  let remove i key () = removed.(i) <- L_ebr.remove (L_ebr.ctx t (i + 1)) key in
  {
    Sched.fibers = [| remove 0 2; remove 1 3 |];
    check =
      (fun () ->
        if not (removed.(0) && removed.(1)) then failwith "a removal reported absent";
        if L_ebr.size t <> 1 then failwith "expected only key 1 to survive";
        List.iter (fun pid -> L_ebr.flush (L_ebr.ctx t pid)) [ 0; 1; 2 ];
        L_ebr.teardown t;
        let live = L_ebr.live_objects t in
        if live <> 0 then failwith (Printf.sprintf "%d blocks leaked" live));
  }

let test_list_mark_then_help () =
  match Sched.explore_dfs list_mark_then_help with
  | Sched.Pass { schedules } ->
      Alcotest.(check bool) "explored more than one schedule" true (schedules > 1)
  | r -> Alcotest.failf "dfs: %a" Sched.pp_result r

(* The Fig 13a list's own code under the DFS explorer (≤ 2
   preemptions), on the yields of its search and remove: the RC list's
   search, which the KV store's buckets share, yields once per hop, the
   manual list's before each unlink. Two fibers race on neighbouring
   keys, each history must linearize against the sequential set model,
   the final size is the one every linearization ends with, and
   teardown leaks nothing. *)
type set_op = Ins of int | Rem of int

let set_model st = function
  | Ins k -> (IntSet.add k st, not (IntSet.mem k st))
  | Rem k -> (IntSet.remove k st, IntSet.mem k st)

let pp_set_op ppf = function
  | Ins k -> Format.fprintf ppf "insert %d" k
  | Rem k -> Format.fprintf ppf "remove %d" k

let list_race (module D : Ds.Set_intf.S) ~prefill ~final ops () =
  let t = D.create ~max_threads:3 () in
  let c0 = D.ctx t 0 in
  List.iter (fun k -> ignore (D.insert c0 k)) prefill;
  let rec_ = Lincheck.Recorder.create () in
  let run i op () =
    let c = D.ctx t (i + 1) in
    ignore
      (Lincheck.Recorder.run rec_ ~thread:i op (fun () ->
           match op with Ins k -> D.insert c k | Rem k -> D.remove c k))
  in
  {
    Sched.fibers = Array.of_list (List.mapi run ops);
    check =
      (fun () ->
        (match
           Lincheck.check_or_explain ~model:set_model ~equal_res:( = ) ~pp_op:pp_set_op
             ~pp_res:Format.pp_print_bool ~init:(IntSet.of_list prefill)
             (Lincheck.Recorder.history rec_)
         with
        | Ok () -> ()
        | Error msg -> failwith ("not linearizable: " ^ msg));
        if D.size t <> final then failwith (Printf.sprintf "final size %d, not %d" (D.size t) final);
        List.iter (fun pid -> D.flush (D.ctx t pid)) [ 0; 1; 2 ];
        D.teardown t;
        let live = D.live_objects t in
        if live <> 0 then failwith (Printf.sprintf "%d blocks leaked" live));
  }

(* Each race's schedule count is pinned: these scenarios schedule only
   at yields, so a count that moves means the walks' yields changed.
   [counts] are the two races' counts. *)
let test_list_races (module D : Ds.Set_intf.S) ~counts:(ins_rem, rem_rem) () =
  List.iter
    (fun (label, expected, scenario) ->
      match Sched.explore_dfs ~max_preemptions:2 ~max_schedules:200_000 scenario with
      | Sched.Pass { schedules } -> Alcotest.(check int) (label ^ ": schedules") expected schedules
      | r -> Alcotest.failf "%s: %a" label Sched.pp_result r)
    [
      (* Insert 2 behind node 1 while 1 is removed: the insert's CAS on
         1's [next] must fail once 1 is marked. *)
      ( "insert || remove",
        ins_rem,
        list_race (module D) ~prefill:[ 1; 3 ] ~final:2 [ Rem 1; Ins 2 ] );
      ( "remove || remove",
        rem_rem,
        list_race (module D) ~prefill:[ 1; 2; 3 ] ~final:1 [ Rem 2; Rem 3 ] );
    ]

(* Per-call allocation, in minor words beyond the 4-word block of each
   snapshot taken ([snapshots] counts them; a manual structure takes
   none). A section is one entry that passes its body the operation's
   context and input, so it builds no closure; the walks pass their
   cursor on as arguments, with no ref cell and no retry closure. *)
let words_beyond_snapshots snapshots f =
  let s0 = snapshots () in
  let w0 = Gc.minor_words () in
  f ();
  let words = Gc.minor_words () -. w0 in
  int_of_float words - (4 * (snapshots () - s0))

(* The set rows of the per-call table, on a built 32-key set (keys
   0, 2, .., 62): [contains] of every key from -1 to 64, [insert] of
   each present key and [remove] of each absent one, which change
   nothing, and [range_query] over 16 keys. Each must allocate the
   words its row pins, on every call. *)
let set_calls (module D : Ds.Set_intf.S) label ~contains ~insert ~remove ~range =
  let d = D.create ~max_threads:1 () in
  let c = D.ctx d 0 in
  for k = 0 to 31 do
    ignore (D.insert c (2 * k))
  done;
  let snapshots () =
    match D.snapshot_stats d with Some (fast, slow) -> fast + slow | None -> 0
  in
  let row op expected keys call =
    List.iter
      (fun key ->
        Alcotest.(check int)
          (Printf.sprintf "%s %s %d: words beyond 4 per snapshot" label op key)
          expected
          (words_beyond_snapshots snapshots (fun () -> call key)))
      keys
  in
  row "contains" contains (List.init 66 (fun k -> k - 1)) (fun k -> ignore (D.contains c k));
  row "insert (present)" insert (List.init 32 (fun k -> 2 * k)) (fun k -> ignore (D.insert c k));
  row "remove (absent)" remove (List.init 33 (fun k -> (2 * k) - 1)) (fun k ->
      ignore (D.remove c k));
  row "range_query" range [ -1; 0; 10; 40; 60 ] (fun k -> ignore (D.range_query c k (k + 16)));
  D.teardown d

module K_ebr = Workload.Kv_service.Make (RC_ebr)

(* The RC rows. A read allocates its snapshots alone, and a range query
   the pair of its bounds. A write that changes nothing adds the 5-word
   cursor (list) or seek record (tree) and the 4-word null snapshot its
   search starts from. A Dl_queue_rc enqueue+dequeue pair, averaged
   over 10,000 pairs, and a KV get, snapshots included, are pinned at
   their measured words. *)
let read_hop_allocation_pinned () =
  set_calls (module Lr_ebr) "RC list" ~contains:0 ~insert:9 ~remove:9 ~range:3;
  set_calls (module Tr_ebr) "RC tree" ~contains:0 ~insert:9 ~remove:9 ~range:3;
  let q = Q_rc_ebr.create ~max_threads:1 () in
  let c = Q_rc_ebr.ctx q 0 in
  let pairs n =
    for i = 1 to n do
      Q_rc_ebr.enqueue c i;
      ignore (Q_rc_ebr.dequeue c)
    done
  in
  pairs 1000;
  let snapshots () =
    let fast, slow = RC_ebr.snapshot_stats q.Q_rc_ebr.rt in
    fast + slow
  in
  let per_pair = float (words_beyond_snapshots snapshots (fun () -> pairs 10_000)) /. 10_000. in
  Alcotest.(check bool)
    (Printf.sprintf "queue enqueue+dequeue: %.2f words beyond 4 per snapshot = 48.3" per_pair)
    true
    (Float.abs (per_pair -. 48.3) < 0.05);
  Q_rc_ebr.teardown q;
  let t = K_ebr.create ~shards:4 ~buckets:256 ~max_threads:1 () in
  let c = K_ebr.ctx t 0 in
  for k = 0 to 255 do
    ignore (K_ebr.put c ~now:0 (2 * k) k)
  done;
  List.iter
    (fun (label, expected, key) ->
      for k = 0 to 255 do
        Alcotest.(check int)
          (Printf.sprintf "KV get %s %d: words" label (key k))
          expected
          (words_beyond_snapshots (fun () -> 0) (fun () -> ignore (K_ebr.get c ~now:0 (key k))))
      done)
    [ ("hit", 26, fun k -> 2 * k); ("miss", 16, fun k -> (2 * k) + 1) ];
  K_ebr.teardown t

(* The manual rows: [Ar.protect] returns the value and leaves its guard
   in the scope state, the walks pass on the node a link leads to, and
   a scope body is a top-level function, so a read allocates nothing
   and a range query its bounds pair. A write that changes nothing
   allocates its search's cursor (list, 6 words) or seek record (tree,
   8 words). *)
let manual_read_hop_allocation_pinned () =
  set_calls (module L_ebr) "list/EBR" ~contains:0 ~insert:6 ~remove:6 ~range:3;
  set_calls (module L_hp) "list/HP" ~contains:0 ~insert:6 ~remove:6 ~range:3;
  set_calls (module T_ebr) "tree/EBR" ~contains:0 ~insert:8 ~remove:8 ~range:3;
  set_calls (module T_hp) "tree/HP" ~contains:0 ~insert:8 ~remove:8 ~range:3

let () =
  Alcotest.run "ds"
    [
      ("list manual ebr", Tests_l_ebr.tests);
      ("list manual hp", Tests_l_hp.tests);
      ("list manual ibr", Tests_l_ibr.tests);
      ("list manual hyaline", Tests_l_hyaline.tests);
      ("list manual he", Tests_l_he.tests);
      ("list rc ebr", Tests_lr_ebr.tests);
      ("list rc hp", Tests_lr_hp.tests);
      ("hash manual ebr", Tests_h_ebr.tests);
      ("hash rc ebr", Tests_hr_ebr.tests);
      ("tree manual ebr", Tests_t_ebr.tests);
      ("tree manual hyaline", Tests_t_hyaline.tests);
      ("tree rc ebr", Tests_tr_ebr.tests);
      ("tree rc hp", Tests_tr_hp.tests);
      ("tree rc ibr", Tests_tr_ibr.tests);
      ("queue rc hp", Tests_q_rc_hp.tests);
      ("queue rc ebr", Tests_q_rc_ebr.tests);
      ("queue rc hyaline", Tests_q_rc_hyaline.tests);
      ("queue original", Tests_q_manual.tests);
      ("queue locked", Tests_q_locked.tests);
      ("queue retention", retention_tests);
      ( "tree manual explore",
        [
          Alcotest.test_case "delete || delete on sibling leaves (EBR)" `Quick
            test_nm_sibling_deletes;
        ]
      );
      ( "list manual explore",
        [
          Alcotest.test_case "remove || remove on neighbouring keys (EBR)" `Quick
            test_list_mark_then_help;
          Alcotest.test_case "insert || remove, remove || remove on neighbouring keys (EBR)"
            `Quick
            (test_list_races (module L_ebr) ~counts:(4, 7));
          Alcotest.test_case "insert || remove, remove || remove on neighbouring keys (HP)"
            `Quick
            (test_list_races (module L_hp) ~counts:(4, 7));
        ]
      );
      ( "read hops",
        [
          Alcotest.test_case "read hop allocation pinned (RCEBR)" `Quick read_hop_allocation_pinned;
          Alcotest.test_case "manual read hop allocation pinned (EBR, HP)" `Quick
            manual_read_hop_allocation_pinned;
        ] );
      ( "list rc explore",
        [
          Alcotest.test_case "insert || remove, remove || remove on neighbouring keys (RCEBR)"
            `Quick
            (test_list_races (module Lr_ebr) ~counts:(9, 19));
          Alcotest.test_case "insert || remove, remove || remove on neighbouring keys (RCHP)"
            `Quick
            (test_list_races (module Lr_hp) ~counts:(9, 19));
        ]
      );
    ]
