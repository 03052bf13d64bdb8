(* Tests for the instrumentation and the small type-erasure modules:
   snapshot fast/slow path accounting (the Fig 11 fallback mechanism),
   weak-snapshot fallback under slot exhaustion, identity tokens, and
   deferred-op plumbing. *)

module Ident = Smr.Ident

(* ---------------- Ident ---------------- *)

let test_ident_identity () =
  let a = ref 1 and b = ref 1 in
  Alcotest.(check bool) "same object equal" true (Ident.equal (Ident.of_val a) (Ident.of_val a));
  Alcotest.(check bool) "distinct objects differ" false
    (Ident.equal (Ident.of_val a) (Ident.of_val b));
  Alcotest.(check bool) "null is null" true (Ident.is_null Ident.null);
  Alcotest.(check bool) "object is not null" false (Ident.is_null (Ident.of_val a));
  Alcotest.(check bool) "null equals null" true (Ident.equal Ident.null Ident.null)

let test_ident_stable_across_gc () =
  let a = Array.make 10 0 in
  let id = Ident.of_val a in
  (* Force minor+major collections; physical identity must survive the
     moving GC. *)
  for _ = 1 to 5 do
    ignore (Sys.opaque_identity (Array.make 10_000 0));
    Gc.full_major ()
  done;
  Alcotest.(check bool) "identity stable across GC" true (Ident.equal id (Ident.of_val a))

(* ---------------- Deferred ---------------- *)

let test_deferred_run () =
  let got = ref (-1) in
  let op = Smr.Deferred.make ~id:Smr.Ident.null ~birth:0 (fun pid r -> r := pid) got in
  Smr.Deferred.run op ~pid:3;
  Alcotest.(check int) "pid passed" 3 !got

(* ---------------- snapshot_stats ---------------- *)

module R_hp = Cdrc.Make (Smr.Hp)

(* Run [f ()] in the thread's section through the runtime's one
   two-argument section entry. *)
let in_section critically th f = critically th (fun f () -> f ()) f ()
module R_ebr = Cdrc.Make (Smr.Ebr)

let test_fast_path_counting () =
  let rt = R_ebr.create ~max_threads:1 () in
  let th = R_ebr.thread rt 0 in
  in_section R_ebr.critically th (fun () ->
      let p = R_ebr.Shared.make th 1 in
      let cell = R_ebr.Asp.make th (R_ebr.Shared.ptr p) in
      for _ = 1 to 10 do
        let s = R_ebr.Asp.get_snapshot th cell in
        R_ebr.Snapshot.drop th s
      done;
      R_ebr.Shared.drop th p;
      R_ebr.Asp.clear th cell);
  let fast, slow = R_ebr.snapshot_stats rt in
  Alcotest.(check int) "10 fast" 10 fast;
  Alcotest.(check int) "0 slow (region scheme never exhausts)" 0 slow;
  R_ebr.quiesce rt

let test_slow_path_counting_on_exhaustion () =
  (* 2 announcement slots: the first two snapshots are fast, the rest
     spill to the count-increment slow path. *)
  let rt = R_hp.create ~slots_per_thread:2 ~max_threads:1 () in
  let th = R_hp.thread rt 0 in
  in_section R_hp.critically th (fun () ->
      let p = R_hp.Shared.make th 1 in
      let cell = R_hp.Asp.make th (R_hp.Shared.ptr p) in
      let snaps = List.init 5 (fun _ -> R_hp.Asp.get_snapshot th cell) in
      let protected_count =
        List.length (List.filter R_hp.Snapshot.is_protected snaps)
      in
      Alcotest.(check int) "2 guard-protected" 2 protected_count;
      let fast, slow = R_hp.snapshot_stats rt in
      Alcotest.(check int) "fast count" 2 fast;
      Alcotest.(check int) "slow count" 3 slow;
      List.iter (R_hp.Snapshot.drop th) snaps;
      R_hp.Shared.drop th p;
      R_hp.Asp.clear th cell);
  R_hp.quiesce rt

let test_weak_snapshot_fallback_on_exhaustion () =
  (* With 1 dispose slot, the second concurrent weak snapshot takes the
     Fig 9 line 26 fallback (strong increment) and is not
     guard-protected. *)
  let rt = R_hp.create ~support_weak:true ~slots_per_thread:1 ~max_threads:1 () in
  let th = R_hp.thread rt 0 in
  in_section R_hp.critically th (fun () ->
      let p = R_hp.Shared.make th 9 in
      let w = R_hp.Weak.of_shared th p in
      let cell = R_hp.Awp.make th (R_hp.Weak.ptr w) in
      let ws1 = R_hp.Awp.get_snapshot th cell in
      let ws2 = R_hp.Awp.get_snapshot th cell in
      Alcotest.(check bool) "first uses dispose guard" true
        (R_hp.Weak_snapshot.is_protected ws1);
      Alcotest.(check bool) "second fell back to an increment" false
        (R_hp.Weak_snapshot.is_protected ws2);
      (* Both must read the value regardless of path. *)
      Alcotest.(check int) "ws1 reads" 9 (R_hp.Weak_snapshot.get ws1);
      Alcotest.(check int) "ws2 reads" 9 (R_hp.Weak_snapshot.get ws2);
      R_hp.Weak_snapshot.drop th ws1;
      R_hp.Weak_snapshot.drop th ws2;
      R_hp.Weak.drop th w;
      R_hp.Shared.drop th p;
      R_hp.Awp.clear th cell);
  R_hp.quiesce rt;
  Alcotest.(check int) "no leak" 0 (R_hp.live_objects rt)

(* The driver surfaces the slow-path share for RC structures. *)
let test_set_intf_snapshot_stats () =
  let module T = Ds.Nm_tree_rc.Make (R_hp) in
  let t = T.create ~slots_per_thread:2 ~max_threads:1 () in
  let c = T.ctx t 0 in
  for k = 1 to 200 do
    ignore (T.insert c k)
  done;
  (* Deep range queries exhaust 2 slots constantly. *)
  ignore (T.range_query c 0 200);
  (match T.snapshot_stats t with
  | Some (fast, slow) ->
      Alcotest.(check bool) "counted" true (fast > 0);
      Alcotest.(check bool) "slow path exercised" true (slow > 0)
  | None -> Alcotest.fail "RC tree must report stats");
  let module M = Ds.Nm_tree_manual.Make (Smr.Ebr) in
  let m = M.create ~max_threads:1 () in
  Alcotest.(check bool) "manual reports none" true (M.snapshot_stats m = None);
  M.teardown m;
  T.teardown t

(* ---------------- telemetry counters (lib/obs) ---------------- *)

(* Scripted single-domain HP sequence with exact expected counters:
   2 slots, so the third try_acquire exhausts; one confirm against a
   changed target retries; 5 retires all deliver on a forced eject. *)
let test_hp_scripted_counters () =
  Obs.Report.reset_all ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      let module H = Smr.Hp in
      let t = H.create ~slots_per_thread:2 ~max_threads:1 () in
      let pid = 0 in
      (* The refs anchor their idents: tokens are physical identities. *)
      let r1 = ref 1 and r2 = ref 2 and r3 = ref 3 in
      let id1 = Smr.Ident.of_val r1
      and id2 = Smr.Ident.of_val r2
      and id3 = Smr.Ident.of_val r3 in
      H.begin_critical_section t ~pid;
      let g1 = Option.get (H.try_acquire t ~pid id1) in
      let g2 = Option.get (H.try_acquire t ~pid id2) in
      Alcotest.(check bool) "third acquire exhausts" true (H.try_acquire t ~pid id3 = None);
      Alcotest.(check bool) "changed target fails confirm" false (H.confirm t ~pid g1 id3);
      Alcotest.(check bool) "re-announced confirm settles" true (H.confirm t ~pid g1 id3);
      H.release t ~pid g1;
      H.release t ~pid g2;
      H.end_critical_section t ~pid;
      let anchors = Array.init 5 (fun i -> ref (100 + i)) in
      let ran = ref 0 in
      Array.iter
        (fun r ->
          H.retire t ~pid (Smr.Deferred.of_fun ~id:(Smr.Ident.of_val r) (fun _ -> incr ran)))
        anchors;
      Smr.Deferred.run_all ~pid (H.eject ~force:true t ~pid);
      let v = Obs.Metrics.value in
      Alcotest.(check int) "acquire" 2 (v "smr.hp.acquire");
      Alcotest.(check int) "slot_exhausted" 1 (v "smr.hp.slot_exhausted");
      Alcotest.(check int) "confirm_retry" 1 (v "smr.hp.confirm_retry");
      Alcotest.(check int) "retire" 5 (v "smr.hp.retire");
      Alcotest.(check int) "eject scans" 1 (v "smr.hp.eject.scans");
      Alcotest.(check int) "eject ops" 5 (v "smr.hp.eject.ops");
      Alcotest.(check int) "delivered ops ran" 5 !ran;
      Alcotest.(check int) "backlog empty" 0 (H.retired_count t ~pid))

(* The PR's deterministic-accounting criterion: single domain, fixed op
   count, for every scheme the retire counter equals delivered eject
   ops plus the remaining backlog — checked before teardown, whose
   [drain_all] path legitimately bypasses the eject counters. *)
let accounting_schemes = List.map snd Workload.Instances.named_schemes

let test_accounting_identity () =
  List.iter
    (fun (module S : Smr.Smr_intf.S) ->
      Obs.Report.reset_all ();
      Obs.Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.Metrics.set_enabled false)
        (fun () ->
          let module St = Ds.Treiber_stack_manual.Make (S) in
          let s = St.create ~max_threads:1 () in
          let c = St.ctx s 0 in
          for i = 1 to 300 do
            St.push c i;
            ignore (St.pop c)
          done;
          St.flush c;
          let lower = String.lowercase_ascii S.name in
          let retire = Obs.Metrics.value ("smr." ^ lower ^ ".retire") in
          let delivered = Obs.Metrics.value ("smr." ^ lower ^ ".eject.ops") in
          let backlog = St.Ar.total_pending s.St.ar in
          Alcotest.(check int) (S.name ^ ": one retire per pop") 300 retire;
          Alcotest.(check int)
            (S.name ^ ": retire = delivered + backlog")
            retire (delivered + backlog);
          St.teardown s))
    accounting_schemes

(* 4 domains, distinct pids, one shared counter: the merged total must
   be the exact sum of per-domain increments (the single-writer-per-
   shard contract of [Obs.Metrics]). *)
let counter_merge_prop =
  QCheck.Test.make ~name:"merged counter total = sum of per-domain increments" ~count:25
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (a, b, c, d) ->
      Obs.Report.reset_all ();
      Obs.Metrics.set_enabled true;
      let ctr = Obs.Metrics.counter "test.merge.total" in
      let ns = [| a; b; c; d |] in
      let ds =
        List.init 4 (fun i ->
            Domain.spawn (fun () ->
                for _ = 1 to ns.(i) do
                  Obs.Metrics.incr ctr ~pid:i
                done))
      in
      List.iter Domain.join ds;
      Obs.Metrics.set_enabled false;
      Obs.Metrics.total ctr = a + b + c + d)

(* ---------------- JSON exports (lib/obs) ---------------- *)

module Json = Obs.Json

(* One event of every [Trace.ev] constructor, with a name that needs
   escaping: each exported line parses back to a flat object carrying
   exactly the emitted kind and fields. *)
let test_trace_lines_parse () =
  let odd = "a\"b\\c\nd" in
  let events : (Obs.Trace.ev * string * (string * Json.t) list) list =
    [
      (Acquire { scheme = odd }, "acquire", [ ("scheme", String odd) ]);
      (Confirm_retry { scheme = odd }, "confirm_retry", [ ("scheme", String odd) ]);
      (Retire { scheme = odd }, "retire", [ ("scheme", String odd) ]);
      (Eject { scheme = odd; batch = 7 }, "eject", [ ("scheme", String odd); ("batch", Int 7) ]);
      (Abandon { scheme = odd }, "abandon", [ ("scheme", String odd) ]);
      ( Watchdog { scheme = odd; verdict = odd },
        "watchdog",
        [ ("scheme", String odd); ("verdict", String odd) ] );
      (Fault { site = odd; action = "stall" }, "fault", [ ("site", String odd); ("action", String "stall") ]);
      ( Sample { t_ms = 5; ops_per_s = -1; live = 0; backlog = max_int },
        "sample",
        [ ("t_ms", Int 5); ("ops_per_s", Int (-1)); ("live", Int 0); ("backlog", Int max_int) ] );
    ]
  in
  Obs.Report.reset_all ();
  Obs.Trace.set_enabled true;
  let lines =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_enabled false)
      (fun () ->
        List.iteri (fun i (ev, _, _) -> Obs.Trace.emit ~pid:(i mod 3) ev) events;
        Obs.Trace.to_jsonl ())
  in
  Alcotest.(check int) "one line per event" (List.length events) (List.length lines);
  List.iteri
    (fun i ((_, kind, fields), line) ->
      let expected =
        Json.Obj (("seq", Int i) :: ("pid", Int (i mod 3)) :: ("ev", String kind) :: fields)
      in
      match Json.of_string line with
      | Ok got when got = expected -> ()
      | Ok _ -> Alcotest.failf "%s: line %s decodes to other fields" kind line
      | Error e -> Alcotest.failf "%s: line %s does not parse: %s" kind line e)
    (List.combine events lines)

(* [stats --json] is JSON, and its counters and gauges are the
   registry's. *)
let test_report_json_parses () =
  Obs.Report.reset_all ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      Obs.Metrics.add (Obs.Metrics.counter "test.json.ctr") ~pid:0 3;
      Obs.Metrics.set_gauge (Obs.Metrics.gauge "test.json.\"gauge\"") 9;
      Obs.Histo.observe (Obs.Histo.histo "test.json.histo") ~pid:0 100);
  let ints =
    List.map (function n, Json.Int v -> (n, v) | n, _ -> Alcotest.failf "%s: not an integer" n)
  in
  match Json.of_string (Obs.Report.json ()) with
  | Ok (Obj [ ("counters", Obj counters); ("gauges", Obj gauges); ("histograms", Obj _) ]) ->
      let dc, dg = Obs.Metrics.dump () in
      Alcotest.(check (list (pair string int))) "counters" dc (ints counters);
      Alcotest.(check (list (pair string int))) "gauges" dg (ints gauges)
  | Ok _ -> Alcotest.fail "Report.json: unexpected shape"
  | Error e -> Alcotest.failf "Report.json does not parse: %s" e

(* ---------------- telemetry on-off ---------------- *)

(* [R] whose [create] also keeps the runtime it made, so that the
   runtime a structure hides can still be read back. *)
module Kept (R : Cdrc.Intf.S) = struct
  include R

  let last : R.rt option ref = ref None

  let create ?support_weak ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
    let rt = R.create ?support_weak ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () in
    last := Some rt;
    rt
end

(* What one seeded stream leaves: every operation's result, the
   runtime's snapshot paths, heap and backlog after it, and the stream's
   [Sched.Atomic] counting window. *)
type footprint = {
  results : int array;
  snapshots : int * int;
  heap : int * int * int; (* live, peak, allocated *)
  backlog : int;
  atomics : Sched.Atomic.counts;
}

let stream_ops = 4_000

(* Telemetry off, metrics alone, and metrics with tracing. *)
type telemetry = Off | Metrics | Traced

(* Run [op i] over the stream with telemetry as [on] says: the results,
   the window's atomics and the minor words per operation. *)
let with_telemetry on op =
  Obs.Report.reset_all ();
  Obs.Metrics.set_enabled (on <> Off);
  Obs.Trace.set_enabled (on = Traced);
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Trace.set_enabled false;
      Obs.Report.reset_all ())
    (fun () ->
      let results = Array.make stream_ops 0 in
      Sched.Atomic.reset ();
      let w0 = Gc.minor_words () in
      Sched.Atomic.counting (fun () ->
          for i = 0 to stream_ops - 1 do
            results.(i) <- op i
          done);
      let words = (Gc.minor_words () -. w0) /. float_of_int stream_ops in
      let atomics = Sched.Atomic.snapshot () in
      Sched.Atomic.reset ();
      (results, atomics, words))

module On_off (R0 : Cdrc.Intf.S) = struct
  module R = Kept (R0)
  module T = Ds.Nm_tree_rc.Make (R)
  module Q = Ds.Dl_queue_rc.Make (R)
  module K = Workload.Kv_service.Make (R)

  let code b = if b then 1 else 0

  let footprint ~teardown on op =
    let rt = Option.get !R.last in
    let results, atomics, words = with_telemetry on op in
    let heap = R.heap rt in
    let fp =
      {
        results;
        snapshots = R.snapshot_stats rt;
        heap = (Simheap.live heap, Simheap.peak heap, Simheap.allocated heap);
        backlog = R.retired_backlog rt;
        atomics;
      }
    in
    teardown ();
    (fp, words)

  (* Inserts, removes, lookups and 16-key range queries over 256 keys. *)
  let tree on =
    let rng = Repro_util.Rng.create ~seed:37 in
    let t = T.create ~max_threads:1 () in
    let c = T.ctx t 0 in
    for k = 0 to 127 do
      ignore (T.insert c (2 * k))
    done;
    footprint on
      ~teardown:(fun () -> T.teardown t)
      (fun i ->
        let k = Repro_util.Rng.int rng 256 in
        if i land 255 = 255 then T.flush c;
        match Repro_util.Rng.int rng 10 with
        | 0 | 1 -> code (T.insert c k)
        | 2 | 3 -> code (T.remove c k)
        | 4 -> T.range_query c k (k + 16)
        | _ -> code (T.contains c k))

  (* Enqueues and dequeues, one in three a dequeue, on a prefilled queue. *)
  let queue on =
    let rng = Repro_util.Rng.create ~seed:37 in
    let q = Q.create ~max_threads:1 () in
    let c = Q.ctx q 0 in
    for v = 1 to 64 do
      Q.enqueue c v
    done;
    footprint on
      ~teardown:(fun () -> Q.teardown q)
      (fun i ->
        if i land 255 = 255 then Q.flush c;
        if Repro_util.Rng.int rng 3 = 0 then Option.value ~default:(-1) (Q.dequeue c)
        else begin
          Q.enqueue c i;
          0
        end)

  (* Gets, puts (some with a TTL) and removes over 128 keys, the clock
     ticking every 16 operations and an expiry sweep every 512. *)
  let kv on =
    let rng = Repro_util.Rng.create ~seed:37 in
    let t = K.create ~shards:4 ~buckets:16 ~max_threads:1 () in
    let c = K.ctx t 0 in
    for k = 0 to 63 do
      ignore (K.put c ~now:0 k k)
    done;
    footprint on
      ~teardown:(fun () -> K.teardown t)
      (fun i ->
        if i land 15 = 15 then ignore (K.tick t);
        let now = K.now t in
        if i land 511 = 511 then K.expire_sweep c ~now
        else
          let k = Repro_util.Rng.int rng 128 in
          match Repro_util.Rng.int rng 10 with
          | 0 | 1 | 2 | 3 | 4 -> Option.value ~default:(-1) (K.get c ~now k)
          | 5 | 6 | 7 ->
              let ttl = if Repro_util.Rng.bool rng then Some 8 else None in
              code (K.put c ~now ?ttl k i)
          | _ -> code (K.remove c ~now k))

  (* Metrics and tracing move no result, and metrics alone allocate
     nothing: a traced eject records its batch in an event of its own,
     so only tracing may add minor words. *)
  let check what run () =
    let off, words_off = run Off in
    let what = R.scheme_name ^ " " ^ what in
    let same mode (on, _) =
      let what = what ^ " (" ^ mode ^ ")" in
      Alcotest.(check (array int)) (what ^ ": results") off.results on.results;
      Alcotest.(check (pair int int)) (what ^ ": snapshot_stats") off.snapshots on.snapshots;
      Alcotest.(check (triple int int int)) (what ^ ": heap live, peak, allocated") off.heap on.heap;
      Alcotest.(check int) (what ^ ": retired_backlog") off.backlog on.backlog;
      let a (c : Sched.Atomic.counts) =
        [ c.gets; c.sets; c.exchanges; c.cas; c.cas_failures; c.faa ]
      in
      Alcotest.(check (list int)) (what ^ ": atomics") (a off.atomics) (a on.atomics)
    in
    let metrics = run Metrics and traced = run Traced in
    same "metrics" metrics;
    same "traced" traced;
    let words_metrics = snd metrics and words_traced = snd traced in
    Printf.printf "%s: minor words/op %.1f off, %.1f metrics, %.1f traced\n" what words_off
      words_metrics words_traced;
    if Float.abs (words_metrics -. words_off) > 0.1 then
      Alcotest.failf "%s: metrics move minor words/op from %.2f to %.2f" what words_off
        words_metrics

  let cases =
    [
      Alcotest.test_case (R.scheme_name ^ " tree") `Quick (check "tree" tree);
      Alcotest.test_case (R.scheme_name ^ " weak queue") `Quick (check "weak queue" queue);
      Alcotest.test_case (R.scheme_name ^ " kv") `Quick (check "kv" kv);
    ]
end

module On_off_ebr = On_off (R_ebr)
module On_off_hp = On_off (R_hp)

(* A decrement a destroy hook retires moves with reclamation cadence; one
   an operation retires does not. Split by the cascade counter, the
   decrements that operations retire in one seeded weak-queue stream repeat
   at two flush cadences while the totals differ. *)
module Cascade (R : Cdrc.Intf.S) = struct
  module Q = Ds.Dl_queue_rc.Make (R)

  let counter suffix = "cdrc." ^ String.lowercase_ascii R.scheme_name ^ ".decrement.deferred" ^ suffix

  let run ~flush_every =
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.set_enabled false;
        Obs.Metrics.reset ())
      (fun () ->
        let rng = Repro_util.Rng.create ~seed:37 in
        let q = Q.create ~max_threads:1 () in
        let c = Q.ctx q 0 in
        for i = 1 to 4_000 do
          if i mod flush_every = 0 then Q.flush c;
          if Repro_util.Rng.int rng 3 = 0 then ignore (Q.dequeue c) else Q.enqueue c i
        done;
        let total = Obs.Metrics.value (counter "") and cascade = Obs.Metrics.value (counter ".cascade") in
        Q.teardown q;
        (total, cascade))

  let test () =
    let total_a, cascade_a = run ~flush_every:16 and total_b, cascade_b = run ~flush_every:1024 in
    Printf.printf "%s: decrements (cascades) %d (%d) flushing every 16, %d (%d) every 1024\n"
      R.scheme_name total_a cascade_a total_b cascade_b;
    Alcotest.(check bool) (R.scheme_name ^ ": cadence moves the cascades") true (cascade_a <> cascade_b);
    Alcotest.(check bool) (R.scheme_name ^ ": operations retire decrements") true (total_a > cascade_a);
    Alcotest.(check int)
      (R.scheme_name ^ ": decrements operations retire")
      (total_a - cascade_a) (total_b - cascade_b)
end

module Cascade_ebr = Cascade (R_ebr)
module Cascade_hp = Cascade (R_hp)

let () =
  Alcotest.run "instrumentation"
    [
      ( "ident",
        [
          Alcotest.test_case "identity" `Quick test_ident_identity;
          Alcotest.test_case "stable across GC" `Quick test_ident_stable_across_gc;
        ] );
      ("deferred", [ Alcotest.test_case "run" `Quick test_deferred_run ]);
      ( "snapshot stats",
        [
          Alcotest.test_case "fast path counting" `Quick test_fast_path_counting;
          Alcotest.test_case "slow path on exhaustion" `Quick test_slow_path_counting_on_exhaustion;
          Alcotest.test_case "weak fallback on exhaustion" `Quick
            test_weak_snapshot_fallback_on_exhaustion;
          Alcotest.test_case "Set_intf stats" `Quick test_set_intf_snapshot_stats;
        ] );
      ( "telemetry counters",
        [
          Alcotest.test_case "scripted HP sequence" `Quick test_hp_scripted_counters;
          Alcotest.test_case "accounting identity, all schemes" `Quick
            test_accounting_identity;
          QCheck_alcotest.to_alcotest counter_merge_prop;
        ] );
      ("telemetry on-off", On_off_ebr.cases @ On_off_hp.cases);
      ( "decrement cascades",
        [
          Alcotest.test_case "RCEBR" `Quick Cascade_ebr.test;
          Alcotest.test_case "RCHP" `Quick Cascade_hp.test;
        ] );
      ( "json exports",
        [
          Alcotest.test_case "every trace event parses" `Quick test_trace_lines_parse;
          Alcotest.test_case "Report.json matches the registry" `Quick
            test_report_json_parses;
        ] );
    ]
