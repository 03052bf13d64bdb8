(* The sharded KV serving workload (DESIGN.md §12).

   Three layers: (1) deterministic + qcheck distribution tests of the
   key generators (same seed → bit-identical streams, pinned goldens,
   Zipfian rank-frequency monotonicity, hotspot-shift moves the modal
   key); (2) shard-core internal consistency across all 7 RC schemes
   (get-after-put, expired keys never served, the node and box
   retirement identities, leak-free teardown); (3) linearizability of
   single-shard get/put/remove/TTL histories — recorded under real
   domains and explored exhaustively at the shard core's [Sched.yield]
   points (DFS ≤2 preemptions). *)

module Q = QCheck2

let to_alcotest = QCheck_alcotest.to_alcotest

(* ================================================================= *)
(* Key generators: determinism, distribution shape, goldens           *)

module Kg = Workload.Keygen

let spec_gen =
  Q.Gen.(
    oneof
      [
        return Kg.Uniform;
        (let* t = int_range 5 95 in
         return (Kg.Zipfian { theta = float_of_int t /. 100. }));
        (let* hot_keys = int_range 1 64 in
         let* hot_pct = int_range 0 100 in
         let* shift_every = int_range 1 500 in
         return (Kg.Hotspot { hot_keys; hot_pct; shift_every }));
      ])

let draws g n = List.init n (fun _ -> Kg.next g)

let prop_deterministic =
  Q.Test.make ~name:"keygen: same (spec,seed,range) → bit-identical stream" ~count:100
    Q.Gen.(triple spec_gen (int_range 0 10_000) (int_range 1 4096))
    (fun (spec, seed, range) ->
      let a = Kg.create ~seed ~range spec in
      let b = Kg.create ~seed ~range spec in
      draws a 128 = draws b 128)

let prop_in_range =
  Q.Test.make ~name:"keygen: every draw in [0, range)" ~count:100
    Q.Gen.(triple spec_gen (int_range 0 10_000) (int_range 1 4096))
    (fun (spec, seed, range) ->
      let g = Kg.create ~seed ~range spec in
      List.for_all (fun k -> k >= 0 && k < range) (draws g 256))

let prop_spec_roundtrip =
  (* Thetas are generated on a 2-decimal grid, matching the %.2f the
     printer uses, so the float comparison is exact. *)
  Q.Test.make ~name:"keygen: spec_of_string ∘ spec_to_string = Ok" ~count:200 spec_gen
    (fun spec -> Kg.spec_of_string (Kg.spec_to_string spec) = Ok spec)

let prop_hotspot_concentration =
  (* 90% of draws land in the 32-key hot window; 850/1000 is ~5σ below
     the binomial mean, so this never flakes across seeds. *)
  Q.Test.make ~name:"keygen: hotspot concentrates draws in the hot window" ~count:50
    Q.Gen.(int_range 0 100_000)
    (fun seed ->
      let g =
        Kg.create ~seed ~range:4096
          (Kg.Hotspot { hot_keys = 32; hot_pct = 90; shift_every = 1_000_000 })
      in
      let base = Kg.hot_base g in
      let in_hot k = (k - base + 4096) mod 4096 < 32 in
      List.length (List.filter in_hot (draws g 1000)) >= 850)

let rejects_bad_specs () =
  let bad s =
    match Kg.spec_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  List.iter bad [ "zipf:1.5"; "zipf:0"; "hotspot:0:50:10"; "hotspot:8:101:10"; "bogus"; "" ]

let zipf_rank_frequency_monotone () =
  (* Pinned-seed distribution check: rank-frequency of the YCSB
     inverse CDF must decrease through the head and the tail must be
     thin. Counts at seed 42 / range 1024 / 20k draws are exact. *)
  let g = Kg.create ~seed:42 ~range:1024 (Kg.Zipfian { theta = 0.99 }) in
  let freq = Array.make 1024 0 in
  for _ = 1 to 20_000 do
    let r = Kg.zipf_rank g in
    freq.(r) <- freq.(r) + 1
  done;
  let chain = [ 0; 1; 2; 4; 8; 32; 128 ] in
  ignore
    (List.fold_left
       (fun prev r ->
         Alcotest.(check bool)
           (Printf.sprintf "freq(rank %d) decreases" r)
           true
           (freq.(r) < prev);
         freq.(r))
       max_int chain);
  Alcotest.(check bool) "head is heavy" true (freq.(0) >= 2000);
  Alcotest.(check bool) "tail is thin" true (freq.(128) <= 120)

(* The determinism contract, pinned: these exact sequences are part of
   the workload's reproducibility surface — a change here silently
   invalidates every recorded benchmark. *)
let golden_sequences () =
  let first8 spec = draws (Kg.create ~seed:42 ~range:1024 spec) 8 in
  Alcotest.(check (list int))
    "uniform seed 42"
    [ 453; 671; 616; 40; 921; 142; 876; 33 ]
    (first8 Kg.Uniform);
  Alcotest.(check (list int))
    "zipf 0.99 seed 42"
    [ 0; 232; 50; 721; 762; 839; 693; 866 ]
    (first8 (Kg.Zipfian { theta = 0.99 }));
  Alcotest.(check (list int))
    "hotspot 16/90/100 seed 42"
    [ 224; 217; 223; 210; 224; 218; 209; 223 ]
    (first8 (Kg.Hotspot { hot_keys = 16; hot_pct = 90; shift_every = 100 }))

let hotspot_shift_schedule () =
  let g =
    Kg.create ~seed:42 ~range:1024 (Kg.Hotspot { hot_keys = 16; hot_pct = 100; shift_every = 100 })
  in
  let base0 = Kg.hot_base g in
  Alcotest.(check int) "initial origin pinned" 209 base0;
  (* At pct 100 every pre-shift draw lands in the hot window. *)
  List.iter
    (fun k ->
      Alcotest.(check bool) "draw in hot window" true ((k - base0 + 1024) mod 1024 < 16))
    (draws g 100);
  Alcotest.(check int) "no shift within the phase" 0 (Kg.shifts g);
  ignore (Kg.next g);
  Alcotest.(check int) "draw 101 migrates" 1 (Kg.shifts g);
  Alcotest.(check int) "new origin pinned" 533 (Kg.hot_base g);
  Alcotest.(check bool) "origin moved" true (Kg.hot_base g <> base0)

let keygen_tests =
  [
    to_alcotest prop_deterministic;
    to_alcotest prop_in_range;
    to_alcotest prop_spec_roundtrip;
    to_alcotest prop_hotspot_concentration;
    Alcotest.test_case "rejects bad specs" `Quick rejects_bad_specs;
    Alcotest.test_case "zipf rank-frequency monotone" `Quick zipf_rank_frequency_monotone;
    Alcotest.test_case "golden sequences" `Quick golden_sequences;
    Alcotest.test_case "hotspot shift schedule" `Quick hotspot_shift_schedule;
  ]

(* ================================================================= *)
(* Shard core: per-scheme consistency                                 *)

let kv_schemes = Workload.Instances.kv_services

let basic_get_put_remove (name, (module K : Workload.Kv_intf.S)) () =
  let t = K.create ~shards:2 ~buckets:16 ~max_threads:1 () in
  let c = K.ctx t 0 in
  Alcotest.(check (option int)) (name ^ ": get on empty") None (K.get c ~now:0 5);
  Alcotest.(check bool) (name ^ ": fresh put") false (K.put c ~now:0 5 50);
  Alcotest.(check (option int)) (name ^ ": get after put") (Some 50) (K.get c ~now:0 5);
  Alcotest.(check bool) (name ^ ": overwrite") true (K.put c ~now:0 5 51);
  Alcotest.(check (option int)) (name ^ ": get after overwrite") (Some 51)
    (K.get c ~now:0 5);
  Alcotest.(check bool) (name ^ ": remove live") true (K.remove c ~now:0 5);
  Alcotest.(check (option int)) (name ^ ": get after remove") None (K.get c ~now:0 5);
  Alcotest.(check bool) (name ^ ": remove absent") false (K.remove c ~now:0 5);
  (* Reinsert after tombstone: the insert-before-tombstone path. *)
  Alcotest.(check bool) (name ^ ": reinsert") false (K.put c ~now:0 5 52);
  Alcotest.(check (option int)) (name ^ ": get after reinsert") (Some 52)
    (K.get c ~now:0 5);
  K.teardown t;
  Alcotest.(check int) (name ^ ": leak-free teardown") 0 (K.live_objects t)

let ttl_semantics (name, (module K : Workload.Kv_intf.S)) () =
  let t = K.create ~shards:1 ~buckets:8 ~max_threads:1 () in
  let c = K.ctx t 0 in
  ignore (K.put c ~now:0 ~ttl:10 1 100);
  Alcotest.(check (option int)) (name ^ ": before expiry") (Some 100) (K.get c ~now:9 1);
  (* Expired keys are never served; the failed get claims the expiry. *)
  Alcotest.(check (option int)) (name ^ ": at expiry") None (K.get c ~now:10 1);
  Alcotest.(check int) (name ^ ": expiry counted") 1 (K.counters t).Workload.Kv_intf.expiries;
  (* put over an expired (but unclaimed) entry is not an overwrite. *)
  ignore (K.put c ~now:0 ~ttl:5 2 200);
  Alcotest.(check bool) (name ^ ": put over expired") false (K.put c ~now:7 2 201);
  Alcotest.(check (option int)) (name ^ ": new value live") (Some 201) (K.get c ~now:8 2);
  Alcotest.(check int)
    (name ^ ": expired overwrite counted")
    1
    (K.counters t).Workload.Kv_intf.expired_overwrites;
  (* remove on an expired entry claims the expiry, returns false. *)
  ignore (K.put c ~now:20 ~ttl:1 3 300);
  Alcotest.(check bool) (name ^ ": remove expired") false (K.remove c ~now:30 3);
  Alcotest.(check int) (name ^ ": second expiry") 2 (K.counters t).Workload.Kv_intf.expiries;
  K.teardown t;
  Alcotest.(check int) (name ^ ": leak-free") 0 (K.live_objects t)

let expire_sweep_churn (name, (module K : Workload.Kv_intf.S)) () =
  let t = K.create ~shards:4 ~buckets:16 ~max_threads:1 () in
  let c = K.ctx t 0 in
  for k = 0 to 99 do
    ignore (K.put c ~now:0 ~ttl:(if k mod 2 = 0 then 5 else 1000) k k)
  done;
  Alcotest.(check int) (name ^ ": all live before") 100 (K.scan c ~now:4 0 1000);
  let claimed = K.expire_sweep c ~now:5 in
  Alcotest.(check int) (name ^ ": sweep claims evens") 50 claimed;
  Alcotest.(check int) (name ^ ": odds survive") 50 (K.scan c ~now:5 0 1000);
  Alcotest.(check int) (name ^ ": sweep idempotent") 0 (K.expire_sweep c ~now:5);
  K.teardown t;
  Alcotest.(check int) (name ^ ": leak-free") 0 (K.live_objects t)

(* The retirement-accounting identities (Kv_intf): after a sweep at
   quiescence, every node died by exactly one counted slot mark and
   every installed box was retired by exactly one counted event. *)
let accounting_identities (name, (module K : Workload.Kv_intf.S)) () =
  let t = K.create ~shards:2 ~buckets:32 ~max_threads:1 () in
  let c = K.ctx t 0 in
  let rng = Repro_util.Rng.create ~seed:814 in
  let now = ref 0 in
  for _ = 1 to 3000 do
    let k = Repro_util.Rng.int rng 64 in
    (match Repro_util.Rng.int rng 100 with
    | r when r < 50 ->
        let ttl = if Repro_util.Rng.bool rng then Some (Repro_util.Rng.int rng 20 + 1) else None in
        ignore (K.put c ~now:!now ?ttl k (Repro_util.Rng.int rng 1000))
    | r when r < 75 -> ignore (K.remove c ~now:!now k)
    | _ -> ignore (K.get c ~now:!now k));
    if Repro_util.Rng.int rng 10 = 0 then incr now
  done;
  ignore (K.expire_sweep c ~now:!now);
  Alcotest.(check (pair int int))
    (name ^ ": (node, box) identity deltas")
    (0, 0)
    (Workload.Kv_intf.identity_deltas (K.counters t) ~size:(K.size t ~now:!now));
  K.teardown t;
  Alcotest.(check int) (name ^ ": leak-free") 0 (K.live_objects t)

(* A store whose counters claim one fresh put too many: both deltas
   move, and the table's KV kernel reports the cell as invalid. *)
module Tampered = struct
  include Workload.Instances.Kv_ebr

  let counters t =
    let c = counters t in
    { c with Workload.Kv_intf.puts_new = c.Workload.Kv_intf.puts_new + 1 }
end

let tampered_counters_caught () =
  let honest = Workload.Instances.Kv_ebr.create ~max_threads:1 () in
  let c = Tampered.counters honest in
  Workload.Instances.Kv_ebr.teardown honest;
  Alcotest.(check (pair int int)) "deltas" (1, 1)
    (Workload.Kv_intf.identity_deltas c ~size:0);
  let row =
    match Workload.Table.kv_row ~keys:256 ~shards:[ 2 ] "read95" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let inst = Workload.Table.kv_kernel ~read_pct:95 ("tampered", (module Tampered)) in
  match Workload.Table.sweep ~threads:[ 1 ] ~duration:0.02 row [ inst ] with
  | [ o ] ->
      Alcotest.(check (list (pair string int))) "cell invalid" [ ("Invalid", 1) ] o.errors;
      Alcotest.(check int) "status 1" 1 (Workload.Harness.status [ (o.key, o.errors) ])
  | os -> Alcotest.failf "%d cells, expected 1" (List.length os)

let router_is_total_and_stable () =
  let module K = Workload.Instances.Kv_ebr in
  let t = K.create ~shards:5 (* rounds up to 8 *) ~buckets:8 ~max_threads:1 () in
  Alcotest.(check int) "shards round up to power of two" 8 (K.shard_count t);
  let hit = Array.make 8 0 in
  for k = 0 to 9999 do
    let s = K.shard_of_key t k in
    Alcotest.(check bool) "shard in range" true (s >= 0 && s < 8);
    Alcotest.(check int) "router is deterministic" s (K.shard_of_key t k);
    hit.(s) <- hit.(s) + 1
  done;
  Array.iteri
    (fun i n -> Alcotest.(check bool) (Printf.sprintf "shard %d populated" i) true (n > 500))
    hit;
  K.teardown t

let per_scheme mk = List.map (fun ((name, _) as inst) -> Alcotest.test_case name `Quick (mk inst)) kv_schemes

(* ================================================================= *)
(* Exploration: shard-core histories under the DFS scheduler.

   The KV core's linearization-relevant steps (chain traversal, slot
   CAS/mark, physical unlink) carry [Sched.yield] points, so under a
   controller each fiber's operation is interleaved mid-protocol. Every
   explored schedule records a history through [Lincheck.Recorder] and
   the scenario oracle demands a linearization against the sequential
   KV model — including the lazy-expiry rule (a get/remove that
   observes an expired entry claims it) — plus leak-free teardown. *)

type kv_op =
  | Put of { k : int; v : int; ttl : int option; now : int }
  | Get of { k : int; now : int }
  | Rem of { k : int; now : int }

type kv_res = B of bool | I of int option

let pp_kv_op ppf = function
  | Put { k; v; ttl; now } ->
      Format.fprintf ppf "put k=%d v=%d ttl=%s @%d" k v
        (match ttl with None -> "-" | Some d -> string_of_int d)
        now
  | Get { k; now } -> Format.fprintf ppf "get k=%d @%d" k now
  | Rem { k; now } -> Format.fprintf ppf "remove k=%d @%d" k now

let pp_kv_res ppf = function
  | B b -> Format.fprintf ppf "%b" b
  | I None -> Format.fprintf ppf "None"
  | I (Some v) -> Format.fprintf ppf "Some %d" v

(* Sequential model over a sorted assoc list (canonical states prune
   the Wing–Gong search). Expiry is modelled eagerly at the op that
   observes it, mirroring the implementation's lazy claim. *)
let kv_model st op =
  let drop k = List.remove_assoc k st in
  let put k ve st = List.sort compare ((k, ve) :: st) in
  match op with
  | Put { k; v; ttl; now } ->
      let exp = match ttl with None -> max_int | Some d -> now + d in
      let live = match List.assoc_opt k st with Some (_, e) -> e > now | None -> false in
      (put k (v, exp) (drop k), B live)
  | Get { k; now } -> (
      match List.assoc_opt k st with
      | Some (v, e) when e > now -> (st, I (Some v))
      | Some _ -> (drop k, I None)
      | None -> (st, I None))
  | Rem { k; now } -> (
      match List.assoc_opt k st with
      | Some (_, e) -> (drop k, B (e > now))
      | None -> (st, B false))

(* One explored subject: [prefill] at now=0, then one fiber per op
   list. [final_sizes] is the set of sizes every linearization ends
   with ([]: don't check). *)
let kv_scenario (module K : Workload.Kv_intf.S) ~prefill ~fibers:fiber_ops ~at ~final_sizes
    () =
  let t = K.create ~shards:1 ~buckets:1 ~max_threads:(List.length fiber_ops + 1) () in
  let c0 = K.ctx t 0 in
  List.iter (fun (k, v, ttl) -> ignore (K.put c0 ~now:0 ?ttl k v)) prefill;
  let init =
    List.sort compare
      (List.map
         (fun (k, v, ttl) -> (k, (v, match ttl with None -> max_int | Some d -> d)))
         prefill)
  in
  let rec_ = Lincheck.Recorder.create () in
  let fibers =
    Array.of_list
      (List.mapi
         (fun i ops ->
           let c = K.ctx t (i + 1) in
           fun () ->
             List.iter
               (fun op ->
                 match op with
                 | Put { k; v; ttl; now } ->
                     ignore
                       (Lincheck.Recorder.run rec_ ~thread:i op (fun () ->
                            B (K.put c ~now ?ttl k v)))
                 | Get { k; now } ->
                     ignore
                       (Lincheck.Recorder.run rec_ ~thread:i op (fun () -> I (K.get c ~now k)))
                 | Rem { k; now } ->
                     ignore
                       (Lincheck.Recorder.run rec_ ~thread:i op (fun () ->
                            B (K.remove c ~now k))))
               ops)
         fiber_ops)
  in
  let check () =
    let h = Lincheck.Recorder.history rec_ in
    (match
       Lincheck.check_or_explain ~model:kv_model ~equal_res:( = ) ~pp_op:pp_kv_op
         ~pp_res:pp_kv_res ~init h
     with
    | Ok () -> ()
    | Error msg -> failwith ("not linearizable: " ^ msg));
    (if final_sizes <> [] then
       let size = K.size t ~now:at in
       if not (List.mem size final_sizes) then
         failwith
           (Printf.sprintf "final size %d not in {%s}" size
              (String.concat "," (List.map string_of_int final_sizes))));
    K.teardown t;
    let leaked = K.live_objects t in
    if leaked <> 0 then failwith (Printf.sprintf "leaked %d blocks" leaked)
  in
  { Sched.fibers; check }

(* The scenario set: every two-fiber race the slot-mark protocol has
   to arbitrate. [at] is the logical time final sizes are read at. *)
let kv_races (module K : Workload.Kv_intf.S) =
  [
    ( "put/put same key",
      kv_scenario (module K) ~prefill:[]
        ~fibers:[ [ Put { k = 5; v = 1; ttl = None; now = 0 } ];
                  [ Put { k = 5; v = 2; ttl = None; now = 0 } ] ]
        ~at:0 ~final_sizes:[ 1 ] );
    ( "put/remove live key",
      kv_scenario (module K)
        ~prefill:[ (5, 10, None) ]
        ~fibers:[ [ Put { k = 5; v = 20; ttl = None; now = 1 } ];
                  [ Rem { k = 5; now = 1 } ] ]
        ~at:1 ~final_sizes:[ 0; 1 ] );
    ( "get/put expired key",
      kv_scenario (module K)
        ~prefill:[ (5, 10, Some 3) ]
        ~fibers:[ [ Get { k = 5; now = 5 } ];
                  [ Put { k = 5; v = 30; ttl = None; now = 5 } ] ]
        ~at:5 ~final_sizes:[ 1 ] );
    ( "remove/remove live key",
      kv_scenario (module K)
        ~prefill:[ (5, 10, None) ]
        ~fibers:[ [ Rem { k = 5; now = 1 } ]; [ Rem { k = 5; now = 1 } ] ]
        ~at:1 ~final_sizes:[ 0 ] );
    ( "insert past dying node",
      kv_scenario (module K)
        ~prefill:[ (3, 1, Some 2); (5, 2, None) ]
        ~fibers:[ [ Get { k = 3; now = 4 } ];
                  [ Put { k = 4; v = 9; ttl = None; now = 4 } ] ]
        ~at:4 ~final_sizes:[ 2 ] );
  ]

let explore_races (name, (module K : Workload.Kv_intf.S)) () =
  List.iter
    (fun (label, scenario) ->
      match Sched.explore_dfs ~max_preemptions:2 ~max_schedules:200_000 scenario with
      | Sched.Pass { schedules } ->
          if schedules < 2 then
            Alcotest.failf "%s/%s: only %d schedule(s) explored — no interleaving" name
              label schedules
      | Sched.Fail f -> Alcotest.failf "%s/%s: %s" name label f.Sched.f_message
      | Sched.Exhausted { schedules } ->
          Alcotest.failf "%s/%s: exhausted after %d schedules" name label schedules)
    (kv_races (module K))

(* ================================================================= *)

let () =
  Alcotest.run "kv"
    [
      ("keygen", keygen_tests);
      ("basic-ops", per_scheme basic_get_put_remove);
      ("ttl", per_scheme ttl_semantics);
      ("sweep", per_scheme expire_sweep_churn);
      ( "accounting",
        per_scheme accounting_identities
        @ [ Alcotest.test_case "tampered counters caught" `Quick tampered_counters_caught ] );
      ("router", [ Alcotest.test_case "total-stable-balanced" `Quick router_is_total_and_stable ]);
      ("explore", per_scheme explore_races);
    ]
