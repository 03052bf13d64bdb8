(** Deterministic chaos-campaign driver for the sharded KV service
    (DESIGN.md §13): executes a {!Fault.Chaos} schedule against a live
    {!Kv_service} through the full resilience stack — per-request
    deadlines, bounded {!Repro_util.Backoff} retries, per-shard
    {!Breaker}s — and checks the invariant oracles.

    Everything is logical and single-threaded: requests are steps,
    latency is accumulated cost units (1 per healthy call, inflated by
    the victim's [Slow] factor, a full per-try budget for a stalled
    member), the clock ticks every few steps, and every random draw
    comes from seeded streams. The same [spec] therefore produces a
    bit-identical run — outcome for outcome, transition for transition
    — which the [c_digest] fingerprint asserts cheaply.

    Shard [s] is served by a pool of {!Fault.Chaos.members} pids
    (member 0 the campaign victim); requests round-robin the pool and
    fail over on retry. Pid 0 is the unfaulted client: prefill, TTL
    sweeps, breaker ticks and recovery drains run there. When a shard's
    breaker trips, the driver runs the recovery drill: abandon the
    shard's crashed/stalled members ({!Kv_intf.S.abandon_shard}),
    replace them with fresh-generation pids, heal gray ones, then
    drain asynchronously — one {!Kv_intf.S.drain_shard} pass per tick —
    until the backlog re-enters the bound; the elapsed steps are the
    recovery latency recorded in the [kv.recovery.steps] histogram and
    gated by the recovery SLO oracle. *)

type spec = {
  ch_seed : int;
  ch_kind : Fault.Chaos.kind;
  ch_shards : int;
  ch_victims : int;
  ch_steps : int;
  ch_keys : int;
  ch_write_pct : int;  (** % of requests that are writes (puts + removes) *)
  ch_breaker : bool;
  ch_deadline : int;  (** per-request latency budget, in cost units *)
  ch_retries : int;  (** extra attempts after the first *)
  ch_backlog_bound : int;  (** breaker trip point and end-of-run bound *)
  ch_recovery_slo : int;  (** max steps from trip to bounded backlog *)
  ch_validate : bool;  (** check accounting identities (with crash slack) *)
}

let default_spec =
  {
    ch_seed = 42;
    ch_kind = Fault.Chaos.Mixed;
    ch_shards = 4;
    ch_victims = 4;
    ch_steps = 4000;
    ch_keys = 1024;
    ch_write_pct = 40;
    ch_breaker = true;
    ch_deadline = 24;
    ch_retries = 2;
    ch_backlog_bound = 256;
    ch_recovery_slo = 200;
    ch_validate = true;
  }

(* The campaign wraps each of [Instances.named_schemes] in Faulty_smr;
   the KV service is instantiated per run so the fault plan is fresh. *)
let find_schemes names =
  Instances.select
    ~find:(Instances.find_named fst Instances.named_schemes)
    Instances.named_schemes names

(* Schemes whose garbage stays bounded under a stalled thread (the
   paper's robustness column); EBR/Hyaline pin everything behind a
   frozen frontier and None defers forever by construction. *)
let scheme_is_robust name = List.mem name [ "IBR"; "HP"; "HE"; "PTB" ]

type run = {
  c_scheme : string;
  c_kind : Fault.Chaos.kind;
  c_seed : int;
  c_breaker : bool;
  c_steps : int;
  c_ok_first : int;
  c_retried_ok : int;
  c_retries : int;
  c_timed_out : int;
  c_shed : int;
  c_failed : int;
  c_aborted : int;  (** requests killed mid-flight by a Crash *)
  c_trips : int;
  c_drills : int;
  c_recoveries : int list;  (** steps-to-bounded-backlog, one per drill *)
  c_peak_backlog : int;  (** worst single-shard backlog seen *)
  c_end_backlog : int;  (** worst single-shard backlog at campaign end *)
  c_leaked : int;
  c_digest : int;
  c_oracles : Fault.Chaos.oracle list;
  c_ok : bool;
}

let pp_run ppf r =
  Format.fprintf ppf
    "%-8s %-13s seed=%-6d breaker=%-5b ok=%d+%dr shed=%d timeout=%d failed=%d \
     aborted=%d trips=%d drills=%d peak=%d end=%d leaked=%d digest=%x %s"
    r.c_scheme
    (Fault.Chaos.kind_name r.c_kind)
    r.c_seed r.c_breaker r.c_ok_first r.c_retried_ok r.c_shed r.c_timed_out r.c_failed
    r.c_aborted r.c_trips r.c_drills r.c_peak_backlog r.c_end_backlog r.c_leaked
    r.c_digest
    (if r.c_ok then "PASS" else "FAIL")

let recovery_h = Obs.Histo.histo "kv.recovery.steps"
let retry_c = Obs.Metrics.counter "kv.retry"
let shed_c = Obs.Metrics.counter "kv.shed"
let timeout_c = Obs.Metrics.counter "kv.timeout"
let retried_ok_c = Obs.Metrics.counter "kv.retried_ok"

let breaker_config spec =
  {
    Breaker.trip_failures = 6;
    backlog_trip = spec.ch_backlog_bound;
    shed_writes_at = max 2 (spec.ch_backlog_bound / 2);
    shed_writes_clear = max 1 (spec.ch_backlog_bound / 8);
    p99_trip = max 2 (spec.ch_deadline / 6);
    open_ticks = 4;
    probe_quota = 4;
    close_after = 2;
  }

let run_campaign ?(spec = default_spec)
    ((sname, (module S : Smr.Smr_intf.S)) : string * (module Smr.Smr_intf.S)) : run =
  let cspec =
    {
      Fault.Chaos.seed = spec.ch_seed;
      kind = spec.ch_kind;
      shards = spec.ch_shards;
      victims = spec.ch_victims;
    }
  in
  let plan = Fault.Fault_plan.create (Fault.Chaos.rules cspec) in
  let module FS =
    Fault.Faulty_smr.Make
      (S)
      (struct
        let plan = plan
      end)
  in
  let module R = Cdrc.Make (FS) in
  let module K = Kv_service.Make (R) in
  let members = Fault.Chaos.members in
  let max_restarts = 2 in
  let first_spare = Fault.Chaos.first_spare_pid ~shards:spec.ch_shards in
  let max_threads = first_spare + (spec.ch_shards * members * max_restarts) in
  let t = K.create ~shards:spec.ch_shards ~buckets:64 ~epoch_freq:1 ~max_threads () in
  if K.shard_count t <> spec.ch_shards then
    invalid_arg "Chaos_runner: shards must be a power of two";
  let nshards = spec.ch_shards in
  let metrics_were = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  (* Lazy per-pid contexts: restarts mint fresh generations. *)
  let ctxs = Array.make max_threads None in
  let ctx_of pid =
    match ctxs.(pid) with
    | Some c -> c
    | None ->
        let c = K.ctx t pid in
        ctxs.(pid) <- Some c;
        c
  in
  let c0 = ctx_of 0 in
  (* Prefill so reads hit and puts overwrite (overwrites are what
     retire boxes into a pinned shard). *)
  Table.kv_prefill (module K) c0 ~keys:spec.ch_keys;
  let serving =
    Array.init nshards (fun s ->
        Array.init members (fun m -> Fault.Chaos.pid_of ~shard:s ~member:m))
  in
  let rr = Array.make nshards 0 in
  let next_spare = ref first_spare in
  let bcfg = breaker_config spec in
  let breakers = Array.init nshards (fun s -> Breaker.create ~config:bcfg ~shard:s) in
  (* Per-shard recovery state: Some (trip_step) while draining. *)
  let recovering = Array.make nshards None in
  let recoveries = ref [] in
  let slo_misses = ref 0 in
  (* Per-shard sliding window of request latencies for the p99 signal. *)
  let win_len = 32 in
  let lat_win = Array.init nshards (fun _ -> Array.make win_len 1) in
  let lat_n = Array.make nshards 0 in
  let observe_lat shard cost =
    lat_win.(shard).(lat_n.(shard) mod win_len) <- cost;
    lat_n.(shard) <- lat_n.(shard) + 1
  in
  let window_p99 shard =
    if lat_n.(shard) = 0 then None
    else begin
      let n = min lat_n.(shard) win_len in
      let a = Array.sub lat_win.(shard) 0 n in
      Array.sort compare a;
      Some a.(max 0 (n - 1 - (n / 100)))
    end
  in
  let kg =
    Keygen.create ~seed:(spec.ch_seed lxor 0xbeef) ~range:spec.ch_keys Keygen.Uniform
  in
  let rng = Repro_util.Rng.create ~seed:(spec.ch_seed lxor 0x51ab) in
  let bo_rng = Repro_util.Rng.create ~seed:(spec.ch_seed lxor 0x0b0f) in
  let digest = ref 17 in
  let mix_digest v = digest := ((!digest * 1000003) + v) land max_int in
  let ok_first = ref 0
  and retried_ok = ref 0
  and nretries = ref 0
  and timed_out = ref 0
  and shed = ref 0
  and failed = ref 0
  and aborted = ref 0
  and trips = ref 0
  and drills = ref 0 in
  let peak_backlog = ref 0 in
  let uaf = ref None in
  let per_try = max 1 (spec.ch_deadline / (spec.ch_retries + 1)) in
  (* One attempt against [pid]. Returns the try's cost and verdict. *)
  let attempt_op ~pid ~key ~opc ~step =
    if Fault.Fault_plan.crashed plan ~pid then (1, false)
    else if Fault.Fault_plan.stalled plan ~pid then (per_try, false)
    else
      let c = ctx_of pid in
      let now = K.now t in
      let cost = 1 + Fault.Fault_plan.slow_factor plan ~pid in
      try
        (match opc with
        | 0 -> ignore (K.get c ~now key)
        | 1 ->
            let ttl = if Repro_util.Rng.int rng 100 < 20 then Some 32 else None in
            ignore (K.put c ~now ?ttl key step)
        | _ -> ignore (K.remove c ~now key));
        if cost > per_try then (per_try, false) (* executed, but the try timed out *)
        else (cost, true)
      with Fault.Fault_plan.Crashed _ ->
        incr aborted;
        (1, false)
  in
  (* The recovery drill: reap/replace/heal the shard's faulted members.
     Draining then proceeds one pass per tick until the backlog is back
     under the bound (the measured recovery latency). *)
  let drill shard ~step =
    incr drills;
    Array.iteri
      (fun m pid ->
        if Fault.Fault_plan.crashed plan ~pid || Fault.Fault_plan.stalled plan ~pid
        then begin
          K.abandon_shard t ~shard ~pid;
          if !next_spare < max_threads then begin
            serving.(shard).(m) <- !next_spare;
            incr next_spare
          end
        end
        else if Fault.Fault_plan.slow_factor plan ~pid > 0 then
          Fault.Fault_plan.heal plan ~pid)
      serving.(shard);
    (* The repaired shard gets a fresh latency signal: stale pre-drill
       samples in the window would re-trip the breaker on a healthy
       pool. *)
    lat_n.(shard) <- 0;
    if recovering.(shard) = None then recovering.(shard) <- Some step
  in
  let finish_recovery shard ~step =
    match recovering.(shard) with
    | None -> ()
    | Some t0 ->
        K.drain_shard c0 ~shard;
        if K.shard_backlog t ~shard <= spec.ch_backlog_bound then begin
          let took = step - t0 in
          recovering.(shard) <- None;
          recoveries := took :: !recoveries;
          Obs.Histo.observe recovery_h ~pid:0 took;
          if took > spec.ch_recovery_slo then incr slo_misses
        end
        else if step - t0 > spec.ch_recovery_slo then begin
          (* Give up the SLO but keep draining; record the miss once. *)
          recovering.(shard) <- None;
          recoveries := (step - t0) :: !recoveries;
          Obs.Histo.observe recovery_h ~pid:0 (step - t0);
          incr slo_misses
        end
  in
  (try
     for step = 1 to spec.ch_steps do
       let key = Keygen.next kg in
       let r = Repro_util.Rng.int rng 100 in
       let opc =
         if r >= spec.ch_write_pct then 0
         else if r < spec.ch_write_pct * 3 / 4 then 1
         else 2
       in
       let kind = if opc = 0 then Breaker.Read else Breaker.Write in
       let shard = K.shard_of_key t key in
       let decision =
         if spec.ch_breaker then Breaker.admit_req breakers.(shard) ~pid:0 kind
         else Breaker.Admit
       in
       (match decision with
       | Breaker.Shed | Breaker.Shed_write ->
           incr shed;
           Obs.Metrics.incr shed_c ~pid:0;
           mix_digest 3
       | Breaker.Admit | Breaker.Admit_probe ->
           let b = Repro_util.Backoff.create ~min:1 ~max:8 ~rng:bo_rng () in
           let total = ref 0 in
           let saw_timeout = ref false in
           let rec go n =
             if n > spec.ch_retries || !total >= spec.ch_deadline then `Exhausted
             else begin
               if n > 0 then begin
                 incr nretries;
                 Obs.Metrics.incr retry_c ~pid:0;
                 total := !total + Repro_util.Backoff.current b;
                 Repro_util.Backoff.once b
               end;
               let m = rr.(shard) in
               rr.(shard) <- (m + 1) mod members;
               let pid = serving.(shard).(m) in
               let cost, ok = attempt_op ~pid ~key ~opc ~step in
               total := !total + cost;
               if cost >= per_try && not ok then saw_timeout := true;
               if spec.ch_breaker then
                 ignore (Breaker.report_req breakers.(shard) ~pid:0 ~ok);
               if ok && !total <= spec.ch_deadline then `Ok n
               else if ok then begin
                 saw_timeout := true;
                 `Exhausted (* late success: deadline already blown *)
               end
               else go (n + 1)
             end
           in
           let code =
             match go 0 with
             | `Ok 0 ->
                 incr ok_first;
                 0
             | `Ok _ ->
                 incr retried_ok;
                 Obs.Metrics.incr retried_ok_c ~pid:0;
                 1
             | `Exhausted ->
                 if !saw_timeout then begin
                   incr timed_out;
                   Obs.Metrics.incr timeout_c ~pid:0;
                   2
                 end
                 else begin
                   incr failed;
                   4
                 end
           in
           observe_lat shard (min !total spec.ch_deadline);
           mix_digest ((!total * 8) + code));
       mix_digest ((shard * 4) + opc);
       (* Clock, sweeps, breaker ticks and recovery drains. *)
       if step mod 8 = 0 then begin
         let now = K.tick t in
         if now mod 4 = 0 then ignore (K.expire_sweep c0 ~now);
         for s = 0 to nshards - 1 do
           let backlog = K.shard_backlog t ~shard:s in
           peak_backlog := max !peak_backlog backlog;
           if spec.ch_breaker then begin
             (match
                Breaker.on_tick breakers.(s) ~pid:0 ~backlog ~p99:(window_p99 s)
              with
             | Some (Breaker.To_open cause) ->
                 incr trips;
                 mix_digest (100 + s);
                 ignore cause;
                 drill s ~step
             | Some Breaker.To_half_open -> mix_digest (200 + s)
             | Some Breaker.To_closed -> mix_digest (300 + s)
             | None -> ());
             finish_recovery s ~step
           end
         done
       end
     done
   with (Simheap.Use_after_free _ | Simheap.Double_free _) as e ->
     uaf := Some (Printexc.to_string e));
  (* Campaign over: measure the end state before reaping anyone — the
     recovery oracle judges what the resilience layer achieved, not
     what teardown can mop up. *)
  let end_backlog = ref 0 in
  for s = 0 to nshards - 1 do
    end_backlog := max !end_backlog (K.shard_backlog t ~shard:s)
  done;
  (* Finalize: reap every faulted serving pid so leak accounting tests
     the scheme, then validate and tear down. *)
  for s = 0 to nshards - 1 do
    Array.iter
      (fun pid ->
        if Fault.Fault_plan.crashed plan ~pid || Fault.Fault_plan.stalled plan ~pid
        then K.abandon_shard t ~shard:s ~pid)
      serving.(s);
    K.drain_shard c0 ~shard:s
  done;
  let now = K.now t in
  let accounting_ok, accounting_detail =
    if not spec.ch_validate then (true, "skipped")
    else begin
      ignore (K.expire_sweep c0 ~now);
      let node, box = Kv_intf.identity_deltas (K.counters t) ~size:(K.size t ~now) in
      let node_delta = abs node and box_delta = abs box in
      ( node_delta <= !aborted && box_delta <= !aborted,
        Printf.sprintf "node_delta=%d box_delta=%d <= aborted=%d" node_delta box_delta
          !aborted )
    end
  in
  K.teardown t;
  let leaked = K.live_objects t in
  Obs.Metrics.set_enabled metrics_were;
  let garbage_bound = 8 * spec.ch_backlog_bound in
  let oracles =
    [
      Fault.Chaos.oracle ~name:"uaf-free"
        ~ok:(!uaf = None)
        (match !uaf with None -> "no UAF / double-free" | Some e -> e);
      (* Each crash (= one caught abort) strands a bounded handful of
         blocks, like a dying thread in any RC system: its in-flight
         allocation (a value box made but never published), plus — when
         the crash lands inside a deferred destructor cascade — the
         unfinished suffix of that destructor. A node destructor that
         cleared [slot] but died before clearing [next] pins the next
         chain node, transitively pinning that chain's remaining suffix,
         so the per-crash allowance is a chain length, not 1. A genuine
         reclamation leak scales with retire traffic (hundreds+) and a
         crash-free campaign must leak nothing, so the slack stays
         discriminating. *)
      (let allowance = 16 * !aborted in
       Fault.Chaos.oracle ~name:"leak-free"
         ~ok:(leaked <= allowance)
         (Printf.sprintf "%d blocks leaked after teardown <= %d (16 per crash)" leaked
            allowance));
      Fault.Chaos.oracle ~name:"accounting" ~ok:accounting_ok accounting_detail;
    ]
    @ (if scheme_is_robust sname then
         [
           Fault.Chaos.oracle ~name:"bounded-garbage"
             ~ok:(!peak_backlog <= garbage_bound)
             (Printf.sprintf "peak shard backlog %d <= %d" !peak_backlog garbage_bound);
         ]
       else [])
    @
    if sname = "None" then []
    else
      [
        Fault.Chaos.oracle ~name:"recovery-slo"
          ~ok:(!slo_misses = 0 && !end_backlog <= spec.ch_backlog_bound)
          (Printf.sprintf "slo_misses=%d end backlog %d <= %d (%d drills)" !slo_misses
             !end_backlog spec.ch_backlog_bound !drills);
      ]
  in
  {
    c_scheme = sname;
    c_kind = spec.ch_kind;
    c_seed = spec.ch_seed;
    c_breaker = spec.ch_breaker;
    c_steps = spec.ch_steps;
    c_ok_first = !ok_first;
    c_retried_ok = !retried_ok;
    c_retries = !nretries;
    c_timed_out = !timed_out;
    c_shed = !shed;
    c_failed = !failed;
    c_aborted = !aborted;
    c_trips = !trips;
    c_drills = !drills;
    c_recoveries = List.rev !recoveries;
    c_peak_backlog = !peak_backlog;
    c_end_backlog = !end_backlog;
    c_leaked = leaked;
    c_digest = !digest;
    c_oracles = oracles;
    c_ok = List.for_all (fun o -> o.Fault.Chaos.o_ok) oracles;
  }

(* Run a campaign over each scheme; [ok] iff every oracle on every
   scheme holds. Prints the replayable schedule first so any failure
   names its exact reproduction. *)
let run_all ?(spec = default_spec) ?(schemes = Instances.named_schemes) () =
  let cspec =
    {
      Fault.Chaos.seed = spec.ch_seed;
      kind = spec.ch_kind;
      shards = spec.ch_shards;
      victims = spec.ch_victims;
    }
  in
  List.iter (fun l -> Format.printf "%s@." l) (Fault.Chaos.describe cspec);
  Format.printf "steps=%d keys=%d writes=%d%% breaker=%b deadline=%d retries=%d \
                 bound=%d slo=%d@.@."
    spec.ch_steps spec.ch_keys spec.ch_write_pct spec.ch_breaker spec.ch_deadline
    spec.ch_retries spec.ch_backlog_bound spec.ch_recovery_slo;
  let runs = List.map (fun inst -> run_campaign ~spec inst) schemes in
  List.iter
    (fun r ->
      Format.printf "%a@." pp_run r;
      List.iter
        (fun o ->
          if not o.Fault.Chaos.o_ok then
            Format.printf "    %a@." Fault.Chaos.pp_oracle o)
        r.c_oracles)
    runs;
  let ok = List.for_all (fun r -> r.c_ok) runs in
  if not ok then
    Format.printf
      "@.FAIL — replay with: cdrc-bench chaos --campaign %s --seed %d --shards %d \
       --victims %d%s@."
      (Fault.Chaos.kind_name spec.ch_kind)
      spec.ch_seed spec.ch_shards spec.ch_victims
      (if spec.ch_breaker then "" else " --breaker off");
  (ok, runs)
