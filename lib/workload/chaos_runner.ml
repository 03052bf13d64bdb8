(** Deterministic chaos campaigns against the sharded KV service
    (DESIGN.md §13): a {!Fault.Chaos} schedule is the fault plan of a
    stepped {!Table} row, and one request through the resilience stack
    — per-request deadlines, bounded {!Repro_util.Backoff} retries,
    per-shard {!Breaker}s — is one step of its kernel.

    Everything is logical and single-threaded: requests are steps,
    latency is accumulated cost units (1 per healthy call, inflated by
    the victim's [Slow] factor, a full per-try budget for a stalled
    member), the clock ticks every few steps, and every random draw
    comes from seeded streams. The same [spec] therefore produces a
    bit-identical run — outcome for outcome, transition for transition
    — which the [digest] column fingerprints cheaply.

    Shard [s] is served by a pool of {!Fault.Chaos.members} pids
    (member 0 the campaign victim); requests round-robin the pool and
    fail over on retry. Pid 0 is the unfaulted client: prefill, TTL
    sweeps, breaker ticks and recovery drains run there. When a shard's
    breaker trips, the kernel runs the recovery drill: abandon the
    shard's crashed/stalled members ({!Kv_intf.S.abandon_shard}),
    replace them with fresh-generation pids, heal gray ones, then
    drain asynchronously — one {!Kv_intf.S.drain_shard} pass per tick —
    until the backlog re-enters the bound; the elapsed steps are the
    recovery latency recorded in the [kv.recovery.steps] histogram,
    counted and summed in the [recoveries] and [recovery_steps]
    columns, and gated by the recovery SLO.

    Of the five oracles, a use-after-free or double free is a worker
    death, the runner's leak rule allows 16 blocks per aborted request,
    and the check asserts the accounting identities, bounded garbage on
    the robust schemes and the recovery SLO. *)

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
  }

let recovery_h = Obs.Histo.histo "kv.recovery.steps"
let retry_c = Obs.Metrics.counter "kv.retry"

(* A request's outcome, by the code the digest mixes in, and the
   counter each one bumps. *)
let outcomes = [| "ok"; "retried_ok"; "timeout"; "shed"; "failed" |]
let outcome_c = Array.map (fun o -> Obs.Metrics.counter ("kv." ^ o)) outcomes

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

(* Restart generations each serving member may consume. *)
let max_restarts = 2

(* Pid 0, the serving pools, then every restart generation. *)
let pids spec =
  Fault.Chaos.first_spare_pid ~shards:spec.ch_shards
  + (spec.ch_shards * Fault.Chaos.members * max_restarts)

let campaign spec =
  {
    Fault.Chaos.seed = spec.ch_seed;
    kind = spec.ch_kind;
    shards = spec.ch_shards;
    victims = spec.ch_victims;
  }

(* One campaign over one scheme: the KV service over [scheme] wrapped
   to inject from the cell's plan. *)
let probe spec sname scheme (s : Table.setup) =
  let module K =
    Kv_service.Make (Cdrc.Make ((val Table.faulty scheme s.plan : Smr.Smr_intf.S))) in
  let plan = s.plan in
  let members = Fault.Chaos.members in
  let first_spare = Fault.Chaos.first_spare_pid ~shards:spec.ch_shards in
  let max_threads = pids spec in
  let nshards = spec.ch_shards in
  let t = K.create ~shards:nshards ~buckets:64 ~epoch_freq:1 ~max_threads () in
  (* Lazy per-pid contexts: restarts mint fresh generations. *)
  let ctxs = Array.init max_threads (fun pid -> lazy (K.ctx t pid)) in
  let ctx_of pid = Lazy.force ctxs.(pid) in
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
  let slo_misses = ref 0 and recoveries = ref 0 and recovery_steps = ref 0 in
  (* Per-shard sliding window of request latencies for the p99 signal:
     32 samples have no 1% tail, so their p99 is their maximum. *)
  let win_len = 32 in
  let lat_win = Array.init nshards (fun _ -> Array.make win_len 1) in
  let lat_n = Array.make nshards 0 in
  let observe_lat shard cost =
    lat_win.(shard).(lat_n.(shard) mod win_len) <- cost;
    lat_n.(shard) <- lat_n.(shard) + 1
  in
  let window_p99 shard =
    let n = min lat_n.(shard) win_len in
    if n = 0 then None else Some (Array.fold_left max 0 (Array.sub lat_win.(shard) 0 n))
  in
  let kg =
    Keygen.create ~seed:(spec.ch_seed lxor 0xbeef) ~range:spec.ch_keys Keygen.Uniform
  in
  let rng = Repro_util.Rng.create ~seed:(spec.ch_seed lxor 0x51ab) in
  let bo_rng = Repro_util.Rng.create ~seed:(spec.ch_seed lxor 0x0b0f) in
  let digest = ref 17 in
  let mix_digest v = digest := ((!digest * 1000003) + v) land max_int in
  let counts = Array.make (Array.length outcomes) 0 in
  let record code =
    counts.(code) <- counts.(code) + 1;
    Obs.Metrics.incr outcome_c.(code) ~pid:0
  in
  let nretries = ref 0 and aborted = ref 0 and trips = ref 0 and drills = ref 0 in
  let peak_backlog = ref 0 in
  let end_backlog = ref 0 in
  let per_try = max 1 (spec.ch_deadline / (spec.ch_retries + 1)) in
  let faulted pid =
    Fault.Fault_plan.crashed plan ~pid || Fault.Fault_plan.stalled plan ~pid
  in
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
        if faulted pid then begin
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
        let took = step - t0 in
        let bounded = K.shard_backlog t ~shard <= spec.ch_backlog_bound in
        (* Past the SLO, give it up but keep draining; record the
           miss once. *)
        if bounded || took > spec.ch_recovery_slo then begin
          recovering.(shard) <- None;
          incr recoveries;
          recovery_steps := !recovery_steps + took;
          Obs.Histo.observe recovery_h ~pid:0 took;
          if took > spec.ch_recovery_slo then incr slo_misses
        end
  in
  let request step =
    let key = Keygen.next kg in
    let r = Repro_util.Rng.int rng 100 in
    let opc =
      if r >= spec.ch_write_pct then 0 else if r < spec.ch_write_pct * 3 / 4 then 1 else 2
    in
    let kind = if opc = 0 then Breaker.Read else Breaker.Write in
    let shard = K.shard_of_key t key in
    let decision =
      if spec.ch_breaker then Breaker.admit_req breakers.(shard) ~pid:0 kind
      else Breaker.Admit
    in
    (match decision with
    | Breaker.Shed | Breaker.Shed_write ->
        record 3;
        mix_digest 3
    | Breaker.Admit | Breaker.Admit_probe ->
        let b = Repro_util.Backoff.create ~min:1 ~max:8 ~rng:bo_rng () in
        let total = ref 0 in
        let saw_timeout = ref false in
        (* The outcome's code: first-try or retried success, timeout,
           failure. *)
        let rec go n =
          if n > spec.ch_retries || !total >= spec.ch_deadline then
            (if !saw_timeout then 2 else 4)
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
            if spec.ch_breaker then ignore (Breaker.report_req breakers.(shard) ~pid:0 ~ok);
            if ok && !total <= spec.ch_deadline then min n 1
            else if ok then 2 (* late success: deadline already blown *)
            else go (n + 1)
          end
        in
        let code = go 0 in
        record code;
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
          (match Breaker.on_tick breakers.(s) ~pid:0 ~backlog ~p99:(window_p99 s) with
          | Some (Breaker.To_open _) ->
              incr trips;
              mix_digest (100 + s);
              drill s ~step
          | Some Breaker.To_half_open -> mix_digest (200 + s)
          | Some Breaker.To_closed -> mix_digest (300 + s)
          | None -> ());
          finish_recovery s ~step
        end
      done
    end
  in
  (* Campaign over: measure the end state before reaping anyone —
     the recovery oracle judges what the resilience layer achieved,
     not what teardown can mop up. Then reap every faulted serving
     pid so the leak rule tests the scheme, and check the
     accounting identities with slack for the aborted requests. *)
  let check () =
    for s = 0 to nshards - 1 do
      end_backlog := max !end_backlog (K.shard_backlog t ~shard:s)
    done;
    for s = 0 to nshards - 1 do
      Array.iter (fun pid -> if faulted pid then K.abandon_shard t ~shard:s ~pid) serving.(s);
      K.drain_shard c0 ~shard:s
    done;
    let garbage_bound = 8 * spec.ch_backlog_bound in
    Table.kv_accounting (module K) t c0 ~slack:!aborted
    @ Table.violations
      [
        ( (not (List.mem sname Instances.robust_schemes)) || !peak_backlog <= garbage_bound,
          Printf.sprintf "bounded-garbage: peak shard backlog %d > %d" !peak_backlog
            garbage_bound );
        ( sname = "None" || (!slo_misses = 0 && !end_backlog <= spec.ch_backlog_bound),
          Printf.sprintf "recovery-slo: slo_misses=%d, end backlog %d vs bound %d (%d drills)"
            !slo_misses !end_backlog spec.ch_backlog_bound !drills );
      ]
  in
  Table.probe ~check
    ~columns:(fun () ->
      List.combine (Array.to_list outcomes) (Array.to_list counts)
      @ [
          ("retries", !nretries);
          ("aborted", !aborted);
          ("trips", !trips);
          ("drills", !drills);
          ("recoveries", !recoveries);
          ("recovery_steps", !recovery_steps);
          ("backlog_peak", !peak_backlog);
          ("backlog_end", !end_backlog);
          ("digest", !digest);
        ])
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
    ~allowance:(fun () -> 16 * !aborted)
    ~live:(fun () -> K.live_objects t)
    ~backlog:(fun () -> K.retired_backlog t)
    ~teardown:(fun () -> K.teardown t)
    (fun _ -> Table.each_step request)

(* Check [spec] once: the campaign's own limits, the breaker
   thresholds it derives, a power-of-two shard count, a pid pool the
   fault plan can track and a write share that is a percentage. *)
let validate spec =
  match
    Fault.Chaos.validate_spec (campaign spec);
    Breaker.validate_config (breaker_config spec)
  with
  | exception Invalid_argument e -> Error e
  | () when spec.ch_shards land (spec.ch_shards - 1) <> 0 ->
      Error "Chaos: shards must be a power of two"
  | () when pids spec > Fault.Fault_plan.max_pids ->
      Error
        (Printf.sprintf "Chaos: %d shards need %d pids, more than Fault_plan.max_pids (%d)"
           spec.ch_shards (pids spec) Fault.Fault_plan.max_pids)
  | () when spec.ch_write_pct < 0 || spec.ch_write_pct > 100 ->
      Error "Chaos: write percentage must be in [0, 100]"
  | () -> Ok ()

(* The campaign's row: one stepped cell per scheme, each injecting the
   campaign's schedule. The header prints the schedule and the command
   line that replays it, so any failing cell replays from it. *)
let row spec =
  Result.map
    (fun () ->
      let cs = campaign spec in
      let kind = Fault.Chaos.kind_name spec.ch_kind in
      let replay =
        Printf.sprintf
          "replay: cdrc-bench chaos --campaign %s --seed %d --shards %d --victims %d --steps %d \
           --write-pct %d --breaker %s --bound %d --recovery-slo %d (keys=%d deadline=%d \
           retries=%d)"
          kind spec.ch_seed spec.ch_shards spec.ch_victims spec.ch_steps spec.ch_write_pct
          (if spec.ch_breaker then "on" else "off")
          spec.ch_backlog_bound spec.ch_recovery_slo spec.ch_keys spec.ch_deadline
          spec.ch_retries
      in
      Table.row ~id:"chaos" ~selectable:true
        ~title:("Chaos: " ^ kind ^ " campaign on the sharded KV service")
        ~expected:
          (String.concat "\n"
             (("no UAF; leaks within 16 blocks per aborted request; accounting within the \
                aborts; garbage bounded on " ^ String.concat "/" Instances.robust_schemes
              ^ "; recovery within the SLO (all but None)")
              :: Fault.Chaos.describe cs @ [ replay ]))
        ~needs:Table.[ Prefix "kv.breaker."; Key "kv.retry"; Key "kv.shed" ]
        ~faults:(Fault.Chaos.rules cs)
        ~length:(Steps { steps = spec.ch_steps; every = 8 })
        ("chaos-" ^ kind)
        (List.map (fun (name, scheme) -> (name, probe spec name scheme)) Instances.named_schemes))
    (validate spec)
