(** Serving-workload harness for the sharded KV service (DESIGN.md
    §12): the "heavy traffic" scenario of the ROADMAP, driven by
    {!Keygen} key distributions and operation mixes instead of the
    uniform set churn of {!Driver}. Both run their workers through
    {!Harness}.

    Two entry points:

    + {!run_one} / {!sweep}: wall-clock multi-domain serving runs —
      per-op p50/p99/p999 latency via {!Obs.Histo}, background TTL
      sweeps from the sampler (retirement storms), per-shard backlog
      sampling, optional per-shard {!Adapt.Controller}s, and
      post-run internal-consistency validation (the {!Kv_intf}
      accounting identities + leak-freedom).
    + {!run_stalled_shard}: the deterministic shard-stall +
      abandon-recovery scenario — a {!Fault.Fault_plan} stalls the
      victim inside a shard-0 critical section via {!Fault.Faulty_smr}
      and the per-shard controller escalates to {!Kv_intf.S.abandon_shard};
      controller-on must stay bounded where fixed knobs grow without
      bound (the CI exit-code check). *)

type mix = Read95 | Write50 | Scan_churn

let mix_to_string = function
  | Read95 -> "read95"
  | Write50 -> "write50"
  | Scan_churn -> "scan"

let mix_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "read95" | "read" -> Ok Read95
  | "write50" | "write" -> Ok Write50
  | "scan" | "scan-churn" -> Ok Scan_churn
  | s -> Error (Printf.sprintf "unknown mix %S (read95 | write50 | scan)" s)

(* Perf-cell structure label: the mix is part of the key so the BENCH
   trajectory tracks each serving regime separately. *)
let mix_structure m = "kv-" ^ mix_to_string m

type spec = {
  threads : int;
  duration : float;
  shards : int;
  buckets : int; (* per shard *)
  keys : int; (* key range *)
  keygen : Keygen.spec;
  mix : mix;
  ttl_pct : int; (* % of puts that carry a TTL *)
  ttl_ticks : int; (* TTL length, in logical clock ticks *)
  sweep_every : int; (* background expiry sweep period, in ticks *)
  adapt : bool; (* per-shard adaptive controllers *)
  deadline_ms : float; (* per-request deadline; 0 = no deadline accounting *)
  retries : int; (* bounded retries after a deadline miss *)
  breaker : bool; (* per-shard circuit breakers (sampler-driven) *)
  seed : int;
}

let default_spec =
  {
    threads = 4;
    duration = 1.0;
    shards = 4;
    buckets = 256;
    keys = 16_384;
    keygen = Keygen.Zipfian { theta = 0.99 };
    mix = Read95;
    ttl_pct = 25;
    ttl_ticks = 64;
    sweep_every = 32;
    adapt = false;
    deadline_ms = 0.;
    retries = 0;
    breaker = false;
    seed = 42;
  }

type result = {
  r_scheme : string;
  r_spec : spec;
  r_ops : int;
  r_elapsed : float;
  r_mops : float;
  r_hit_rate : float; (* gets_hit / (gets_hit + gets_miss) *)
  r_get_lat : (int * int * int) option; (* p50/p99/p999, nanoseconds *)
  r_put_lat : (int * int * int) option;
  r_scan_lat : (int * int * int) option;
  r_counters : Kv_intf.counters;
  r_swept : int; (* entries claimed by background sweeps *)
  r_peak_live : int;
  r_peak_backlog : int; (* service-wide *)
  r_shard_peak_backlog : int array;
  r_leaked : int;
  r_failures : int; (* worker deaths ({!Harness} tally) — never request outcomes *)
  r_timed_out : int; (* requests past the deadline after all retries *)
  r_retried_ok : int; (* requests rescued by a retry *)
  r_retries : int; (* retry attempts issued *)
  r_shed : int; (* requests rejected by a breaker *)
  r_trips : int; (* breaker open transitions *)
  r_adapt_decisions : string list;
  r_violations : string list; (* internal-consistency failures; [] = valid *)
}

let pp_result ppf r =
  let pp_lat name = function
    | None -> ""
    | Some (p50, p99, _) -> Printf.sprintf "  %s=%d/%dns" name p50 p99
  in
  Format.fprintf ppf
    "%-8s %-10s P=%-2d S=%-2d %8.3f Mops/s  ops=%-9d hit=%4.1f%%%s%s%s  peak_backlog=%-6d%s%s%s%s"
    r.r_scheme (mix_to_string r.r_spec.mix) r.r_spec.threads r.r_spec.shards r.r_mops
    r.r_ops
    (100. *. r.r_hit_rate)
    (pp_lat "get" r.r_get_lat) (pp_lat "put" r.r_put_lat) (pp_lat "scan" r.r_scan_lat)
    r.r_peak_backlog
    (if r.r_timed_out + r.r_retried_ok + r.r_shed + r.r_trips > 0 then
       Printf.sprintf "  timeout=%d retried_ok=%d shed=%d trips=%d" r.r_timed_out
         r.r_retried_ok r.r_shed r.r_trips
     else "")
    (if r.r_leaked > 0 then Printf.sprintf "  LEAK=%d" r.r_leaked else "")
    (if r.r_failures > 0 then Printf.sprintf "  FAILED-WORKERS=%d" r.r_failures else "")
    (match r.r_violations with
    | [] -> ""
    | vs -> Printf.sprintf "  INVALID=%d" (List.length vs))

(* Latency rings, nanosecond-valued; 1-in-8 operations are timed. *)
let get_histo = Obs.Histo.histo "kv.get.latency_ns"
let put_histo = Obs.Histo.histo "kv.put.latency_ns"
let scan_histo = Obs.Histo.histo "kv.scan.latency_ns"
let lat_sample_mask = 7

(* Request-outcome counters, also incremented by Chaos_runner's
   deterministic request path. *)
let retry_c = Obs.Metrics.counter "kv.retry"
let shed_c = Obs.Metrics.counter "kv.shed"
let timeout_c = Obs.Metrics.counter "kv.timeout"
let retried_ok_c = Obs.Metrics.counter "kv.retried_ok"

(* The internal-consistency check of the [test] archetype, shared by
   [--validate] runs and test_kv.ml: at quiescence after a final
   sweep, the node and box retirement identities must hold exactly,
   and teardown must free every block. *)
let validate_identities (c : Kv_intf.counters) ~size =
  let errs = ref [] in
  let check name got want =
    if got <> want then
      errs := Printf.sprintf "%s: got %d, want %d" name got want :: !errs
  in
  check "node identity: puts_new = size + removes + expiries" c.Kv_intf.puts_new
    (size + c.Kv_intf.removes + c.Kv_intf.expiries);
  let installed =
    c.Kv_intf.puts_new + c.Kv_intf.overwrites + c.Kv_intf.expired_overwrites
  in
  check "box identity: installed - size = retire events" (installed - size)
    (c.Kv_intf.overwrites + c.Kv_intf.expired_overwrites + c.Kv_intf.removes
   + c.Kv_intf.expiries);
  List.rev !errs

let run_one ?(spec = default_spec) ?(validate = false)
    ((scheme_name, (module K : Kv_intf.S)) : string * (module Kv_intf.S)) =
  let t =
    K.create ~shards:spec.shards ~buckets:spec.buckets
      ~max_threads:(spec.threads + 1) ()
  in
  let c0 = K.ctx t 0 in
  (* Prefill to half the key range so read-heavy mixes hit. *)
  let rng0 = Repro_util.Rng.create ~seed:spec.seed in
  let filled = ref 0 in
  while !filled < spec.keys / 2 do
    if not (K.put c0 ~now:0 (Repro_util.Rng.int rng0 spec.keys) !filled) then
      incr filled
  done;
  K.flush c0;
  K.reset_peak t;
  let metrics_were = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  (* Request-outcome tallies, pid-indexed (summed at the end) — kept
     strictly apart from the harness's worker-death tally. *)
  let timed_out = Array.make (spec.threads + 1) 0 in
  let retried_ok = Array.make (spec.threads + 1) 0 in
  let retries_issued = Array.make (spec.threads + 1) 0 in
  let shed = Array.make (spec.threads + 1) 0 in
  let deadline_ns = int_of_float (spec.deadline_ms *. 1e6) in
  (* Per-shard breaker state words, published by the sampler and read
     by every worker on admission: 0 = admit, 1 = read-only (shed
     writes), 2 = open (shed everything). *)
  let nshards = K.shard_count t in
  let breaker_words = Array.init nshards (fun _ -> Atomic.make 0) in
  let worker pid continue =
    let c = K.ctx t pid in
    let kg = Keygen.create ~seed:(spec.seed + (pid * 7919)) ~range:spec.keys spec.keygen in
    let rng = Repro_util.Rng.create ~seed:(spec.seed lxor (pid * 104729)) in
    let n = ref 0 in
    let timed histo op =
      if !n land lat_sample_mask = 0 then begin
        let t0 = Unix.gettimeofday () in
        op ();
        let dt = Unix.gettimeofday () -. t0 in
        Obs.Histo.observe histo ~pid (int_of_float (dt *. 1e9))
      end
      else op ()
    in
    (* The resilient request path: admission against the shard's
       published breaker word, then — when a deadline is set — wall
       time on every attempt, with up to [retries] re-executions
       behind a seeded-jitter backoff. A wall clock cannot abort a
       synchronous call, so a missed deadline means the attempt is
       charged as timed out and the budget decides whether anyone
       retries; that is exactly the accounting a caller with a
       deadline would observe. *)
    let admitted shard kindw =
      (not spec.breaker)
      ||
      match Atomic.get breaker_words.(shard) with
      | 2 -> false
      | 1 -> kindw = Breaker.Read
      | _ -> true
    in
    let request shard kindw histo op =
      if not (admitted shard kindw) then begin
        shed.(pid) <- shed.(pid) + 1;
        Obs.Metrics.incr shed_c ~pid
      end
      else if deadline_ns = 0 then
        match histo with Some h -> timed h op | None -> op ()
      else begin
        let attempt () =
          let t0 = Unix.gettimeofday () in
          op ();
          let dt = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
          (match histo with
          | Some h when !n land lat_sample_mask = 0 ->
              Obs.Histo.observe h ~pid dt
          | _ -> ());
          dt
        in
        if attempt () > deadline_ns then begin
          let b = Repro_util.Backoff.create ~min:1 ~max:64 ~rng () in
          let rec go k =
            if k > spec.retries then begin
              timed_out.(pid) <- timed_out.(pid) + 1;
              Obs.Metrics.incr timeout_c ~pid
            end
            else begin
              Repro_util.Backoff.once b;
              retries_issued.(pid) <- retries_issued.(pid) + 1;
              Obs.Metrics.incr retry_c ~pid;
              if attempt () <= deadline_ns then begin
                retried_ok.(pid) <- retried_ok.(pid) + 1;
                Obs.Metrics.incr retried_ok_c ~pid
              end
              else go (k + 1)
            end
          in
          go 1
        end
      end
    in
    while continue !n do
      let now = K.now t in
      for _ = 1 to 64 do
        let key = Keygen.next kg in
        let shard = K.shard_of_key t key in
        let r = Repro_util.Rng.int rng 100 in
        let get () =
          request shard Breaker.Read (Some get_histo) (fun () ->
              ignore (K.get c ~now key))
        in
        let put () =
          let ttl =
            if Repro_util.Rng.int rng 100 < spec.ttl_pct then Some spec.ttl_ticks
            else None
          in
          request shard Breaker.Write (Some put_histo) (fun () ->
              ignore (K.put c ~now ?ttl key !n))
        in
        let remove () =
          request shard Breaker.Write None (fun () -> ignore (K.remove c ~now key))
        in
        (match spec.mix with
        | Read95 -> if r < 95 then get () else put ()
        | Write50 ->
            if r < 50 then get () else if r < 90 then put () else remove ()
        | Scan_churn ->
            if r < 10 then
              request shard Breaker.Read (Some scan_histo) (fun () ->
                  ignore (K.scan c ~now key (key + 64)))
            else if r < 60 then get ()
            else if r < 90 then put ()
            else remove ());
        incr n
      done
    done;
    K.flush c
  in
  (* The sampler owns logical time: one tick per sample, a background
     expiry sweep (the retirement storm) every [sweep_every] ticks, and
     — with [adapt] — one controller per shard fed that shard's
     backlog, so a hotspot phase shift is a per-shard signal change. *)
  let shard_peaks = Array.make nshards 0 in
  let peak_backlog = ref 0 in
  let swept = ref 0 in
  let trips = ref 0 in
  let controllers =
    if spec.adapt then
      Array.init nshards (fun s -> Adapt.Controller.create (K.shard_control t ~shard:s))
    else [||]
  in
  (* Sampler-driven breakers: transitions come entirely from the tick
     signals (backlog, request p99) — no cross-domain report plumbing —
     and the tick-only liveness of {!Breaker.tick} (idle-close from
     half-open) guarantees recovery once the signals are healthy. The
     latency trip only makes sense against a deadline, so without one
     it is pushed out of reach. *)
  let breakers =
    if spec.breaker then
      let cfg =
        {
          Breaker.default_config with
          p99_trip = (if deadline_ns > 0 then 2 * deadline_ns else max_int / 2);
        }
      in
      Array.init nshards (fun s -> Breaker.create ~config:cfg ~shard:s ())
    else [||]
  in
  let sample ~elapsed:_ ~ops:_ =
    let tick = K.tick t in
    let total = ref 0 in
    for s = 0 to nshards - 1 do
      let b = K.shard_backlog t ~shard:s in
      shard_peaks.(s) <- max shard_peaks.(s) b;
      total := !total + b;
      if spec.breaker then begin
        let p99 =
          match Obs.Histo.percentiles get_histo with
          | Some (_, p99, _) when deadline_ns > 0 -> Some p99
          | _ -> None
        in
        (match Breaker.on_tick breakers.(s) ~pid:0 ~backlog:b ~p99 with
        | Some (Breaker.To_open _) -> incr trips
        | _ -> ());
        Atomic.set breaker_words.(s)
          (match Breaker.state breakers.(s) with
          | Breaker.Open _ -> 2
          | Breaker.Closed { shed_writes = true; _ } -> 1
          | _ -> 0)
      end;
      if spec.adapt then
        ignore
          (Adapt.Controller.observe controllers.(s)
             {
               Adapt.Controller.backlog = b;
               p99 =
                 Obs.Histo.percentile_of_counts
                   (Obs.Histo.merged_suffix ".reclaim_latency")
                   99.0;
               stalled = false;
             })
    done;
    peak_backlog := max !peak_backlog !total;
    if tick mod spec.sweep_every = 0 then swept := !swept + K.expire_sweep c0 ~now:tick
  in
  let h =
    Harness.run ~name:("kv " ^ scheme_name) ~threads:spec.threads ~duration:spec.duration
      ~sample:(0.002, sample) worker
  in
  let now = K.now t in
  let violations =
    if validate then begin
      ignore (K.expire_sweep c0 ~now);
      validate_identities (K.counters t) ~size:(K.size t ~now)
    end
    else []
  in
  let counters = K.counters t in
  let peak_live = K.peak_objects t in
  let get_lat = Obs.Histo.percentiles get_histo in
  let put_lat = Obs.Histo.percentiles put_histo in
  let scan_lat = Obs.Histo.percentiles scan_histo in
  K.teardown t;
  let leaked = K.live_objects t in
  Obs.Metrics.set_enabled metrics_were;
  {
    r_scheme = scheme_name;
    r_spec = spec;
    r_ops = h.ops;
    r_elapsed = h.elapsed;
    r_mops = h.mops;
    r_hit_rate =
      (let h = counters.Kv_intf.gets_hit and m = counters.Kv_intf.gets_miss in
       if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m));
    r_get_lat = get_lat;
    r_put_lat = put_lat;
    r_scan_lat = scan_lat;
    r_counters = counters;
    r_swept = !swept;
    r_peak_live = peak_live;
    r_peak_backlog = !peak_backlog;
    r_shard_peak_backlog = shard_peaks;
    r_leaked = leaked;
    r_failures = Harness.total h.errors;
    r_timed_out = Array.fold_left ( + ) 0 timed_out;
    r_retried_ok = Array.fold_left ( + ) 0 retried_ok;
    r_retries = Array.fold_left ( + ) 0 retries_issued;
    r_shed = Array.fold_left ( + ) 0 shed;
    r_trips = !trips;
    r_adapt_decisions =
      Array.to_list controllers
      |> List.concat_map (fun c -> Adapt.Controller.decisions c);
    r_violations =
      violations
      @ (if leaked > 0 then [ Printf.sprintf "leaked %d blocks" leaked ] else []);
  }

(* The scheme×shards×threads×mix sweep behind [cdrc-bench kv]. Returns
   [(ok, results)]: ok iff every run is leak-free, failure-free and —
   when [validate] — satisfies the accounting identities. *)
let sweep ?(spec = default_spec) ?(schemes = Instances.kv_services)
    ?(shard_counts = [ spec.shards ]) ?(thread_counts = [ spec.threads ])
    ?(mixes = [ spec.mix ]) ?(validate = false) () =
  let results =
    List.concat_map
      (fun mix ->
        List.concat_map
          (fun shards ->
            List.concat_map
              (fun threads ->
                List.map
                  (fun inst ->
                    let spec = { spec with mix; shards; threads } in
                    let r = run_one ~spec ~validate inst in
                    Format.printf "%a@." pp_result r;
                    r)
                  schemes)
              thread_counts)
          shard_counts)
      mixes
  in
  let ok =
    List.for_all (fun r -> r.r_leaked = 0 && r.r_failures = 0 && r.r_violations = []) results
  in
  (ok, results)

(* ================================================================= *)
(* Controller reaction latency to a workload phase shift (ROADMAP
   item 5's open question: how fast does adaptation react, not just
   whether it eventually bounds the backlog). Deterministic single
   thread, logical time.

   The probe couples the hotspot keygen's migrations to a retirement
   signal the controller can see: every tick refreshes the hot set
   with TTL'd puts, so while a phase is stable the entries are
   perpetually renewed and the backlog stays calm; the moment the hot
   set migrates, the abandoned phase stops being refreshed, expires
   [ttl] ticks later, and the next background sweep claims the whole
   old hot set at once — a retirement burst that drives the shard
   backlog past [backlog_high]. Reaction latency is the tick gap from
   the migration to the controller's first [Force_advance], so it
   bounds the end-to-end detection pipeline: expiry + sweep cadence +
   controller tick. *)

type reaction_result = {
  a_shifts : int; (* hot-set migrations that occurred *)
  a_reactions : int list; (* shift → first Force_advance, ticks, per shift *)
  a_worst : int; (* max reaction; -1 when nothing was measured *)
  a_peak_backlog : int; (* anywhere, including post-shift bursts *)
  a_steady_peak : int; (* outside the post-shift burst windows *)
  a_decisions : string list;
}

let reaction_g = Obs.Metrics.gauge "adapt.reaction_ticks"

let pp_reaction_result ppf r =
  Format.fprintf ppf
    "kv-EBR   adapt-reaction shifts=%d reactions=[%s] worst=%d peak=%d steady=%d"
    r.a_shifts
    (String.concat ";" (List.map string_of_int (List.rev r.a_reactions)))
    r.a_worst r.a_peak_backlog r.a_steady_peak

let measure_adapt_reaction ?(ticks = 2400) ?(hot_keys = 256) ?(shift_ticks = 800)
    ?(ttl = 32) ?(sweep_every = 8) ?(per_tick = 8) ?(seed = 42) () =
  let name, (module K : Kv_intf.S) =
    match Instances.find_kv "EBR" with
    | Some inst -> inst
    | None -> invalid_arg "measure_adapt_reaction: no EBR KV instance"
  in
  ignore name;
  let metrics_were = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let t = K.create ~shards:1 ~buckets:64 ~epoch_freq:1 ~max_threads:2 () in
  let c = K.ctx t 1 in
  let kg =
    Keygen.create ~seed ~range:16_384
      (Keygen.Hotspot
         { hot_keys; hot_pct = 100; shift_every = shift_ticks * per_tick })
  in
  (* Thresholds sized so a steady phase never fires the pressure
     policy but one expired hot set always does. The sweep that claims
     an expired hot set drains most of its own burst as it goes (the
     retire path ejects every cleanup batch), so the observable spike
     tops out well under [hot_keys]; 3/8 of the hot set sits between
     the steady-churn plateau and that post-sweep residue. *)
  let config =
    {
      Adapt.Controller.default_config with
      Adapt.Controller.backlog_high = 3 * hot_keys / 8;
      backlog_low = hot_keys / 16;
    }
  in
  let ctl = Adapt.Controller.create ~config (K.shard_control t ~shard:0) in
  let seen_shifts = ref 0 in
  let pending_shift = ref None in
  let last_shift = ref min_int in
  let reactions = ref [] in
  let peak = ref 0 in
  let steady_peak = ref 0 in
  for tick = 1 to ticks do
    let now = K.tick t in
    for _ = 1 to per_tick do
      ignore (K.put c ~now ~ttl (Keygen.next kg) tick)
    done;
    if Keygen.shifts kg > !seen_shifts then begin
      seen_shifts := Keygen.shifts kg;
      (* A shift during an unfinished measurement restarts the clock:
         the controller has yet to react to any phase change. *)
      pending_shift := Some tick;
      last_shift := tick
    end;
    if tick mod sweep_every = 0 then ignore (K.expire_sweep c ~now);
    let backlog = K.shard_backlog t ~shard:0 in
    peak := max !peak backlog;
    if tick - !last_shift > 2 * (ttl + sweep_every) then
      steady_peak := max !steady_peak backlog;
    let actions =
      Adapt.Controller.observe ctl
        { Adapt.Controller.backlog; p99 = None; stalled = false }
    in
    match !pending_shift with
    | Some t0 when List.mem Adapt.Controller.Force_advance actions ->
        let dt = tick - t0 in
        reactions := dt :: !reactions;
        Obs.Metrics.set_gauge reaction_g dt;
        pending_shift := None
    | _ -> ()
  done;
  K.flush c;
  K.teardown t;
  Obs.Metrics.set_enabled metrics_were;
  {
    a_shifts = !seen_shifts;
    a_reactions = !reactions;
    a_worst = List.fold_left max (-1) !reactions;
    a_peak_backlog = !peak;
    a_steady_peak = !steady_peak;
    a_decisions = Adapt.Controller.decisions ctl;
  }

(* ================================================================= *)
(* Stalled-shard fault scenario: deterministic single-thread replay,
   mirroring Experiments.run_adaptivity_one but end-to-end through the
   KV service. A fault plan stalls the victim on its [stall_at]-th
   shard-0 critical-section entry; Faulty_smr then freezes the
   victim's protection (its CS exit is suppressed), pinning shard 0's
   EBR frontier while the healthy worker's overwrite churn piles
   deferred decrements behind it. *)

type fault_result = {
  f_adapt : bool;
  f_iters : int;
  f_peak_backlog : int; (* shard 0, sampled every iteration *)
  f_end_backlog : int;
  f_escalated_at : int option;
  f_fault_fired : bool; (* the plan's stall actually hit *)
  f_leaked : int;
  f_decisions : string list;
}

let pp_fault_result ppf r =
  Format.fprintf ppf
    "kv-EBR   adapt=%-5b iters=%-6d peak_backlog=%-6d end_backlog=%-6d escalate=%s \
     fault=%s leaked=%d decisions=%d"
    r.f_adapt r.f_iters r.f_peak_backlog r.f_end_backlog
    (match r.f_escalated_at with Some i -> Printf.sprintf "@%d" i | None -> "never")
    (if r.f_fault_fired then "fired" else "NOT-FIRED")
    r.f_leaked (List.length r.f_decisions)

let run_stalled_shard_one ?(iters = 2000) ?(check_every = 32) ?(stall_at = 8) ?config
    ~adapt () =
  let plan =
    Fault.Fault_plan.create
      [ { site = On_begin_cs; pid = Some 1; at = stall_at; action = Stall 0 } ]
  in
  let module FS =
    Fault.Faulty_smr.Make
      (Smr.Ebr)
      (struct
        let plan = plan
      end)
  in
  let module R = Cdrc.Make (FS) in
  let module K = Kv_service.Make (R) in
  (* Maximally eager tuning, as in the adaptivity experiment: any
     unbounded growth is the stall's fault, not the knobs'. *)
  let t = K.create ~shards:2 ~buckets:32 ~epoch_freq:1 ~max_threads:3 () in
  let victim = K.ctx t 1 in
  let healthy = K.ctx t 2 in
  (* Work entirely on shard-0 keys so the victim's frozen critical
     section pins exactly the backlog the healthy worker creates. *)
  let shard0_keys =
    List.filter (fun k -> K.shard_of_key t k = 0) (List.init 4096 Fun.id)
  in
  let key_at =
    let arr = Array.of_list shard0_keys in
    fun i -> arr.(i mod Array.length arr)
  in
  let escalated_at = ref None in
  let iter = ref 0 in
  let ctl =
    if adapt then
      Some
        (Adapt.Controller.create ?config
           ~on_escalate:(fun () ->
             escalated_at := Some !iter;
             K.abandon_shard t ~shard:0 ~pid:1)
           (K.shard_control t ~shard:0))
    else None
  in
  let peak = ref 0 in
  for i = 1 to iters do
    iter := i;
    (* The victim ops until the plan stalls it mid-operation; a
       stalled pid is parked (its protection is frozen by the
       wrapper). *)
    if not (Fault.Fault_plan.stalled plan ~pid:1) then
      ignore (K.put victim ~now:i (key_at i) i);
    (* Overwrite churn on a small hot set: every put retires a box
       into shard 0's pinned runtime. *)
    ignore (K.put healthy ~now:i (key_at (i mod 8)) i);
    peak := max !peak (K.shard_backlog t ~shard:0);
    if i mod check_every = 0 then
      match ctl with
      | None -> ()
      | Some c ->
          ignore
            (Adapt.Controller.observe c
               {
                 Adapt.Controller.backlog = K.shard_backlog t ~shard:0;
                 p99 = None;
                 stalled = K.watchdog_check t <> None;
               })
  done;
  let end_backlog = K.shard_backlog t ~shard:0 in
  (* Reap the victim if the controller never did; the run must be
     leak-free either way. *)
  if !escalated_at = None then K.abandon_shard t ~shard:0 ~pid:1;
  K.flush healthy;
  K.teardown t;
  {
    f_adapt = adapt;
    f_iters = iters;
    f_peak_backlog = !peak;
    f_end_backlog = end_backlog;
    f_escalated_at = !escalated_at;
    f_fault_fired = Fault.Fault_plan.stalled plan ~pid:1;
    f_leaked = K.live_objects t;
    f_decisions = (match ctl with None -> [] | Some c -> Adapt.Controller.decisions c);
  }

(* Controller-on vs fixed knobs under the same stalled-shard plan.
   [ok] iff the controller kept shard 0's peak backlog at or under
   [bound] while the fixed-knob run ended above it, both leak-free and
   with the fault actually fired — the CI exit-code check. *)
let run_stalled_shard ?(iters = 2000) ?(bound = 512) () =
  Format.printf
    "@.== KV stalled shard: victim pinned in a shard-0 critical section (EBR) \
     ==@.expected: fixed-knob backlog grows behind the pinned frontier; the per-shard \
     controller escalates to abandon_shard and keeps the peak under %d@.@."
    bound;
  let on = run_stalled_shard_one ~iters ~adapt:true () in
  let off = run_stalled_shard_one ~iters ~adapt:false () in
  Format.printf "%a@.%a@." pp_fault_result on pp_fault_result off;
  Format.printf "@.controller decisions:@.";
  List.iter (fun d -> Format.printf "    [adapt] %s@." d) on.f_decisions;
  let ok =
    on.f_peak_backlog <= bound
    && off.f_end_backlog > bound
    && on.f_leaked = 0 && off.f_leaked = 0
    && on.f_fault_fired && off.f_fault_fired
  in
  Format.printf "@.bound=%d controller-on peak=%d (%s) fixed-knob end=%d (%s)@.@." bound
    on.f_peak_backlog
    (if on.f_peak_backlog <= bound then "bounded" else "VIOLATED")
    off.f_end_backlog
    (if off.f_end_backlog > bound then "unbounded as expected" else "UNEXPECTEDLY BOUNDED");
  (ok, [ on; off ])
