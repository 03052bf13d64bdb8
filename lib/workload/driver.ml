(** Multi-domain benchmark driver reproducing the paper's measurement
    methodology (§5): prefill a structure to a target size, run P
    threads for a fixed duration against a key range twice the initial
    size, and report throughput plus memory usage (live simulated-heap
    blocks, sampled continuously for the average and tracked for the
    peak).

    Operation mix: [update_pct]% updates (half inserts, half removes),
    [rq_pct]% range queries of [rq_size] consecutive keys, the
    remainder point lookups — covering Fig 11 (50/50 updates and range
    queries) and every Fig 13 panel. *)

type spec = {
  threads : int;
  duration : float; (* seconds of measured work *)
  key_range : int; (* keys drawn uniformly from [0, key_range) *)
  init_size : int; (* prefilled distinct keys *)
  update_pct : int;
  rq_pct : int;
  rq_size : int;
  seed : int;
  buckets : int option; (* hash table only *)
  slots : int option; (* HP/HE announcement slots per thread *)
  epoch_freq : int option; (* EBR/IBR/HE epoch advance frequency *)
  adapt : bool; (* run the adaptive reclamation controller *)
}

let default_spec =
  {
    threads = 4;
    duration = 1.0;
    key_range = 200_000;
    init_size = 100_000;
    update_pct = 10;
    rq_pct = 0;
    rq_size = 64;
    seed = 42;
    buckets = None;
    slots = None;
    epoch_freq = None;
    adapt = false;
  }

type result = {
  scheme : string;
  spec : spec;
  total_ops : int;
  elapsed : float;
  mops : float;
  live_avg : float; (* mean live blocks sampled during the run *)
  live_peak : int;
  leaked : int; (* live blocks after teardown; 0 = leak-free *)
  uaf : int; (* use-after-free events caught (unsafe schemes) *)
  worker_failures : int; (* workers killed by a non-safety exception (harness bug) *)
  errors : Harness.errors; (* every worker death, by kind *)
  snap_slow_share : float option; (* RC only: slow-path snapshot share *)
  watchdog_verdicts : string list;
      (* Stuck verdicts the reclamation watchdog raised during the run
         (empty when telemetry is disabled or reclamation progressed). *)
  adapt_decisions : string list;
      (* The adaptive controller's decision log (empty when
         [spec.adapt] is false): one line per sampler tick on which the
         controller moved a knob. *)
}

let pp_result ppf r =
  Format.fprintf ppf "%-12s P=%-3d %8.3f Mops/s  ops=%-10d live(avg)=%-9.0f peak=%-9d%s%s%s%s"
    r.scheme r.spec.threads r.mops r.total_ops r.live_avg r.live_peak
    (if r.leaked > 0 then Printf.sprintf "  LEAK=%d" r.leaked else "")
    (if r.uaf > 0 then Printf.sprintf "  UAF=%d" r.uaf else "")
    (if r.worker_failures > 0 then Printf.sprintf "  FAILED-WORKERS=%d" r.worker_failures
     else "")
    (match r.snap_slow_share with
    | Some s when s > 0.0005 -> Printf.sprintf "  slow-snap=%.1f%%" (100. *. s)
    | _ -> "");
  (match r.watchdog_verdicts with
  | [] -> ()
  | vs -> Format.fprintf ppf "  WATCHDOG=%d" (List.length vs));
  match r.adapt_decisions with
  | [] -> ()
  | ds -> Format.fprintf ppf "  ADAPT=%d" (List.length ds)

(* Time-series gauges published by the sampler thread; global because a
   process runs one driver at a time. *)
let live_gauge = Obs.Metrics.gauge "driver.live_blocks"
let backlog_gauge = Obs.Metrics.gauge "driver.retired_backlog"
let ops_gauge = Obs.Metrics.gauge "driver.ops_per_s"

module Run (D : Ds.Set_intf.S) = struct
  let prefill d spec =
    let c = D.ctx d 0 in
    let rng = Repro_util.Rng.create ~seed:spec.seed in
    let filled = ref 0 in
    while !filled < spec.init_size do
      if D.insert c (Repro_util.Rng.int rng spec.key_range) then incr filled
    done;
    D.flush c

  let run ?(spec = default_spec) () =
    let d =
      D.create ?buckets:spec.buckets ?slots_per_thread:spec.slots
        ?epoch_freq:spec.epoch_freq
        ~max_threads:(spec.threads + 1) (* +1: the sampler/prefill thread *) ()
    in
    prefill d spec;
    D.reset_peak d;
    ignore (Obs.Verdicts.drain ()); (* discard verdicts from earlier runs *)
    let worker pid continue =
      let c = D.ctx d pid in
      let rng = Repro_util.Rng.create ~seed:(spec.seed + (pid * 7919)) in
      let n = ref 0 in
      while continue !n do
        for _ = 1 to 64 do
          let r = Repro_util.Rng.int rng 100 in
          let key = Repro_util.Rng.int rng spec.key_range in
          if r < spec.update_pct then begin
            if r land 1 = 0 then ignore (D.insert c key) else ignore (D.remove c key)
          end
          else if r < spec.update_pct + spec.rq_pct then
            ignore (D.range_query c key (key + spec.rq_size))
          else ignore (D.contains c key)
        done;
        n := !n + 64
      done;
      D.flush c
    in
    (* Sample memory usage from the coordinating thread while the
       workers run. *)
    let samples = ref [] in
    let last_ops = ref 0 in
    let last_t = ref 0. in
    (* The adaptive controller rides the sampler: one controller tick
       per sample, fed the backlog, latency-p99, and watchdog signals.
       No [on_escalate] here — benchmark workers are healthy by
       construction, so escalation is only logged; the adaptivity
       experiment wires the real abandon path. *)
    let ctl = if spec.adapt then Some (Adapt.Controller.create (D.control d)) else None in
    let sample ~elapsed ~ops =
      let live = D.live_objects d in
      samples := float_of_int live :: !samples;
      let verdict = ref None in
      let checked = ref false in
      (* Telemetry side of the sampler: per-second throughput and
         backlog gauges, a Sample trace event, and a watchdog poke.
         Gated as a block so the disabled path adds nothing beyond
         the pre-existing live_objects read. *)
      if Obs.Metrics.enabled () then begin
        let dt = elapsed -. !last_t in
        let rate = if dt > 0. then int_of_float (float_of_int (ops - !last_ops) /. dt) else 0 in
        last_ops := ops;
        last_t := elapsed;
        let backlog = D.retired_backlog d in
        Obs.Metrics.set_gauge live_gauge live;
        Obs.Metrics.set_gauge backlog_gauge backlog;
        Obs.Metrics.set_gauge ops_gauge rate;
        Obs.Trace.emit ~pid:0
          (Obs.Trace.Sample
             { t_ms = int_of_float (elapsed *. 1000.); ops_per_s = rate; live; backlog });
        verdict := D.watchdog_check d;
        checked := true
      end;
      match ctl with
      | None -> ()
      | Some c ->
          if not !checked then verdict := D.watchdog_check d;
          ignore
            (Adapt.Controller.observe c
               {
                 Adapt.Controller.backlog = D.retired_backlog d;
                 (* [None] while telemetry is off or nothing was
                    sampled — the controller treats that as "SLO met". *)
                 p99 =
                   Obs.Histo.percentile_of_counts
                     (Obs.Histo.merged_suffix ".reclaim_latency")
                     99.0;
                 stalled = !verdict <> None;
               })
    in
    let h =
      Harness.run ~name:D.name ~threads:spec.threads ~duration:spec.duration
        ~sample:(0.01, sample) worker
    in
    let live_peak = D.peak_objects d in
    let live_avg =
      match !samples with [] -> float_of_int (D.live_objects d) | s -> Repro_util.Stats.mean (Array.of_list s)
    in
    let uaf_ds = D.uaf_events d in
    let snap_slow_share =
      match D.snapshot_stats d with
      | Some (fast, slow) when fast + slow > 0 ->
          Some (float_of_int slow /. float_of_int (fast + slow))
      | Some _ -> Some 0.
      | None -> None
    in
    D.teardown d;
    let leaked = D.live_objects d in
    (* A safety violation of the scheme under test is a UAF; anything
       else that killed a worker is a harness/structure bug. *)
    let safety = Harness.count h.errors "Use_after_free" + Harness.count h.errors "Double_free" in
    {
      scheme = D.name;
      spec;
      total_ops = h.ops;
      elapsed = h.elapsed;
      mops = h.mops;
      live_avg;
      live_peak;
      leaked;
      uaf = uaf_ds + safety;
      worker_failures = Harness.total h.errors - safety;
      errors = h.errors;
      snap_slow_share;
      watchdog_verdicts = Obs.Verdicts.drain ();
      adapt_decisions =
        (match ctl with None -> [] | Some c -> Adapt.Controller.decisions c);
    }
end
