(** The pinned perf-trajectory matrix behind [bench perf] and
    `tools/bench_check` (DESIGN.md §11).

    One run measures every (scheme × structure × thread-count) cell of
    a fixed matrix — all Treiber stacks, all doubly-linked queues,
    all hash-table sets, and the sharded KV serving store under its
    read95/write50 mixes — with full telemetry on, and assembles an
    {!Obs.Perf.summary}: throughput, retire→free latency and eject
    batch-size quantiles out of the {!Obs.Histo} rings, peak live
    blocks and peak retired backlog sampled by the coordinator, plus
    the deterministic atomic-op profiles of the three lock-free cores
    instantiated over {!Sched.Counting}.

    Every cell runs on {!Harness}, like every other wall-clock
    experiment; one probe record covers stacks, queues, sets and KV
    services. A worker death is tallied by kind under its cell key
    [scheme/structure/threads] and returned next to the summary, so
    the perf commands exit 1 instead of recording a short cell.
    Telemetry is reset between cells, which is what makes per-cell
    histogram attribution correct — every [smr.*] histogram alive
    after a cell belongs to that cell's scheme. *)

let default_threads = [ 1; 2; 4 ]
let default_duration = 0.2
let default_scale = 4096

let git_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let sha = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if sha = "" then "unknown" else sha
  with _ -> "unknown"

let quantiles_of_suffix suffix = Obs.Perf.quantiles_of_counts (Obs.Histo.merged_suffix suffix)

(* What [measure] needs to know about a structure: its {!Harness}
   worker, and how the coordinator observes memory. [p_finish] tears
   down and returns the block count left live — the leak figure. *)
type probe = {
  p_worker : int -> (int -> bool) -> unit;
  p_live : unit -> int;
  p_backlog : unit -> int;
  p_finish : unit -> int;
}

let measure ~scheme ~structure ~threads ~duration (probe : probe) =
  Obs.Report.reset_all ();
  Obs.Metrics.set_enabled true;
  (* Reclaim-latency sampling rides [Trace.should_sample]. *)
  Obs.Trace.set_enabled true;
  let peak_live = ref 0 in
  let peak_backlog = ref 0 in
  let observe () =
    peak_live := max !peak_live (probe.p_live ());
    peak_backlog := max !peak_backlog (probe.p_backlog ())
  in
  let h =
    Harness.run
      ~name:(Harness.cell_name scheme structure threads)
      ~threads ~duration
      ~sample:(0.002, fun ~elapsed:_ ~ops:_ -> observe ())
      probe.p_worker
  in
  observe ();
  let leaked = probe.p_finish () in
  let reclaim = quantiles_of_suffix ".reclaim_latency" in
  let eject = quantiles_of_suffix ".eject.batch_size" in
  Obs.Metrics.set_enabled false;
  Obs.Trace.set_enabled false;
  ( {
      Obs.Perf.c_scheme = scheme;
      c_structure = structure;
      c_threads = threads;
      c_ops = h.ops;
      c_mops = h.mops;
      c_reclaim = reclaim;
      c_eject_batch = eject;
      c_peak_live = !peak_live;
      c_peak_backlog = !peak_backlog;
      c_leaked = leaked;
    },
    h.errors )

(* Workers batch 64 operations between [continue] checks, like
   [Driver]. *)

let stack_cell ~threads ~duration ~scale (module St : Instances.STACK) =
  let s = St.create ~max_threads:(threads + 1) () in
  let c0 = St.ctx s 0 in
  for i = 1 to scale / 2 do
    St.push c0 i
  done;
  St.flush c0;
  let probe =
    {
      p_worker =
        (fun pid continue ->
          let c = St.ctx s pid in
          let rng = Repro_util.Rng.create ~seed:(7919 * pid) in
          let n = ref 0 in
          while continue !n do
            for _ = 1 to 64 do
              if Repro_util.Rng.bool rng then St.push c !n else ignore (St.pop c)
            done;
            n := !n + 64
          done;
          St.flush c);
      p_live = (fun () -> St.live_objects s);
      p_backlog = (fun () -> St.retired_backlog s);
      p_finish =
        (fun () ->
          St.teardown s;
          St.live_objects s);
    }
  in
  measure ~scheme:St.name ~structure:"stack" ~threads ~duration probe

(* The Fig 12 kernel, shared with [Experiments.run_fig12]: pop an
   element and push it straight back, 64 operations a batch. *)
let pop_push (type q) (module Q : Ds.Queue_intf.S with type t = q) (q : q) pid continue =
  let c = Q.ctx q pid in
  let n = ref 0 in
  while continue !n do
    for _ = 1 to 32 do
      match Q.dequeue c with Some v -> Q.enqueue c v | None -> ()
    done;
    n := !n + 64
  done;
  Q.flush c

let queue_cell ~threads ~duration ~scale (module Q : Ds.Queue_intf.S) =
  let q = Q.create ~max_threads:(threads + 1) () in
  let c0 = Q.ctx q 0 in
  for i = 1 to max threads (scale / 64) do
    Q.enqueue c0 i
  done;
  Q.flush c0;
  let probe =
    {
      p_worker = pop_push (module Q) q;
      p_live = (fun () -> Q.live_objects q);
      p_backlog = (fun () -> Q.retired_backlog q);
      p_finish =
        (fun () ->
          Q.teardown q;
          Q.live_objects q);
    }
  in
  measure ~scheme:Q.name ~structure:"queue" ~threads ~duration probe

let hash_cell ~threads ~duration ~scale (module D : Ds.Set_intf.S) =
  let d =
    D.create ~buckets:(max 64 (scale / 8)) ~max_threads:(threads + 1) ()
  in
  let c0 = D.ctx d 0 in
  let rng0 = Repro_util.Rng.create ~seed:42 in
  let filled = ref 0 in
  while !filled < scale / 2 do
    if D.insert c0 (Repro_util.Rng.int rng0 scale) then incr filled
  done;
  D.flush c0;
  let probe =
    {
      p_worker =
        (fun pid continue ->
          let c = D.ctx d pid in
          let rng = Repro_util.Rng.create ~seed:(7919 * pid) in
          let n = ref 0 in
          while continue !n do
            for _ = 1 to 64 do
              let r = Repro_util.Rng.int rng 100 in
              let key = Repro_util.Rng.int rng scale in
              (* 50% updates keep the retire pipeline busy so the
                 latency histograms have substance at smoke scale. *)
              if r < 25 then ignore (D.insert c key)
              else if r < 50 then ignore (D.remove c key)
              else ignore (D.contains c key)
            done;
            n := !n + 64
          done;
          D.flush c);
      p_live = (fun () -> D.live_objects d);
      p_backlog = (fun () -> D.retired_backlog d);
      p_finish =
        (fun () ->
          D.teardown d;
          D.live_objects d);
    }
  in
  measure ~scheme:D.name ~structure:"hash" ~threads ~duration probe

(* Serving cells: the sharded KV store under Zipfian skew, one cell
   per (scheme × mix). The coordinator's sampler doubles as the
   service clock (one tick per ~2ms observation), so TTL'd puts
   expire mid-cell and the expiry/overwrite retire churn the cell
   measures is the real serving pipeline, not just inserts. *)
let kv_mixes = [ ("kv-read95", 95); ("kv-write50", 50) ]

let kv_cell ~threads ~duration ~scale ~structure ~read_pct
    ((name, (module K : Kv_intf.S)) : string * (module Kv_intf.S)) =
  let t = K.create ~shards:4 ~buckets:(max 64 (scale / 8)) ~max_threads:(threads + 1) () in
  let c0 = K.ctx t 0 in
  for k = 0 to (scale / 2) - 1 do
    ignore (K.put c0 ~now:0 k k)
  done;
  K.flush c0;
  let probe =
    {
      p_worker =
        (fun pid continue ->
          let c = K.ctx t pid in
          let kg =
            Keygen.create ~seed:(7919 * pid) ~range:scale (Keygen.Zipfian { theta = 0.99 })
          in
          let rng = Repro_util.Rng.create ~seed:(104729 * pid) in
          let n = ref 0 in
          while continue !n do
            let now = K.now t in
            for _ = 1 to 64 do
              let key = Keygen.next kg in
              let r = Repro_util.Rng.int rng 100 in
              if r < read_pct then ignore (K.get c ~now key)
              else if r mod 5 = 0 then ignore (K.remove c ~now key)
              else
                let ttl = if r land 3 = 0 then Some 64 else None in
                ignore (K.put c ~now ?ttl key r)
            done;
            n := !n + 64
          done;
          K.flush c);
      p_live =
        (fun () ->
          ignore (K.tick t);
          K.live_objects t);
      p_backlog = (fun () -> K.retired_backlog t);
      p_finish =
        (fun () ->
          K.teardown t;
          K.live_objects t);
    }
  in
  measure ~scheme:name ~structure ~threads ~duration probe

(* ---------------- atomic-op profiles ---------------- *)

(* The three schedule-explored cores, re-instantiated over the
   counting shim. Counts are exact and deterministic: each script is
   single-domain, contention-free, and pinned so its per-op cost is a
   protocol invariant, not a measurement. *)
module C = Sched.Counting
module Sticky_c = Sticky.Sticky_counter_f.Make (C)
module Slot_c = Acquire_retire.Slot_protocol.Make (C)
module Cell_c = Cdrc.Rc_cell.Make (C)

let profile_ops = 1000

let profile ~core ~op body : Obs.Perf.atomic_profile =
  C.reset ();
  for _ = 1 to profile_ops do
    body ()
  done;
  let c = C.snapshot () in
  {
    Obs.Perf.a_core = core;
    a_op = op;
    a_ops = profile_ops;
    a_gets = c.C.gets;
    a_sets = c.C.sets;
    a_exchanges = c.C.exchanges;
    a_cas = c.C.cas;
    a_cas_failures = c.C.cas_failures;
    a_faa = c.C.faa;
  }

let atomic_profiles () =
  let sticky = Sticky_c.create 1 in
  let slots = Slot_c.create ~slots_per_thread:2 ~max_threads:1 () in
  let shared = C.make 7 in
  let cell = Cell_c.make 0 in
  [
    (* Revive-free increment + non-final decrement: the refcount hot
       path. 2 FAA/op. *)
    profile ~core:"sticky" ~op:"inc_dec" (fun () ->
        ignore (Sticky_c.increment_if_not_zero sticky);
        ignore (Sticky_c.decrement sticky));
    (* Linearizable read of a live counter. 1 get/op. *)
    profile ~core:"sticky" ~op:"load" (fun () -> ignore (Sticky_c.load sticky));
    (* Uncontended death: final decrement announces with one CAS. *)
    profile ~core:"sticky" ~op:"death" (fun () ->
        let t = Sticky_c.create 1 in
        ignore (Sticky_c.decrement t));
    (* Announce→confirm→release on an unchanging location: the
       hazard-pointer read path. 3 gets (pre-read, settle re-read,
       confirm) + 2 sets (announce, release) per op — the [read]
       closure is itself a counted get. *)
    profile ~core:"slot" ~op:"protect_release" (fun () ->
        let _, g = Slot_c.protect_read slots ~pid:0 ~read:(fun () -> C.get shared) in
        Slot_c.release slots ~pid:0 g);
    (* Retire one identity and eject it: the scan reads every slot. *)
    profile ~core:"slot" ~op:"retire_eject" (fun () ->
        Slot_c.retire slots ~pid:0 1 (fun () -> ());
        ignore (Slot_c.eject slots ~pid:0));
    (* Fig 9 weak upgrade + matching drop on a live control block. *)
    profile ~core:"rc_cell" ~op:"upgrade_drop" (fun () ->
        ignore (Cell_c.try_upgrade cell);
        ignore (Cell_c.strong_decrement cell));
    (* Value-cell dereference. 1 get/op. *)
    profile ~core:"rc_cell" ~op:"read" (fun () -> ignore (Cell_c.read cell));
    (* Full disposal: final strong decrement, take the value, final
       weak decrement frees the block. *)
    profile ~core:"rc_cell" ~op:"dispose" (fun () ->
        let cb = Cell_c.make 0 in
        ignore (Cell_c.strong_decrement cb);
        ignore (Cell_c.take cb);
        ignore (Cell_c.weak_decrement cb));
  ]

(* The pinned per-op expectations for these scripts live in
   test/test_perf.ml; a change there is a change to a core protocol's
   atomic footprint and should be deliberate. *)

(* ---------------- the matrix ---------------- *)

let run ?(label = "perf") ?(threads = default_threads) ?(duration = default_duration)
    ?(scale = default_scale) ?(log = fun (_ : string) -> ()) () =
  let metrics_were = Obs.Metrics.enabled () in
  let trace_were = Obs.Trace.enabled () in
  let measured =
    List.concat_map
      (fun p ->
        log (Printf.sprintf "P=%d: %d stacks" p (List.length Instances.stacks));
        let st = List.map (stack_cell ~threads:p ~duration ~scale) Instances.stacks in
        log (Printf.sprintf "P=%d: %d queues" p (List.length Instances.queues));
        let qs = List.map (queue_cell ~threads:p ~duration ~scale) Instances.queues in
        let sets = Instances.all_sets Instances.Hash_s in
        log (Printf.sprintf "P=%d: %d hash sets" p (List.length sets));
        let hs = List.map (hash_cell ~threads:p ~duration ~scale) sets in
        let kvs =
          List.concat_map
            (fun (structure, read_pct) ->
              log
                (Printf.sprintf "P=%d: %d KV services (%s)" p
                   (List.length Instances.kv_services) structure);
              List.map
                (kv_cell ~threads:p ~duration ~scale ~structure ~read_pct)
                Instances.kv_services)
            kv_mixes
        in
        st @ qs @ hs @ kvs)
      threads
  in
  Obs.Report.reset_all ();
  Obs.Metrics.set_enabled metrics_were;
  Obs.Trace.set_enabled trace_were;
  let summary =
    {
      Obs.Perf.s_meta =
        {
          Obs.Perf.m_label = label;
          m_git_sha = git_sha ();
          m_host_domains = Domain.recommended_domain_count ();
          m_duration = duration;
          m_threads = threads;
          m_scale = scale;
        };
      s_cells = List.map fst measured;
      s_atomics = atomic_profiles ();
    }
  in
  let failures =
    List.map
      (fun ((c : Obs.Perf.cell), errors) -> (Harness.cell_name c.c_scheme c.c_structure c.c_threads, errors))
      measured
  in
  (summary, failures)

(* Scheme coverage a full-matrix run must achieve — the 7 reclamation
   schemes of the evaluation (§5 plus our HE/PTB/None extensions). *)
let required_schemes = [ "EBR"; "IBR"; "HP"; "HE"; "Hyaline"; "PTB"; "None" ]
