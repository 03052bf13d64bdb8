(** The pinned perf-trajectory matrix behind [cdrc-bench perf] and
    `tools/bench_check` (DESIGN.md §11).

    One run measures every cell of {!Table.perf_rows} — all Treiber
    stacks, all doubly-linked queues, all hash-table sets, and the
    sharded KV serving store under its read95/write50 mixes — at each
    thread count, with full telemetry on, and assembles an
    {!Obs.Perf.summary}: throughput, retire→free latency and eject
    batch-size quantiles, peak live blocks and peak retired backlog,
    plus the deterministic atomic-op profiles of the three production
    lock-free cores inside a {!Sched.Atomic.counting} window. A worker death is
    tallied by kind under its cell key and returned next to the
    summary, so the perf command exits 1 instead of recording a short
    cell. *)

let git_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let sha = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if sha = "" then "unknown" else sha
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* ---------------- atomic-op profiles ---------------- *)

(* The production cores, run inside a counting window. Counts are exact
   and deterministic: each script is single-domain, contention-free,
   and pinned so its per-op cost is a protocol invariant, not a
   measurement. *)
module C = Sched.Atomic
module Sticky_c = Sticky.Sticky_counter
module Cell_c = Cdrc.Rc_cell
module Ar_hp = Acquire_retire.Make (Smr.Hp)

let profile_ops = 1000

(* A scope body that protects [cell] once. *)
let protect_once s cell () = ignore (Ar_hp.protect s ~ident:Ar_hp.ident cell)

let profile ~core ~op body : Obs.Perf.atomic_profile =
  C.reset ();
  C.counting (fun () ->
      for _ = 1 to profile_ops do
        body ()
      done);
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
  let ar = Ar_hp.create ~slots_per_thread:2 ~max_threads:1 () in
  let node = Ar_hp.alloc ar ~pid:0 () in
  let shared = C.make node in
  let heap = Simheap.create ~name:"profile" () in
  let strong = Cell_c.one () and block = Simheap.alloc heap in
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
    (* Announce→confirm→release on an unchanging location, through the
       production scope over HP: 3 gets (pre-read, settle re-read,
       confirm) + 2 sets (announce, release at scope exit) per op. *)
    profile ~core:"slot" ~op:"protect_release" (fun () ->
        Ar_hp.scope ar ~pid:0 { f = protect_once } shared ());
    (* Retire one node and eject it: the HP scan reads every slot. *)
    profile ~core:"slot" ~op:"retire_eject" (fun () ->
        Ar_hp.retire ar ~pid:0
          (Smr.Deferred.of_fun ~id:(Ar_hp.ident node) ~birth:(Ar_hp.birth_tag node) ignore);
        Ar_hp.eject ~force:true ar ~pid:0);
    (* Fig 9 weak upgrade + matching drop on a live control block. *)
    profile ~core:"rc_cell" ~op:"upgrade_drop" (fun () ->
        ignore (Cell_c.try_upgrade strong);
        ignore (Cell_c.strong_decrement strong));
    (* A dereference's disposed check, one read of the block word.
       1 get/op. *)
    profile ~core:"rc_cell" ~op:"read" (fun () -> ignore (Cell_c.disposed block));
    (* Full disposal of a fresh block: final strong decrement, claim
       the disposal (one add on the block word), final weak decrement
       frees the block (the free is plain, so uncounted). *)
    profile ~core:"rc_cell" ~op:"dispose" (fun () ->
        let strong = Cell_c.one () and weak = Cell_c.one () and block = Simheap.alloc heap in
        ignore (Cell_c.strong_decrement strong);
        ignore (Cell_c.dispose_once block);
        if Cell_c.weak_decrement weak then Simheap.free block);
  ]

(* The pinned per-op expectations for these scripts live in
   test/test_perf.ml; a change there is a change to a core protocol's
   atomic footprint and should be deliberate. *)

(* ---------------- the matrix ---------------- *)

let run ?(label = "perf") ?(log = fun (_ : string) -> ()) ~threads ~duration ~scale () =
  let measured =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun (row : Table.row) ->
            log (Printf.sprintf "P=%d: %d %s" p (List.length row.instances) row.structure);
            Table.sweep ~threads:[ p ] ~duration ~keys:scale row row.instances)
          Table.perf_rows)
      threads
  in
  Obs.Report.reset_all ();
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
      s_cells = List.map (fun (o : Table.outcome) -> o.cell) measured;
      s_atomics = atomic_profiles ();
    }
  in
  (summary, List.map (fun (o : Table.outcome) -> (o.key, o.errors)) measured)

(* Scheme coverage a full-matrix run must achieve — the 7 reclamation
   schemes of the evaluation (§5 plus our HE/PTB/None extensions). *)
let required_schemes = [ "EBR"; "IBR"; "HP"; "HE"; "Hyaline"; "PTB"; "None" ]
