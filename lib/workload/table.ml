(** The experiment table (DESIGN.md §4): every figure, ablation,
    perf-matrix cell and fault experiment of the evaluation is a row of
    data, run by one runner.

    A row lists its instances (one per scheme, each a kernel: prefill
    plus a {!Harness} worker), the axis it sweeps, the size its kernels
    derive theirs from, whether telemetry is on and the faults its
    cells inject. {!sweep} turns every (instance × thread count × knob
    value) into an {!outcome}: an {!Obs.Perf.cell} plus the columns the
    tables print. Figure tables ({!run}), the [perf] matrix
    ({!Perf_runner}), [stats <EXP>], the bench suite, [cdrc-bench kv]
    ({!kv_row}) and the robustness fault row are selections and
    renderings of these rows. A cell fails when a worker dies, its
    kernel's check reports a violation, or its teardown leaves a block
    live. EXPERIMENTS.md records paper-vs-measured outcomes. *)

module Rng = Repro_util.Rng

(* What the coordinator needs from a prefilled instance: its worker,
   how to observe memory, how to check it at quiescence and how to
   tear it down (blocks still live after [teardown] are the leak
   figure). Set, KV and fault kernels fill the optional fields. *)
type probe = {
  worker : int -> (int -> bool) -> unit;
  live : unit -> int;
  backlog : unit -> int;
  peak : unit -> int option; (* exact heap peak since the prefill *)
  uaf : unit -> int;
  snapshots : unit -> (int * int) option; (* RC (fast, slow) snapshot paths *)
  stalled : unit -> bool; (* the reclamation watchdog's verdict *)
  check : unit -> string list; (* violations, once the workers have stopped *)
  recover : unit -> unit; (* reap the fault's victim *)
  columns : unit -> (string * int) list; (* named results, read after [check] *)
  teardown : unit -> unit;
}

let probe ?(peak = fun () -> None) ?(uaf = fun () -> 0) ?(snapshots = fun () -> None)
    ?(stalled = fun () -> false) ?(check = fun () -> []) ?(recover = ignore)
    ?(columns = fun () -> []) ~live ~backlog ~teardown worker =
  { worker; live; backlog; peak; uaf; snapshots; stalled; check; recover; columns; teardown }

(* One cell's inputs: its thread count, the row's knob value when the
   row sweeps one, [keys], the size every kernel derives its own from
   (a key range, or twice a prefill), and a fresh plan of the row's
   faults. *)
type setup = {
  threads : int;
  knob : (string * int) option;
  keys : int;
  plan : Fault.Fault_plan.t;
}

type instance = string * (setup -> probe)

type axis =
  | Threads  (** one cell per thread count *)
  | Workers of int  (** one cell at this many workers, whatever the thread counts *)
  | Knob of string * int list  (** thread count × knob value, read by the kernel *)
  | Telemetry  (** thread count × telemetry off, then on *)

type requirement = Key of string | Prefix of string

type row = {
  id : string;
  title : string;
  expected : string; (* the paper's qualitative result *)
  structure : string; (* the middle field of every cell key *)
  keys : int; (* at --scale 1 *)
  axis : axis;
  instances : instance list;
  telemetry : bool; (* on: reset per cell, sampled every 2 ms like a fault row *)
  selectable : bool; (* its command takes --schemes *)
  repeats : int; (* > 1: each cell runs that often and medians are reported *)
  needs : requirement list; (* counters [stats --check] demands nonzero *)
  faults : Fault.Fault_plan.rule list; (* a fault row recovers at half the run *)
}

(* ---------------- kernels ---------------- *)

(* Each structure's prefill and worker, defined once. Workers check
   [continue] every batch: [iters] steps counted as [ops] operations. *)
let batches ?(iters = 64) ?(ops = 64) continue step =
  let n = ref 0 in
  while continue !n do
    for i = 1 to iters do
      step i
    done;
    n := !n + ops
  done

let knob (s : setup) name = match s.knob with Some (n, v) when n = name -> Some v | _ -> None

(* A check's violations: the messages of the conditions that fail. *)
let violations conds = List.filter_map (fun (ok, v) -> if ok then None else Some v) conds

type mix = { update_pct : int; rq_pct : int; rq_size : int; halves : bool }

let mix ?(rq_pct = 0) ?(rq_size = 64) ?(halves = false) update_pct =
  { update_pct; rq_pct; rq_size; halves }

(* [init] distinct keys drawn from [0, keys). *)
let set_prefill (type c) (module D : Ds.Set_intf.S with type ctx = c) (c : c) rng ~keys ~init =
  let filled = ref 0 in
  while !filled < init do
    if D.insert c (Rng.int rng keys) then incr filled
  done

(* One operation of the mix: [update_pct]% updates, [rq_pct]% range
   queries, the rest lookups. An update inserts on an even draw and
   removes on an odd one, or, with [halves], inserts in the lower half
   of the update band and removes in the upper. *)
let set_op (type c) (module D : Ds.Set_intf.S with type ctx = c) m ~keys rng (c : c) =
  let r = Rng.int rng 100 in
  let key = Rng.int rng keys in
  if r < m.update_pct then
    let insert = if m.halves then r < m.update_pct / 2 else r land 1 = 0 in
    if insert then ignore (D.insert c key) else ignore (D.remove c key)
  else if r < m.update_pct + m.rq_pct then ignore (D.range_query c key (key + m.rq_size))
  else ignore (D.contains c key)

(* The paper's methodology (§5): keys from a range of [keys], half of
   it prefilled from seed 42, worker [pid] seeded [base + 7919 pid];
   the knobs [slots] and [epoch_freq] reach the scheme. *)
let set_kernel ?buckets ?(init = fun k -> k / 2) ?(base = 42) m (module D : Ds.Set_intf.S) :
    instance =
  let seed = 42 in
  ( D.name,
    fun s ->
      let keys = max 32 s.keys in
      let d =
        D.create
          ?buckets:(Option.map (fun f -> f s.keys) buckets)
          ?slots_per_thread:(knob s "slots") ?epoch_freq:(knob s "epoch_freq")
          ~max_threads:(s.threads + 1) ()
      in
      let c0 = D.ctx d 0 in
      set_prefill (module D) c0 (Rng.create ~seed) ~keys ~init:(max 16 (init s.keys));
      D.flush c0;
      D.reset_peak d;
      probe
        ~peak:(fun () -> Some (D.peak_objects d))
        ~uaf:(fun () -> D.uaf_events d)
        ~snapshots:(fun () -> D.snapshot_stats d)
        ~stalled:(fun () -> D.stalled d)
        ~live:(fun () -> D.live_objects d)
        ~backlog:(fun () -> D.retired_backlog d)
        ~teardown:(fun () -> D.teardown d)
        (fun pid continue ->
          let c = D.ctx d pid in
          let rng = Rng.create ~seed:(base + (pid * 7919)) in
          batches continue (fun _ -> set_op (module D) m ~keys rng c);
          D.flush c) )

(* [keys / 2] elements prefilled. [pairs]: 32 push/pop pairs a batch;
   otherwise 64 seeded coin flips between push and pop. *)
let stack_kernel ~pairs (module St : Instances.STACK) : instance =
  ( St.name,
    fun s ->
      let st = St.create ~max_threads:(s.threads + 1) () in
      let c0 = St.ctx st 0 in
      for i = 1 to s.keys / 2 do
        St.push c0 i
      done;
      St.flush c0;
      probe
        ~live:(fun () -> St.live_objects st)
        ~backlog:(fun () -> St.retired_backlog st)
        ~teardown:(fun () -> St.teardown st)
        (fun pid continue ->
          let c = St.ctx st pid in
          (if pairs then
             batches ~iters:32 continue (fun i ->
                 St.push c i;
                 ignore (St.pop c))
           else
             let rng = Rng.create ~seed:(7919 * pid) in
             batches continue (fun i -> if Rng.bool rng then St.push c i else ignore (St.pop c)));
          St.flush c) )

(* The Fig 12 kernel: [max P (keys / 64)] elements prefilled, then
   each worker pops an element and pushes it straight back. *)
let queue_kernel (module Q : Ds.Queue_intf.S) : instance =
  ( Q.name,
    fun s ->
      let q = Q.create ~max_threads:(s.threads + 1) () in
      let c0 = Q.ctx q 0 in
      for i = 1 to max s.threads (s.keys / 64) do
        Q.enqueue c0 i
      done;
      Q.flush c0;
      probe
        ~live:(fun () -> Q.live_objects q)
        ~backlog:(fun () -> Q.retired_backlog q)
        ~teardown:(fun () -> Q.teardown q)
        (fun pid continue ->
          let c = Q.ctx q pid in
          batches ~iters:32 continue (fun _ ->
              match Q.dequeue c with Some v -> Q.enqueue c v | None -> ());
          Q.flush c) )

(* One fresh counter at 1 per cell; a batch is 64 inc-if-not-zero +
   decrement pairs, 128 operations. *)
let counter_kernel name create inc dec : instance =
  ( name,
    fun _ ->
      let t = create 1 in
      probe
        ~live:(fun () -> 0)
        ~backlog:(fun () -> 0)
        ~teardown:ignore
        (fun _ continue -> batches ~ops:128 continue (fun _ -> if inc t then ignore (dec t))) )

(* [keys / 2] fresh puts, [k -> k] for [k] in [0, keys / 2), then a
   flush. *)
let kv_prefill (type c) (module K : Kv_intf.S with type ctx = c) (c0 : c) ~keys =
  for k = 0 to (keys / 2) - 1 do
    ignore (K.put c0 ~now:0 k k)
  done;
  K.flush c0

(* A KV kernel's check: sweep the expired entries, then demand both
   {!Kv_intf} accounting identities, each within [slack]. *)
let kv_accounting (type t c) (module K : Kv_intf.S with type t = t and type ctx = c) (t : t)
    (c0 : c) ~slack =
  let now = K.now t in
  ignore (K.expire_sweep c0 ~now);
  let node, box = Kv_intf.identity_deltas (K.counters t) ~size:(K.size t ~now) in
  violations
    [
      ( abs node <= slack && abs box <= slack,
        Printf.sprintf "accounting identities off by node=%d box=%d (slack %d)" node box slack );
    ]

(* The sharded KV store under Zipfian skew: [shards] shards (knob,
   default 4), [keys / 2] puts prefilled. The sampler doubles as the
   service clock (one tick per observation), so TTL'd puts expire
   mid-cell and the cell measures the real expiry/overwrite retire
   churn. *)
let kv_kernel ~read_pct ((name, (module K : Kv_intf.S)) : string * (module Kv_intf.S)) :
    instance =
  ( name,
    fun s ->
      let shards = Option.value (knob s "shards") ~default:4 in
      let t = K.create ~shards ~buckets:(max 64 (s.keys / 8)) ~max_threads:(s.threads + 1) () in
      let c0 = K.ctx t 0 in
      kv_prefill (module K) c0 ~keys:s.keys;
      let check () = kv_accounting (module K) t c0 ~slack:0 in
      probe ~check
        ~live:(fun () ->
          ignore (K.tick t);
          K.live_objects t)
        ~backlog:(fun () -> K.retired_backlog t)
        ~teardown:(fun () -> K.teardown t)
        (fun pid continue ->
          let c = K.ctx t pid in
          let kg = Keygen.create ~seed:(7919 * pid) ~range:s.keys (Zipfian { theta = 0.99 }) in
          let rng = Rng.create ~seed:(104729 * pid) in
          let now = ref 0 in
          batches continue (fun i ->
              if i = 1 then now := K.now t;
              let key = Keygen.next kg in
              let r = Rng.int rng 100 in
              if r < read_pct then ignore (K.get c ~now:!now key)
              else if r mod 5 = 0 then ignore (K.remove c ~now:!now key)
              else
                let ttl = if r land 3 = 0 then Some 64 else None in
                ignore (K.put c ~now:!now ?ttl key r));
          K.flush c) )

(* ---------------- the rows ---------------- *)

let set_needs = [ Key "smr.ebr.retire"; Key "smr.ebr.eject.ops"; Prefix "cdrc."; Prefix "ar." ]
let rc_needs = [ Prefix "smr."; Prefix "cdrc." ]

(* Telemetry is off for figure rows and on for perf rows. *)
let row ?(telemetry = false) ?(selectable = false) ?(keys = 0) ?(axis = Threads) ?(repeats = 1)
    ?(needs = []) ?(faults = []) ~id ~title ~expected structure instances =
  { id; title; expected; structure; keys; axis; instances; telemetry; selectable; repeats; needs;
    faults }

(* A fault kernel's scheme, wrapped to inject from its cell's plan. *)
let faulty (module S : Smr.Smr_intf.S) plan : (module Smr.Smr_intf.S) =
  (module Fault.Faulty_smr.Make
            (S)
            (struct
              let plan = plan
            end))

(* A row over every scheme's instance of [structure] lets --schemes
   pick among them; [sets] pins the instances instead. *)
let set_row ?buckets ?init ?keys ?axis ?sets ?(needs = set_needs) ~id ~title ~expected structure
    m =
  row ?keys ?axis ~needs ~selectable:(Option.is_none sets) ~id ~title ~expected
    (Instances.structure_name structure)
    (List.map (set_kernel ?buckets ?init m)
       (Option.value sets ~default:(Instances.all_sets structure)))

let tree_fig ~id ~title ~expected m = set_row ~keys:200_000 ~id ~title ~expected Tree_s m

let figures =
  [
    tree_fig ~id:"fig11" ~title:"Fig 11: NM tree, 50% updates / 50% range queries (size 64)"
      ~expected:
        "RC{EBR,IBR,Hyaline} >> RCHP (paper: >7x at 144T; RCHP exhausts announcement slots \
         on range queries); RC within 10-15% of manual"
      (mix 50 ~rq_pct:50);
    set_row ~keys:2_000 ~id:"fig13a"
      ~title:"Fig 13a: Harris-Michael list, 10% updates / 90% lookups, 1K keys"
      ~expected:
        "region schemes > pointer schemes; RC versions close to manual but with higher \
         memory (between flushes a removed chain is reclaimed one link per eject round; \
         flush reclaims it all)"
      List_s (mix 10);
    set_row ~keys:200_000
      ~buckets:(fun k -> max 16 (k / 2))
      ~id:"fig13b"
      ~title:"Fig 13b: Michael hash table, 10% updates / 90% lookups, 100K keys, load factor 1"
      ~expected:"all schemes close (shallow buckets); RCEBR ~ EBR" Hash_s (mix 10);
    tree_fig ~id:"fig13c" ~title:"Fig 13c: NM tree, 10% updates / 90% lookups, 100K keys"
      ~expected:"RCEBR within 10% of EBR and up to ~1.7x faster than RCHP" (mix 10);
    tree_fig ~id:"fig13d" ~title:"Fig 13d: NM tree, 50% updates / 50% lookups, 100K keys"
      ~expected:"same ordering as 13c with larger RC-vs-manual gaps" (mix 50);
    tree_fig ~id:"fig13e" ~title:"Fig 13e: NM tree, 1% updates / 99% lookups, 100K keys"
      ~expected:
        "RCEBR ~ EBR (near-identical); RCHyaline slightly faster than Hyaline; RCIBR ~20% \
         slower than IBR"
      (mix 1);
    tree_fig ~id:"fig13f" ~title:"Fig 13f: NM tree, 100% updates, 100K keys (memory stress)"
      ~expected:
        "manual and automatic track each other on throughput; automatic uses several times \
         more memory when oversubscribed"
      (mix 100);
    row ~id:"fig12" ~title:"Fig 12: weak-pointer doubly-linked queue, P threads pop-then-push"
      ~expected:
        "Original > ours (RC-weak) >> locked stand-in at high thread counts; ours within \
         ~19-33% of Original beyond 1 thread"
      ~needs:rc_needs ~selectable:true "queue"
      (List.map queue_kernel Instances.queues);
    (* §4.3: O(1) vs O(P) amortized increments under contention. *)
    row ~id:"abl-sticky" ~title:"Ablation: wait-free sticky counter vs CAS loop"
      ~expected:"sticky sustains higher inc/dec throughput as contention grows" "counter"
      [
        counter_kernel "sticky" Sticky.Sticky_counter.create
          Sticky.Sticky_counter.increment_if_not_zero Sticky.Sticky_counter.decrement;
        counter_kernel "casloop" Sticky.Casloop_counter.create
          Sticky.Casloop_counter.increment_if_not_zero Sticky.Casloop_counter.decrement;
      ];
    (* §5.1's tuning: the throughput vs memory trade-off. *)
    set_row ~keys:20_000
      ~axis:(Knob ("epoch_freq", [ 1; 10; 40; 160; 640 ]))
      ~sets:[ (module Ds.Nm_tree_rc.Make (Instances.RC_ebr)) ]
      ~needs:rc_needs ~id:"abl-epochfreq"
      ~title:"Ablation: epoch advance frequency (RCEBR on the NM tree, 50% updates)"
      ~expected:"rare advances raise throughput but grow live memory" Tree_s (mix 50);
    (* The mechanism behind Fig 11's RCHP collapse, isolated. *)
    set_row ~keys:20_000
      ~axis:(Knob ("slots", [ 2; 4; 8; 16; 32 ]))
      ~sets:[ (module Ds.Nm_tree_rc.Make (Instances.RC_hp)) ]
      ~needs:rc_needs ~id:"abl-hpslots"
      ~title:"Ablation: RCHP announcement slots vs range-query throughput (NM tree, 50% RQ-64)"
      ~expected:
        "few slots force the count-increment slow path; throughput recovers as slots cover \
         the query path"
      Tree_s (mix 50 ~rq_pct:50);
    row ~id:"ext-stack" ~title:"Extension: Treiber stack, P threads push/pop pairs"
      ~expected:
        "None (no reclamation) is the throughput upper bound and the memory worst case; \
         region schemes close behind; RC versions track their manual counterparts"
      "stack"
      (List.map (stack_kernel ~pairs:true) Instances.stacks);
    (* The disabled path's only cost over uninstrumented code is one
       atomic flag load per hook, so "off" stands in for the
       pre-telemetry baseline. *)
    row ~id:"obs-overhead"
      ~title:"Telemetry overhead: Treiber stack (EBR) push/pop pairs, disabled vs enabled"
      ~expected:"enabled within the DESIGN.md §7 budget (8%) of disabled"
      ~axis:Telemetry ~repeats:3 "stack"
      [ stack_kernel ~pairs:true (module Ds.Treiber_stack_manual.Make (Smr.Ebr)) ];
  ]

(* The pinned perf-trajectory matrix (DESIGN.md §11), in the order its
   cells are emitted at each thread count. *)
let perf_keys = 4096

(* The serving mixes, each with its share of gets: the rest are 80%
   puts (a quarter with a TTL) and 20% removes. *)
let kv_mixes = [ ("read95", 95); ("write50", 50) ]
let kv_instances ~read_pct = List.map (kv_kernel ~read_pct) Instances.kv_services

let perf_rows =
  let perf id structure instances =
    row ~telemetry:true ~keys:perf_keys ~id ~title:("perf: " ^ structure) ~expected:""
      structure instances
  in
  [
    perf "perf-stack" "stack" (List.map (stack_kernel ~pairs:false) Instances.stacks);
    perf "perf-queue" "queue" (List.map queue_kernel Instances.queues);
    (* 50% updates keep the retire pipeline busy so the latency
       histograms have substance at smoke scale. *)
    perf "perf-hash" "hash"
      (List.map
         (set_kernel ~buckets:(fun k -> max 64 (k / 8)) ~base:0 (mix 50 ~halves:true))
         (Instances.all_sets Hash_s));
  ]
  @ List.map
      (fun (mix, read_pct) ->
        perf ("perf-kv-" ^ mix) ("kv-" ^ mix) (kv_instances ~read_pct))
      kv_mixes

(* [cdrc-bench kv]'s row for one mix: the perf matrix's KV cells over
   [keys] keys, one cell per shard count. *)
let kv_row ~keys ~shards mix =
  match List.assoc_opt (String.lowercase_ascii mix) kv_mixes with
  | None -> Error (Printf.sprintf "unknown mix %S (read95 | write50)" mix)
  | Some read_pct ->
      Ok
        (row ~telemetry:true ~keys
           ~axis:(Knob ("shards", shards))
           ~id:"kv"
           ~title:
             (Printf.sprintf "KV serving: sharded RC hash store, Zipf 0.99 keys, %d%% gets"
                read_pct)
           ~expected:
             "None (its decrements wait for teardown) holds the most live blocks, the \
              reclaiming schemes about the same; every cell keeps both accounting \
              identities and leaks nothing"
           ("kv-" ^ mix) (kv_instances ~read_pct))

(* A set row from the [custom] command's flags: [size] keys prefilled
   from a range of [range]; --scale shrinks both. *)
let custom ~structure ~update ~rq ~rq_size ~size ~range =
  set_row ~keys:range
    ~init:(fun k -> k * size / range)
    ~id:"custom"
    ~title:
      (Printf.sprintf "custom: %s, %d%% updates / %d%% RQ(%d), %d keys"
         (Instances.structure_name structure) update rq rq_size size)
    ~expected:"(custom workload)" structure
    (mix update ~rq_pct:rq ~rq_size)

(* ---------------- the runner ---------------- *)

type outcome = {
  key : string; (* the cell key, with the knob value when there is one *)
  cell : Obs.Perf.cell; (* c_peak_live: the sampled peak *)
  elapsed : float; (* measured seconds, c_ops and c_mops's *)
  live_avg : float; (* mean of the sampled live blocks *)
  peak : int; (* the exact heap peak where the kernel tracks one, else sampled *)
  uaf : int; (* use-after-free events caught, plus safety-violation deaths *)
  failed : int; (* other worker deaths: harness or structure bugs *)
  snap_slow : float option; (* RC only: slow-path snapshot share *)
  watchdog : string list; (* Stuck verdicts raised during the cell *)
  columns : (string * int) list; (* the kernel's named results *)
  faults : Fault.Fault_plan.event list; (* what the cell's plan fired, in order *)
  errors : Harness.errors; (* deaths, plus Leak (blocks) and Invalid (check violations) *)
}

(* Time-series gauges published by a figure row's sampler when
   telemetry is on. *)
let live_gauge = Obs.Metrics.gauge "sampler.live_blocks"
let backlog_gauge = Obs.Metrics.gauge "sampler.retired_backlog"
let ops_gauge = Obs.Metrics.gauge "sampler.ops_per_s"
let quantiles suffix = Obs.Perf.quantiles_of_counts (Obs.Histo.merged_suffix suffix)

(* One cell, keyed [scheme/structure/P] plus [suffix]. [telemetry =
   Some true] starts it from reset telemetry, which is what attributes
   each [smr.*] histogram alive after it to this cell's scheme; [Some
   false] turns telemetry off; [None] leaves the flags as the caller
   set them ([stats] turns them on for a whole row). *)
let run_cell ~duration ~suffix ~telemetry row (s : setup) ((name, make) : instance) =
  let key = Harness.cell_name name row.structure s.threads ^ suffix in
  let p = make s in
  let metrics_were = Obs.Metrics.enabled () in
  let trace_were = Obs.Trace.enabled () in
  Option.iter
    (fun on ->
      if on then Obs.Report.reset_all ();
      Obs.Metrics.set_enabled on;
      (* Reclaim-latency sampling rides [Trace.should_sample]. *)
      Obs.Trace.set_enabled on)
    telemetry;
  ignore (Obs.Verdicts.drain ());
  let samples = ref [] in
  let peak_live = ref 0 in
  let peak_backlog = ref 0 in
  let observe () =
    let live = p.live () in
    let backlog = p.backlog () in
    peak_live := max !peak_live live;
    peak_backlog := max !peak_backlog backlog;
    (live, backlog)
  in
  (* A fault row recovers at half the run. *)
  let recover_at = ref (if row.faults <> [] then duration /. 2. else infinity) in
  let last = ref (0., 0) in
  let sample ~elapsed ~ops =
    let live, backlog = observe () in
    samples := float_of_int live :: !samples;
    (* A perf row's sampler only tracks the peaks: its cells measure
       the structure, not the sampler. *)
    let series = (not row.telemetry) && Obs.Metrics.enabled () in
    (* Sampling the watchdog records its Stuck verdicts. *)
    if series || row.faults <> [] then ignore (p.stalled ());
    if series then begin
      let t0, ops0 = !last in
      let dt = elapsed -. t0 in
      let rate = if dt > 0. then int_of_float (float_of_int (ops - ops0) /. dt) else 0 in
      last := (elapsed, ops);
      Obs.Metrics.set_gauge live_gauge live;
      Obs.Metrics.set_gauge backlog_gauge backlog;
      Obs.Metrics.set_gauge ops_gauge rate;
      let t_ms = int_of_float (elapsed *. 1000.) in
      Obs.Trace.emit ~pid:0 (Obs.Trace.Sample { t_ms; ops_per_s = rate; live; backlog })
    end;
    if elapsed >= !recover_at then begin
      recover_at := infinity;
      p.recover ()
    end
  in
  let period = if row.telemetry || row.faults <> [] then 0.002 else 0.01 in
  let h = Harness.run ~name:key ~threads:s.threads ~duration ~sample:(period, sample) p.worker in
  let final_live, _ = observe () in
  let snap_slow =
    Option.map
      (fun (fast, slow) -> float_of_int slow /. float_of_int (max 1 (fast + slow)))
      (p.snapshots ())
  in
  let peak = Option.value (p.peak ()) ~default:!peak_live in
  let uaf = p.uaf () in
  let violations = p.check () in
  let columns = p.columns () in
  p.teardown ();
  let leaked = p.live () in
  List.iter (fun v -> Format.eprintf "[%s] %s@." key v) violations;
  let reclaim = quantiles ".reclaim_latency" in
  let eject = quantiles ".eject.batch_size" in
  if telemetry <> None then begin
    Obs.Metrics.set_enabled metrics_were;
    Obs.Trace.set_enabled trace_were
  end;
  let safety = Harness.count h.errors "Use_after_free" + Harness.count h.errors "Double_free" in
  {
    key;
    cell =
      {
        Obs.Perf.c_scheme = name;
        c_structure = row.structure;
        c_threads = s.threads;
        c_ops = h.ops;
        c_mops = h.mops;
        c_reclaim = reclaim;
        c_eject_batch = eject;
        c_peak_live = !peak_live;
        c_peak_backlog = !peak_backlog;
        c_leaked = leaked;
      };
    elapsed = h.elapsed;
    live_avg =
      (match !samples with
      | [] -> float_of_int final_live
      | l -> Repro_util.Stats.mean (Array.of_list l));
    peak;
    uaf = uaf + safety;
    failed = Harness.total h.errors - safety;
    snap_slow;
    watchdog = Obs.Verdicts.drain ();
    columns;
    faults = Fault.Fault_plan.trace s.plan;
    errors =
      List.sort compare
        (h.errors
        @ (if leaked > 0 then [ ("Leak", leaked) ] else [])
        @ if violations = [] then [] else [ ("Invalid", List.length violations) ]);
  }

(* Resolve a [--schemes] list against the row's instances. *)
let select row schemes =
  Instances.select ~find:(Instances.find_named fst row.instances) row.instances schemes

(* Every cell of [instances] under [row]: repeats outermost, then
   thread counts, then the axis's values. [keys] overrides [row.keys /
   scale]. [on_cell] sees each outcome as it completes. *)
let sweep ?(threads = [ 1; 2; 4 ]) ?(duration = 0.4) ?(scale = 1) ?keys ?(repeats = 1)
    ?(on_cell = ignore) row instances =
  let keys = Option.value keys ~default:(row.keys / scale) in
  let own = if row.telemetry then Some true else None in
  (* (key suffix, knob, telemetry) of each cell at one thread count *)
  let variants =
    match row.axis with
    | Threads | Workers _ -> [ ("", None, own) ]
    | Knob (n, vs) -> List.map (fun v -> (Printf.sprintf " %s=%d" n v, Some (n, v), own)) vs
    | Telemetry -> [ (" telemetry off", None, Some false); (" telemetry on", None, Some true) ]
  in
  let threads = match row.axis with Workers n -> [ n ] | _ -> threads in
  List.concat_map
    (fun _ ->
      List.concat_map
        (fun threads ->
          List.concat_map
            (fun (suffix, knob, telemetry) ->
              List.map
                (fun inst ->
                  let plan = Fault.Fault_plan.create row.faults in
                  let s = { threads; knob; keys; plan } in
                  let o = run_cell ~duration ~suffix ~telemetry row s inst in
                  on_cell o;
                  o)
                instances)
            variants)
        threads)
    (List.init repeats Fun.id)

(* ---------------- rendering ---------------- *)

let pp_outcome ppf o =
  let c = o.cell in
  let flag cond fmt = if cond then Format.fprintf ppf fmt else Format.ifprintf ppf fmt in
  Format.fprintf ppf "%-26s %8.3f Mops/s  ops=%-10d" o.key c.c_mops c.c_ops;
  Format.fprintf ppf " live(avg)=%-9.0f peak=%-9d" o.live_avg o.peak;
  flag (c.c_leaked > 0) "  LEAK=%d" c.c_leaked;
  flag (o.uaf > 0) "  UAF=%d" o.uaf;
  flag (o.failed > 0) "  FAILED-WORKERS=%d" o.failed;
  (match o.snap_slow with
  | Some s when s > 0.0005 -> Format.fprintf ppf "  slow-snap=%.1f%%" (100. *. s)
  | _ -> ());
  flag (o.watchdog <> []) "  WATCHDOG=%d" (List.length o.watchdog);
  List.iter (fun (k, v) -> Format.fprintf ppf "  %s=%d" k v) o.columns

(* Median throughput per cell key over a row's repeats. *)
let print_medians repeats outcomes =
  let keys = List.sort_uniq compare (List.map (fun o -> o.key) outcomes) in
  Format.printf "median of %d repeats:@." repeats;
  List.iter
    (fun k ->
      let mops = List.filter_map (fun o -> if o.key = k then Some o.cell.c_mops else None) in
      let median = Repro_util.Stats.median (Array.of_list (mops outcomes)) in
      Format.printf "  %-26s %8.3f Mops/s@." k median)
    keys;
  Format.printf "@."

(** Print [row]'s table — a header, one line per cell, a blank line
    between thread counts — and return the command's exit status: 2
    when a [--schemes] name is unknown (nothing runs), 1 when a cell
    failed (each named on stderr by {!Harness.status}), else 0. *)
let run ?threads ?duration ?(schemes = []) ?scale ?repeats row =
  match select row schemes with
  | Error e ->
      Format.eprintf "%s: %s@." row.id e;
      2
  | Ok instances ->
      Format.printf "@.== %s ==@.expected: %s@.@." row.title row.expected;
      let last_p = ref 0 in
      let on_cell o =
        if !last_p <> 0 && o.cell.c_threads <> !last_p then Format.printf "@.";
        last_p := o.cell.c_threads;
        Format.printf "%a@." pp_outcome o;
        List.iter (fun e -> Format.printf "    [fault] %a@." Fault.Fault_plan.pp_event e) o.faults
      in
      let repeats = Option.value repeats ~default:row.repeats in
      let outcomes =
        sweep ?threads ?duration ?scale ~repeats ~on_cell row instances
      in
      Format.printf "@.";
      if repeats > 1 then print_medians repeats outcomes;
      Harness.status (List.map (fun o -> (o.key, o.errors)) outcomes)
