(* RCEBR vs RCHP on three seeded, closed-loop workloads (see README.md).

   One worker, the main domain, issues every operation and waits for
   it before issuing the next. A run is a sequence of rounds; a round
   runs one phase per scheme. Each phase starts from a compacted heap
   and a freshly created runtime, prefills, warms up, and then times
   every call into the structure's public operations from outside,
   checking each result against the sequential model's prediction.
   Every round replays the same op stream. End-to-end timings are
   medians over fixed-size windows of requests, expressed at a
   reference host speed (see [reference_ns]).

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--order ebr-first|hp-first] [--scale K]

   --trace 0 measures the end-to-end metrics. --trace 1 runs a plain
   and a traced phase per scheme per round and reports the per-layer
   metrics: telemetry counters, span timings and primitive probes.
   The last line of stdout is one JSON object
   {correct, attempted, failed, metrics}; the exit code is 1 when any
   operation failed or any block leaked. *)

module Rng = Repro_util.Rng

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Operations *)

let op_enqueue = 0
let op_dequeue = 1
let op_contains = 2
let op_range = 3
let op_get = 4
let op_put = 5
let op_remove = 6
let op_names = [| "enqueue"; "dequeue"; "contains"; "range_query"; "get"; "put"; "remove" |]

(* Result codes: bools are 0/1, a missing value is [none]. *)
let none = -1
let bool_code b = if b then 1 else 0

(* An op stream and the model's expected result of every op and every
   sweep. Ops [0, warm) are the untimed warm-up. Before op i (i > 0) the
   periodic action runs when [tick_every] divides i, then a sweep when
   [sweep_every] does. *)
type stream = {
  prefill : int array;
  kind : int array;
  key : int array;
  arg : int array; (* enqueued/put value, or range width *)
  ttl : int array; (* put TTL in clock ticks; 0 = none *)
  expect : int array;
  sweep_expect : int array; (* indexed by i / sweep_every *)
  warm : int;
  tick_every : int;
  tick_name : string;
  sweep_every : int; (* 0 = no sweeps *)
  calls_per_request : int; (* consecutive calls timed as one request *)
  window : int; (* requests per timing window (see [run_phase]) *)
}

let blank n =
  (Array.make n 0, Array.make n 0, Array.make n 0, Array.make n 0, Array.make n 0)

let shuffled rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* queue-weak: enqueue and dequeue alternate on a prefilled queue, so
   every call allocates or retires a node; the model is a FIFO. A
   request is one enqueue plus one dequeue: an item passing through a
   queue of steady length. (The two calls cost different amounts, so
   a median over single calls would fall in the gap between them.) *)
let gen_queue ~seed ~scale =
  let rng = Rng.create ~seed in
  let warm = 4096 / scale and n = (4096 + 60_000) / scale in
  let prefill = Array.init 1024 (fun _ -> Rng.int rng (1 lsl 30)) in
  let fifo = Queue.of_seq (Array.to_seq prefill) in
  let kind, key, arg, ttl, expect = blank n in
  for i = 0 to n - 1 do
    if i land 1 = 0 then begin
      kind.(i) <- op_enqueue;
      key.(i) <- Rng.int rng (1 lsl 30);
      Queue.push key.(i) fifo
    end
    else begin
      kind.(i) <- op_dequeue;
      expect.(i) <- Option.value ~default:none (Queue.take_opt fifo)
    end
  done;
  { prefill; kind; key; arg; ttl; expect; sweep_expect = [||]; warm; tick_every = 4096;
    tick_name = "flush"; sweep_every = 0; calls_per_request = 2; window = 2048 / scale }

(* The keys of a sorted array in the order that builds a balanced search
   tree: each range's middle key before the keys of its two halves. *)
let balanced_order sorted =
  let out = ref [] in
  let rec go lo hi =
    if lo < hi then begin
      let mid = (lo + hi) / 2 in
      out := sorted.(mid) :: !out;
      go lo mid;
      go (mid + 1) hi
    end
  in
  go 0 (Array.length sorted);
  Array.of_list (List.rev !out)

(* tree-read: a tree holding a random half of [0, range) serves 80%
   contains and 20% 64-key range queries; the model is the static key
   set with prefix counts. The keys are inserted in balanced order, so
   every seed gets a tree of the same depth: in random order the depth,
   and with it the work per op, varied by 9% from seed to seed. *)
let gen_tree ~seed ~scale =
  let rng = Rng.create ~seed in
  let range = 8192 / scale and width = 64 in
  let warm = 2048 / scale and n = (2048 + 25_000) / scale in
  let keys = Array.sub (shuffled rng range) 0 (range / 2) in
  Array.sort compare keys;
  let prefill = balanced_order keys in
  let member = Array.make range false in
  Array.iter (fun k -> member.(k) <- true) prefill;
  let below = Array.make (range + 1) 0 in
  for k = 0 to range - 1 do
    below.(k + 1) <- below.(k) + bool_code member.(k)
  done;
  let kind, key, arg, ttl, expect = blank n in
  for i = 0 to n - 1 do
    let k = Rng.int rng range in
    key.(i) <- k;
    if Rng.int rng 100 < 20 then begin
      kind.(i) <- op_range;
      arg.(i) <- width;
      expect.(i) <- below.(min range (k + width)) - below.(k)
    end
    else begin
      kind.(i) <- op_contains;
      expect.(i) <- bool_code member.(k)
    end
  done;
  { prefill; kind; key; arg; ttl; expect; sweep_expect = [||]; warm; tick_every = 4096;
    tick_name = "flush"; sweep_every = 0; calls_per_request = 1; window = 2048 / scale }

(* kv-zipf: every key prefilled, then Zipf(0.99) keys with 50% get, 35%
   put (a quarter of them with a TTL) and 15% remove; the clock ticks
   every 32 ops and an expiry sweep runs every 8192. The model is a map
   whose entry is live while its expiry is later than now. *)
let gen_kv ~seed ~scale =
  let rng = Rng.create ~seed in
  let keys = 8192 / scale and ttl_ticks = 64 in
  let warm = 4096 / scale and n = (4096 + 60_000) / scale in
  let tick_every = 32 and sweep_every = 8192 / scale in
  let zipf =
    Workload.Keygen.create ~seed:(Rng.next rng) ~range:keys
      (Workload.Keygen.Zipfian { theta = 0.99 })
  in
  let prefill = shuffled rng keys in
  let model = Hashtbl.create keys in
  Array.iter (fun k -> Hashtbl.replace model k (k, max_int)) prefill;
  let now = ref 0 in
  let live k =
    match Hashtbl.find_opt model k with Some (v, exp) when exp > !now -> Some v | _ -> None
  in
  let kind, key, arg, ttl, expect = blank n in
  let sweep_expect = Array.make ((n / sweep_every) + 1) 0 in
  for i = 0 to n - 1 do
    if i > 0 && i mod tick_every = 0 then incr now;
    if i > 0 && i mod sweep_every = 0 then begin
      let dead = Hashtbl.fold (fun k (_, e) acc -> if e <= !now then k :: acc else acc) model [] in
      List.iter (Hashtbl.remove model) dead;
      sweep_expect.(i / sweep_every) <- List.length dead
    end;
    let k = Workload.Keygen.next zipf in
    key.(i) <- k;
    let r = Rng.int rng 100 in
    if r < 50 then begin
      kind.(i) <- op_get;
      (* A get that finds an expired entry claims it. *)
      expect.(i) <- (match live k with Some v -> v | None -> Hashtbl.remove model k; none)
    end
    else if r < 85 then begin
      kind.(i) <- op_put;
      arg.(i) <- Rng.int rng (1 lsl 30);
      if Rng.int rng 4 = 0 then ttl.(i) <- ttl_ticks;
      expect.(i) <- bool_code (live k <> None);
      Hashtbl.replace model k (arg.(i), if ttl.(i) = 0 then max_int else !now + ttl.(i))
    end
    else begin
      kind.(i) <- op_remove;
      expect.(i) <- bool_code (live k <> None);
      Hashtbl.remove model k
    end
  done;
  { prefill; kind; key; arg; ttl; expect; sweep_expect; warm; tick_every; tick_name = "tick";
    sweep_every; calls_per_request = 1; window = 2048 / scale }

let stream_hash s =
  let h = ref (Hashtbl.hash (s.prefill, Array.length s.kind)) in
  let mix x = h := (!h * 0x100000001b3) lxor x in
  Array.iteri
    (fun i k ->
      mix k;
      mix s.key.(i);
      mix s.arg.(i);
      mix s.ttl.(i))
    s.kind;
  !h land 0xffffffffffff

(* ------------------------------------------------------------------ *)
(* Structures under test *)

type inst = {
  exec : int -> int; (* run op i, return its result code *)
  periodic : unit -> unit; (* flush, or a clock tick *)
  sweep : unit -> int;
  live : unit -> int;
  peak : unit -> int;
  reset_peak : unit -> unit;
  backlog : unit -> int;
  gets : unit -> int * int; (* (hits, misses) so far *)
  teardown : unit -> unit;
}

module Scheme (R : Cdrc.Intf.S) = struct
  module Q = Ds.Dl_queue_rc.Make (R)
  module T = Ds.Nm_tree_rc.Make (R)
  module K = Workload.Kv_service.Make (R)

  let of_heap heap ~exec ~periodic ~backlog ~teardown =
    {
      exec;
      periodic;
      sweep = (fun () -> 0);
      live = (fun () -> Simheap.live heap);
      peak = (fun () -> Simheap.peak heap);
      reset_peak = (fun () -> Simheap.reset_peak heap);
      backlog;
      gets = (fun () -> (0, 0));
      teardown;
    }

  let queue s =
    let q = Q.create ~max_threads:1 () in
    let c = Q.ctx q 0 in
    Array.iter (Q.enqueue c) s.prefill;
    of_heap (R.heap q.Q.rt)
      ~exec:(fun i ->
        if s.kind.(i) = op_enqueue then begin
          Q.enqueue c s.key.(i);
          0
        end
        else match Q.dequeue c with Some v -> v | None -> none)
      ~periodic:(fun () -> Q.flush c)
      ~backlog:(fun () -> Q.retired_backlog q)
      ~teardown:(fun () -> Q.teardown q)

  let tree s =
    let t = T.create ~max_threads:1 () in
    let c = T.ctx t 0 in
    Array.iter (fun k -> if not (T.insert c k) then failwith "tree prefill: insert failed") s.prefill;
    of_heap (R.heap t.T.rt)
      ~exec:(fun i ->
        let k = s.key.(i) in
        if s.kind.(i) = op_contains then bool_code (T.contains c k)
        else T.range_query c k (k + s.arg.(i)))
      ~periodic:(fun () -> T.flush c)
      ~backlog:(fun () -> T.retired_backlog t)
      ~teardown:(fun () -> T.teardown t)

  let kv s =
    let t = K.create ~shards:4 ~buckets:256 ~max_threads:1 () in
    let c = K.ctx t 0 in
    Array.iter (fun k -> ignore (K.put c ~now:0 k k)) s.prefill;
    {
      exec =
        (fun i ->
          let k = s.key.(i) and now = K.now t and op = s.kind.(i) in
          if op = op_get then match K.get c ~now k with Some v -> v | None -> none
          else if op = op_put then
            bool_code
              (if s.ttl.(i) = 0 then K.put c ~now k s.arg.(i)
               else K.put c ~now ~ttl:s.ttl.(i) k s.arg.(i))
          else bool_code (K.remove c ~now k));
      periodic = (fun () -> ignore (K.tick t));
      sweep = (fun () -> K.expire_sweep c ~now:(K.now t));
      live = (fun () -> K.live_objects t);
      peak = (fun () -> K.peak_objects t);
      reset_peak = (fun () -> K.reset_peak t);
      backlog = (fun () -> K.retired_backlog t);
      gets =
        (fun () ->
          let x = K.counters t in
          (x.Workload.Kv_intf.gets_hit, x.gets_miss));
      teardown = (fun () -> K.teardown t);
    }

  (* Primitive probes: one atomic shared pointer cell, probed inside a
     critical section, as in bench/main.ml's micro-suite. *)
  let prims ~time label ~with_load =
    let rt = R.create ~max_threads:1 () in
    let th = R.thread rt 0 in
    let sp = R.Shared.make th 42 in
    let cell = R.Asp.make th (R.Shared.ptr sp) in
    R.begin_critical_section th;
    let probe name f = ("prim." ^ label ^ "_" ^ name ^ "_ns", time f) in
    let snapshot = probe "snapshot_drop" (fun () -> R.Snapshot.drop th (R.Asp.get_snapshot th cell)) in
    let load =
      if with_load then [ probe "load_drop" (fun () -> R.Shared.drop th (R.Asp.load th cell)) ]
      else []
    in
    let store = probe "store" (fun () -> R.Asp.store th cell (R.Shared.ptr sp)) in
    R.end_critical_section th;
    (snapshot :: load) @ [ store ]
end

module E = Scheme (Workload.Instances.RC_ebr)
module H = Scheme (Workload.Instances.RC_hp)

type scheme = {
  label : string; (* metric prefix: rcebr / rchp *)
  smr : string; (* telemetry prefix of the manual scheme underneath *)
  cdrc : string; (* telemetry prefix of the RC layer *)
  build : stream -> inst;
}

(* ------------------------------------------------------------------ *)
(* Correctness accounting *)

let attempted = ref 0
let failed = ref 0
let failure_kinds : (string, int) Hashtbl.t = Hashtbl.create 8
let first_failure = ref None

let fail kind detail =
  incr failed;
  Hashtbl.replace failure_kinds kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt failure_kinds kind));
  if !first_failure = None then first_failure := Some detail

let fail_exn what e = fail (Printexc.exn_slot_name e) (what ^ " raised " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Spans of the traced phases: op spans are identified by op index;
   periodic spans carry the index of the op they precede and teardown
   the stream length. Kept in memory, written out at exit. *)

let span_cap = 1 lsl 15

type spans = {
  sp_scheme : string array;
  sp_name : string array;
  sp_op : int array;
  sp_t0 : int array;
  sp_t1 : int array;
  mutable sp_len : int;
}

let spans =
  {
    sp_scheme = Array.make span_cap "";
    sp_name = Array.make span_cap "";
    sp_op = Array.make span_cap 0;
    sp_t0 = Array.make span_cap 0;
    sp_t1 = Array.make span_cap 0;
    sp_len = 0;
  }

(* Only each scheme's first traced phase records spans; its label is
   set here while it runs. *)
let span_scheme = ref ""

let span name op t0 t1 =
  let i = spans.sp_len in
  if !span_scheme <> "" && i < span_cap then begin
    spans.sp_scheme.(i) <- !span_scheme;
    spans.sp_name.(i) <- name;
    spans.sp_op.(i) <- op;
    spans.sp_t0.(i) <- t0;
    spans.sp_t1.(i) <- t1;
    spans.sp_len <- i + 1
  end

let write_spans path =
  (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
  let oc = open_out path in
  for i = 0 to spans.sp_len - 1 do
    Printf.fprintf oc "{\"scheme\":\"%s\",\"span\":\"%s\",\"op\":%d,\"t0_ns\":%d,\"t1_ns\":%d}\n"
      spans.sp_scheme.(i) spans.sp_name.(i) spans.sp_op.(i) spans.sp_t0.(i) spans.sp_t1.(i)
  done;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Linear interpolation between closest ranks of a sorted array. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let x = p *. float_of_int (n - 1) in
    let lo = int_of_float x in
    let hi = min (lo + 1) (n - 1) in
    sorted.(lo) +. ((x -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted_floats a =
  let a = Array.map float_of_int a in
  Array.sort Float.compare a;
  a

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  quantile a 0.5

(* ------------------------------------------------------------------ *)
(* Host speed *)

(* On a shared host the code runs at one of a few speeds up to 1.7 times
   apart, switching several times a second, and the mix of speeds
   changes from run to run with the neighbours' load (README.md,
   "Noise"). So every timing window of a plain phase is bracketed by a
   reference kernel: fixed OCaml work that shares no code with the
   libraries under test but leans on the same resources (allocation,
   hashing, linked buckets). Times are reported at the reference speed,
   at which the kernel takes [reference_ns]: a time t measured beside
   kernels that took r on average reads t * (reference_ns / r) ** e.
   The elasticity e is how the structures' latency scales with the
   kernel's time across rounds: 0.7 to 1.1 by workload. *)
let reference_ns = 12_500.
let elasticity = 0.85

let reference () =
  let h = Hashtbl.create 16 in
  for i = 1 to 200 do
    Hashtbl.replace h (i land 63) i
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h))

let time_reference () =
  let t0 = now_ns () in
  reference ();
  now_ns () - t0

let at_reference_speed t r0 r1 = t *. ((reference_ns /. (float_of_int (r0 + r1) /. 2.)) ** elasticity)

(* ------------------------------------------------------------------ *)
(* Phases *)

(* Raw figures are as measured; the windows and [setup_ref_s] are at
   the reference speed. *)
type phase = {
  setup_s : float;
  setup_ref_s : float;
  mops : float; (* timed ops / summed op time *)
  p50_us : float;
  p995_us : float;
  kernel_ns : float; (* median reference kernel time *)
  windows : window array; (* plain phases only *)
  peak_blocks : int;
  teardown_ms : float;
  detail : detail option; (* traced phases only *)
}

(* [s.window] consecutive timed requests, in ns at the reference speed. *)
and window = { w_sum : float; w_p50 : float; w_p995 : float }

and detail = {
  kind_count : int array;
  kind_p50_us : float array;
  kind_p99_us : float array;
  sweep_ms : float list;
  hit_ratio : float;
  counts : (string * float) list; (* exact per-op counts of the layers *)
}

(* A plain phase times the reference kernel before the first timed
   request and after every [s.window] requests: refs.(w) and
   refs.(w + 1) bracket window w. *)
let run_phase sch s ~lat ~traced =
  let n = Array.length s.kind in
  let ops = n - s.warm in
  let k = s.calls_per_request in
  let wcalls = s.window * k in
  let nwin = if traced then 0 else ops / wcalls in
  let refs = Array.make (nwin + 1) 0 in
  let window_edge i =
    i >= s.warm && (i - s.warm) mod wcalls = 0 && (i - s.warm) / wcalls <= nwin
  in
  let sweeps = ref [] and backlog_max = ref 0 in
  let run_ops inst ~from ~upto =
    for i = from to upto - 1 do
      if nwin > 0 && window_edge i then refs.((i - s.warm) / wcalls) <- time_reference ();
      if i > 0 && i mod s.tick_every = 0 then begin
        let t0 = now_ns () in
        (try inst.periodic () with e -> fail_exn s.tick_name e);
        if traced then span s.tick_name i t0 (now_ns ())
      end;
      if s.sweep_every > 0 && i > 0 && i mod s.sweep_every = 0 then begin
        incr attempted;
        let t0 = now_ns () in
        let got = try inst.sweep () with e -> fail_exn "expire_sweep" e; min_int in
        let t1 = now_ns () in
        if traced then begin
          span "expire_sweep" i t0 t1;
          sweeps := (float_of_int (t1 - t0) *. 1e-6) :: !sweeps
        end;
        let want = s.sweep_expect.(i / s.sweep_every) in
        if got <> want && got <> min_int then
          fail "wrong_result" (Printf.sprintf "expire_sweep before op %d: got %d, want %d" i got want)
      end;
      if traced && i land 1023 = 0 then backlog_max := max !backlog_max (inst.backlog ());
      incr attempted;
      let t0 = now_ns () in
      let got = try inst.exec i with e -> fail_exn op_names.(s.kind.(i)) e; min_int in
      let t1 = now_ns () in
      lat.(i) <- t1 - t0;
      if traced then span op_names.(s.kind.(i)) i t0 t1;
      if got <> s.expect.(i) && got <> min_int then
        fail "wrong_result"
          (Printf.sprintf "%s op %d key %d: got %d, want %d" op_names.(s.kind.(i)) i s.key.(i) got
             s.expect.(i))
    done;
    if nwin > 0 && window_edge upto then refs.(nwin) <- time_reference ()
  in
  Gc.compact ();
  let ref_before = time_reference () in
  let t_setup = now_ns () in
  let inst = sch.build s in
  run_ops inst ~from:0 ~upto:s.warm;
  let setup_s = float_of_int (now_ns () - t_setup) *. 1e-9 in
  let ref_after = time_reference () in
  inst.reset_peak ();
  let live0 = inst.live () and hits0, misses0 = inst.gets () in
  if traced then begin
    Obs.Report.reset_all ();
    Obs.Metrics.set_enabled true;
    Obs.Trace.set_enabled true
  end;
  let minor0 = Gc.minor_words () and gc0 = Gc.quick_stat () in
  run_ops inst ~from:s.warm ~upto:n;
  let minor1 = Gc.minor_words () and gc1 = Gc.quick_stat () in
  Obs.Metrics.set_enabled false;
  Obs.Trace.set_enabled false;
  let peak_blocks = inst.peak () and live1 = inst.live () and hits1, misses1 = inst.gets () in
  let t0 = now_ns () in
  (try inst.teardown () with e -> fail_exn "teardown" e);
  let t1 = now_ns () in
  if traced then span "teardown" n t0 t1;
  incr attempted;
  let leaked = inst.live () in
  if leaked <> 0 then fail "leak" (Printf.sprintf "%s: %d blocks live after teardown" sch.label leaked);
  let timed = Array.sub lat s.warm ops in
  let sum_ns = Array.fold_left ( + ) 0 timed in
  let requests = Array.init (ops / k) (fun r -> Array.fold_left ( + ) 0 (Array.sub timed (r * k) k)) in
  let sorted = sorted_floats requests in
  let windows =
    Array.init nwin (fun w ->
        let req = sorted_floats (Array.sub requests (w * s.window) s.window) in
        let speed t = at_reference_speed t refs.(w) refs.(w + 1) in
        {
          w_sum = speed (Array.fold_left ( +. ) 0. req);
          w_p50 = speed (quantile req 0.5);
          w_p995 = speed (quantile req 0.995);
        })
  in
  let detail =
    if not traced then None
    else begin
      let per_op x = float_of_int x /. float_of_int ops in
      let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
      let c name = Obs.Metrics.value name in
      let kinds = Array.length op_names in
      let by_kind = Array.make kinds [] in
      for i = n - 1 downto s.warm do
        by_kind.(s.kind.(i)) <- lat.(i) :: by_kind.(s.kind.(i))
      done;
      let by_kind = Array.map (fun l -> sorted_floats (Array.of_list l)) by_kind in
      let reclaim = Obs.Histo.merged (Obs.Histo.histo (sch.smr ^ "reclaim_latency")) in
      let reclaim_p p =
        float_of_int (Option.value ~default:0 (Obs.Histo.percentile_of_counts reclaim p))
      in
      let fast = c (sch.cdrc ^ "snapshot.fast") and slow = c (sch.cdrc ^ "snapshot.slow") in
      let counts =
        [
          ("cdrc.snapshot_fast_ratio", ratio fast (fast + slow));
          ("cdrc.decrement_deferred_per_op", per_op (c (sch.cdrc ^ "decrement.deferred")));
          ("cdrc.weak_decrement_deferred_per_op", per_op (c (sch.cdrc ^ "weak_decrement.deferred")));
          ("cdrc.dispose_deferred_per_op", per_op (c (sch.cdrc ^ "dispose.deferred")));
          ("cdrc.backlog_max", float_of_int !backlog_max);
          ("smr.acquire_per_op", per_op (c (sch.smr ^ "acquire")));
          ("smr.slot_exhausted_per_op", per_op (c (sch.smr ^ "slot_exhausted")));
          ("smr.confirm_retry_per_op", per_op (c (sch.smr ^ "confirm_retry")));
          ("smr.retire_per_op", per_op (c (sch.smr ^ "retire")));
          ("smr.eject_scans_per_op", per_op (c (sch.smr ^ "eject.scans")));
          ("smr.eject_yield", ratio (c (sch.smr ^ "eject.ops")) (c (sch.smr ^ "eject.scans")));
          ("smr.reclaim_latency_p50_ticks", reclaim_p 50.);
          ("smr.reclaim_latency_p99_ticks", reclaim_p 99.);
        ]
        @ (if sch.label = "rcebr" then
             [ ("smr.epoch_advance_per_op", per_op (c "smr.ebr.epoch_advance")) ]
           else [])
        @ [
            ("simheap.retained_per_op", per_op (live1 - live0));
            ("simheap.live_end_blocks", float_of_int live1);
            ("gc.minor_words_per_op", (minor1 -. minor0) /. float_of_int ops);
            ( "gc.promoted_words_per_op",
              (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. float_of_int ops );
            ( "gc.major_collections",
              float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
          ]
      in
      let us q a = quantile a q *. 1e-3 in
      Some
        {
          kind_count = Array.map Array.length by_kind;
          kind_p50_us = Array.map (us 0.5) by_kind;
          kind_p99_us = Array.map (us 0.99) by_kind;
          sweep_ms = !sweeps;
          hit_ratio = ratio (hits1 - hits0) (hits1 - hits0 + misses1 - misses0);
          counts;
        }
    end
  in
  {
    setup_s;
    setup_ref_s = at_reference_speed setup_s ref_before ref_after;
    mops = float_of_int ops /. float_of_int sum_ns *. 1e3;
    p50_us = quantile sorted 0.5 *. 1e-3;
    p995_us = quantile sorted 0.995 *. 1e-3;
    kernel_ns = median (List.map float_of_int (ref_before :: ref_after :: Array.to_list refs));
    windows;
    peak_blocks;
    teardown_ms = float_of_int (t1 - t0) *. 1e-6;
    detail;
  }

(* ------------------------------------------------------------------ *)
(* Primitive probes (traced invocation only) *)

let time_kernel ~iters f =
  median
    (List.init 5 (fun _ ->
         let t0 = now_ns () in
         for _ = 1 to iters do
           f ()
         done;
         float_of_int (now_ns () - t0) /. float_of_int iters))

let primitives ~iters =
  let time = time_kernel ~iters in
  let heap = Simheap.create () in
  let sticky = Sticky.Sticky_counter.create 1 in
  let ebr = Smr.Ebr.create ~max_threads:1 () in
  let hp = Smr.Hp.create ~max_threads:1 () in
  let id = Smr.Ident.of_val (ref 0) in
  [
    ("prim.simheap_alloc_free_ns", time (fun () -> Simheap.free (Simheap.alloc heap)));
    ( "prim.sticky_inc_dec_ns",
      time (fun () ->
          if Sticky.Sticky_counter.increment_if_not_zero sticky then
            ignore (Sticky.Sticky_counter.decrement sticky)) );
    ( "prim.ebr_critical_section_ns",
      time (fun () ->
          Smr.Ebr.begin_critical_section ebr ~pid:0;
          Smr.Ebr.end_critical_section ebr ~pid:0) );
    ( "prim.hp_protect_release_ns",
      time (fun () ->
          match Smr.Hp.try_acquire hp ~pid:0 id with
          | Some g ->
              ignore (Smr.Hp.confirm hp ~pid:0 g id);
              Smr.Hp.release hp ~pid:0 g
          | None -> ()) );
  ]
  @ E.prims ~time "rcebr" ~with_load:true
  @ H.prims ~time "rchp" ~with_load:false

(* ------------------------------------------------------------------ *)
(* Driver *)

let usage =
  "bench.exe --workload queue-weak|tree-read|kv-zipf --seed N --seconds S --trace 0|1 \
   [--order ebr-first|hp-first] [--scale K]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.) and trace = ref (-1) in
  let order = ref "ebr-first" and scale = ref 1 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " queue-weak | tree-read | kv-zipf");
      ("--seed", Arg.Set_int seed, " op-stream seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " measuring time; 0 = a single round");
      ("--trace", Arg.Set_int trace, " 0 = end-to-end metrics, 1 = per-layer metrics");
      ("--order", Arg.Set_string order, " ebr-first (default) | hp-first: scheme order in a round");
      ("--scale", Arg.Set_int scale, " divide structure and round sizes by K (tests)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let bad msg =
    prerr_endline ("bench: " ^ msg ^ "\nusage: " ^ usage);
    exit 2
  in
  let gen, build_e, build_h =
    match !workload with
    | "queue-weak" -> (gen_queue, E.queue, H.queue)
    | "tree-read" -> (gen_tree, E.tree, H.tree)
    | "kv-zipf" -> (gen_kv, E.kv, H.kv)
    | w -> bad (Printf.sprintf "unknown workload %S" w)
  in
  if !seed < 0 then bad "--seed must be given and >= 0";
  if !seconds < 0. then bad "--seconds must be given and >= 0";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  if !scale < 1 || !scale > 64 then bad "--scale must be in 1..64";
  let traced = !trace = 1 in
  let rcebr = { label = "rcebr"; smr = "smr.ebr."; cdrc = "cdrc.rcebr."; build = build_e } in
  let rchp = { label = "rchp"; smr = "smr.hp."; cdrc = "cdrc.rchp."; build = build_h } in
  let schemes =
    match !order with
    | "ebr-first" -> [ rcebr; rchp ]
    | "hp-first" -> [ rchp; rcebr ]
    | o -> bad (Printf.sprintf "unknown --order %S" o)
  in
  let s = gen ~seed:!seed ~scale:!scale in
  let n = Array.length s.kind in
  Printf.printf "perfbench: workload=%s seed=%d ops/round=%d warm-up=%d op_stream=%012x order=%s%s\n%!"
    !workload !seed (n - s.warm) s.warm (stream_hash s) !order (if traced then " traced" else "");
  let lat = Array.make n 0 in
  let plain = Hashtbl.create 2 and traced_phases = Hashtbl.create 2 in
  List.iter
    (fun sch ->
      Hashtbl.replace plain sch.label [];
      Hashtbl.replace traced_phases sch.label [])
    schemes;
  let push tbl sch p = Hashtbl.replace tbl sch.label (p :: Hashtbl.find tbl sch.label) in
  let t_start = now_ns () in
  let min_rounds = if !seconds = 0. then 1 else 3 in
  let rounds = ref 0 in
  while
    !rounds < min_rounds || float_of_int (now_ns () - t_start) *. 1e-9 < !seconds
  do
    List.iter
      (fun sch ->
        push plain sch (run_phase sch s ~lat ~traced:false);
        if traced then begin
          span_scheme := if Hashtbl.find traced_phases sch.label = [] then sch.label else "";
          push traced_phases sch (run_phase sch s ~lat ~traced:true);
          span_scheme := ""
        end)
      schemes;
    incr rounds
  done;
  let phases tbl label = List.rev (Hashtbl.find tbl label) in
  let over stat tbl f label = stat (List.map f (phases tbl label)) in
  let setup f = median (List.map2 (fun a b -> f a +. f b) (phases plain "rcebr") (phases plain "rchp")) in
  (* End-to-end timings: medians over the windows of every plain phase,
     at the reference speed. *)
  let over_windows f l = median (List.concat_map (fun p -> List.map f (Array.to_list p.windows)) (phases plain l)) in
  let e2e =
    ("setup_s", setup (fun p -> p.setup_ref_s), "s")
    :: List.concat_map
         (fun l ->
           [
             ( l ^ "_mops",
               float_of_int (s.window * s.calls_per_request) /. over_windows (fun w -> w.w_sum) l *. 1e3,
               "Mops/s" );
             (l ^ "_p50_us", over_windows (fun w -> w.w_p50) l *. 1e-3, "us");
             (l ^ "_p995_us", over_windows (fun w -> w.w_p995) l *. 1e-3, "us");
             (l ^ "_peak_blocks", over median plain (fun p -> float_of_int p.peak_blocks) l, "blocks");
           ])
         [ "rcebr"; "rchp" ]
  in
  let error_rate = float_of_int !failed /. float_of_int (max 1 !attempted) in
  let layers =
    if not traced then []
    else begin
      let iters = 200_000 / !scale in
      let per_scheme l =
        let ph = phases traced_phases l in
        let first = Option.get (List.hd ph).detail in
        let d = List.map (fun p -> Option.get p.detail) ph in
        let kind_metrics =
          List.concat
            (List.mapi
               (fun k name ->
                 let pre = l ^ "." ^ name in
                 [
                   (pre ^ ".p50_us", median (List.map (fun d -> d.kind_p50_us.(k)) d), "us");
                   (pre ^ ".p99_us", median (List.map (fun d -> d.kind_p99_us.(k)) d), "us");
                   (pre ^ ".count", float_of_int first.kind_count.(k), "count");
                 ])
               (Array.to_list op_names))
        in
        let unit_of name =
          if Filename.check_suffix name "_per_op" then "1/op"
          else if Filename.check_suffix name "_ratio" || Filename.check_suffix name "_yield" then "ratio"
          else if Filename.check_suffix name "_ticks" then "ticks"
          else if Filename.check_suffix name "_blocks" then "blocks"
          else "count"
        in

        kind_metrics
        @ [
            (l ^ ".kv.expire_sweep_ms", median (List.concat_map (fun d -> d.sweep_ms) d), "ms");
            (l ^ ".kv.hit_ratio", first.hit_ratio, "ratio");
            (l ^ ".cdrc.teardown_ms", over median traced_phases (fun p -> p.teardown_ms) l, "ms");
          ]
        @ List.map (fun (name, v) -> (l ^ "." ^ name, v, unit_of name)) first.counts
        @ [
            ( l ^ ".trace.overhead_pct",
              ((over median plain (fun p -> p.mops) l /. over median traced_phases (fun p -> p.mops) l)
              -. 1.)
              *. 100.,
              "%" );
          ]
      in
      per_scheme "rcebr" @ per_scheme "rchp"
      @ List.map (fun (name, v) -> (name, v, "ns")) (primitives ~iters)
    end
  in
  let fmt v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  (* A traced run prints the end-to-end figures of its plain phases
     too, for reference; its JSON carries only the per-layer metrics. *)
  List.iter (fun (name, v, unit) -> Printf.printf "metric %s %s %s\n" name (fmt v) unit) (e2e @ layers);
  let metrics = if traced then layers else e2e in
  Printf.printf "metric error_rate %s ratio\n" (fmt error_rate);
  Printf.printf "rounds=%d attempted=%d failed=%d\n" !rounds !attempted !failed;
  List.iter
    (fun l ->
      let raw f = over median plain f l in
      Printf.printf
        "%s: %d windows of %d requests (%d beyond p99.5 in each); as measured, median over rounds: \
         setup %.4f s, %.4f Mops/s, p50 %.3f us, p99.5 %.2f us, reference kernel %.0f ns\n"
        l
        (List.length (phases plain l) * ((n - s.warm) / (s.window * s.calls_per_request)))
        s.window
        (s.window / 200)
        (raw (fun p -> p.setup_s)) (raw (fun p -> p.mops)) (raw (fun p -> p.p50_us))
        (raw (fun p -> p.p995_us)) (raw (fun p -> p.kernel_ns)))
    [ "rcebr"; "rchp" ];
  Hashtbl.iter (fun k v -> Printf.printf "failures %s: %d\n" k v) failure_kinds;
  Option.iter (fun d -> Printf.printf "first failure: %s\n" d) !first_failure;
  if traced then begin
    let path = Filename.concat "_perfbench" ("spans-" ^ !workload ^ ".jsonl") in
    write_spans path;
    Printf.printf "spans: %d written to %s\n" spans.sp_len path
  end;
  let json =
    String.concat ","
      (List.map
         (fun (name, v, unit) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (fmt v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed json;
  exit (if !failed = 0 then 0 else 1)
