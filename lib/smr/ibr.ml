let name = "IBR"
let om = Obs.Scheme_metrics.v name
let epoch_advances = Obs.Metrics.counter "smr.ibr.epoch_advance"
let is_protected_region = true
let confirm_is_trivial = false
let requires_validation = true

type guard = int
type interval = { b : int; e : int }

(* Inactive sentinel: an empty interval that intersects nothing. *)
let inactive = { b = max_int; e = min_int }

type t = {
  max_threads : int;
  epoch_freq : int;
  cleanup_freq : int;
  ann : interval Padded.t;
  cur_epoch : int Sched.Atomic.t;
  alloc_tally : int Padded.t; (* owner-thread only *)
  retired : Retire_queue.t array; (* meta = retire epoch *)
  out : Retire_queue.t array; (* each pid's eject batch, built by its scan *)
  anns : int array array;
      (* each pid's scan snapshot: interval [i] at [2i] (begin), [2i+1] (end) *)
  orphans : Orphanage.t;
}

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  (match slots_per_thread with
  | Some _ -> Obs.Scheme_metrics.on_knob_ignored om ~knob:"slots_per_thread"
  | None -> ());
  let knobs = Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~scheme:name () in
  {
    max_threads;
    epoch_freq = knobs.epoch_freq;
    cleanup_freq = knobs.cleanup_freq;
    ann = Padded.create max_threads inactive;
    cur_epoch = Sched.Atomic.make 0;
    alloc_tally = Padded.create max_threads 0;
    retired = Array.init max_threads (fun _ -> Retire_queue.create ());
    out = Array.init max_threads (fun _ -> Retire_queue.create ());
    anns = Array.init max_threads (fun _ -> Array.make (2 * max_threads) 0);
    orphans = Orphanage.create ();
  }

let max_threads t = t.max_threads
let current_epoch t = Sched.Atomic.get t.cur_epoch
let advance_epoch t =
  ignore (Sched.Atomic.fetch_and_add t.cur_epoch 1);
  Obs.Metrics.incr epoch_advances ~pid:0

let begin_critical_section t ~pid =
  let e = Sched.Atomic.get t.cur_epoch in
  Padded.set t.ann pid { b = e; e }

let end_critical_section t ~pid = Padded.set t.ann pid inactive

let alloc_hook t ~pid =
  let tally = Padded.get t.alloc_tally pid + 1 in
  Padded.set t.alloc_tally pid tally;
  if tally mod t.epoch_freq = 0 then advance_epoch t;
  Sched.Atomic.get t.cur_epoch

let try_acquire _t ~pid _id =
  Obs.Scheme_metrics.on_acquire om ~pid;
  Some 0

let acquire _t ~pid _id =
  Obs.Scheme_metrics.on_acquire om ~pid;
  0

let confirm t ~pid _g _id =
  (* Fig 4: a read performed at the thread's announced upper epoch is
     protected iff the global epoch has not moved since; otherwise
     extend the announced interval and have the caller re-read. *)
  let cur = Sched.Atomic.get t.cur_epoch in
  let a = Padded.get t.ann pid in
  if a.e = cur then true
  else begin
    Obs.Scheme_metrics.on_confirm_retry om ~pid;
    Padded.set t.ann pid { a with e = cur };
    false
  end

let release _t ~pid:_ _g = ()

(* Whether no snapshot interval in [anns] numbered [0 .. i] meets
   [birth, retired_at]. *)
let rec disjoint anns birth retired_at i =
  if i < 0 then true
  else
    (Array.unsafe_get anns ((2 * i) + 1) < birth || Array.unsafe_get anns (2 * i) > retired_at)
    && disjoint anns birth retired_at (i - 1)

(* No announced interval meets the entry's [birth, retire epoch]. *)
let unprotected anns d =
  disjoint anns (Deferred.birth d) (Deferred.meta d) ((Array.length anns / 2) - 1)

let retire t ~pid d =
  Deferred.set_stamp d (Obs.Scheme_metrics.on_retire om ~pid);
  Deferred.set_meta d (Sched.Atomic.get t.cur_epoch);
  Retire_queue.push t.retired.(pid) d

let eject ?(force = false) t ~pid =
  let q = t.retired.(pid) in
  if force || Retire_queue.due q ~every:t.cleanup_freq then begin
    let anns = t.anns.(pid) in
    for i = 0 to t.max_threads - 1 do
      let a = Padded.get t.ann i in
      anns.(2 * i) <- a.b;
      anns.((2 * i) + 1) <- a.e
    done;
    let out = t.out.(pid) in
    Retire_queue.filter_pop q ~into:out unprotected anns;
    Orphanage.adopt t.orphans ~into:out unprotected anns;
    Obs.Scheme_metrics.on_eject om ~pid (Retire_queue.size out);
    Retire_queue.take out
  end
  else Deferred.Nil

let retired_count t ~pid = Retire_queue.size t.retired.(pid)

let abandon t ~pid =
  Obs.Scheme_metrics.on_abandon om ~pid;
  Padded.set t.ann pid inactive;
  Orphanage.put t.orphans (Retire_queue.take t.retired.(pid))

let reclamation_frontier t =
  let f = Padded.fold (fun acc a -> min acc a.b) max_int t.ann in
  Some (if f = max_int then Sched.Atomic.get t.cur_epoch else f)

let drain_all t = Orphanage.drain_all t.orphans t.retired
