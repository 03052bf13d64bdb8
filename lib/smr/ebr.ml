let name = "EBR"
let om = Obs.Scheme_metrics.v name
let epoch_advances = Obs.Metrics.counter "smr.ebr.epoch_advance"
let is_protected_region = true
let confirm_is_trivial = true
let requires_validation = false
let empty_ann = max_int

type guard = int

type t = {
  max_threads : int;
  epoch_freq : int;
  ann : int Padded.t;
  cur_epoch : int Sched.Atomic.t;
  alloc_tally : int Padded.t; (* owner-thread only; padded for locality *)
  r : Reclaimer.t array; (* meta = retire epoch *)
}

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  let reads = [ `Epoch_freq; `Cleanup_freq ] in
  let knobs = Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~reads ~scheme:name () in
  {
    max_threads;
    epoch_freq = knobs.epoch_freq;
    ann = Padded.create max_threads empty_ann;
    cur_epoch = Sched.Atomic.make 0;
    alloc_tally = Padded.create max_threads 0;
    r = Reclaimer.create ~om ~every:knobs.cleanup_freq ~max_threads;
  }

let max_threads t = t.max_threads
let current_epoch t = Sched.Atomic.get t.cur_epoch
let advance_epoch t =
  ignore (Sched.Atomic.fetch_and_add t.cur_epoch 1);
  Obs.Metrics.incr epoch_advances ~pid:0

let begin_critical_section t ~pid =
  (* Announcing a possibly stale epoch is conservative-safe: it only
     makes this section look older to the ejector. *)
  Padded.set t.ann pid (Sched.Atomic.get t.cur_epoch)

let end_critical_section t ~pid = Padded.set t.ann pid empty_ann

let alloc_hook t ~pid =
  let tally = Padded.get t.alloc_tally pid + 1 in
  Padded.set t.alloc_tally pid tally;
  if tally mod t.epoch_freq = 0 then advance_epoch t;
  0

let try_acquire _t ~pid _id =
  Obs.Scheme_metrics.on_acquire om ~pid;
  Some 0

let acquire _t ~pid _id =
  Obs.Scheme_metrics.on_acquire om ~pid;
  0

let confirm _t ~pid:_ _g _id = true
let release _t ~pid:_ _g = ()

let min_announced t = Padded.fold min max_int t.ann

let retire t ~pid d = Reclaimer.retire t.r.(pid) ~pid ~meta:(Sched.Atomic.get t.cur_epoch) d

(* Retired before every announced critical section began. *)
let before min_ann d = Deferred.meta d < min_ann

(* Retire epochs are monotone within a thread's queue, so the safe
   records are a prefix of it. *)
let collect t ~pid:_ (r : Reclaimer.t) =
  let min_ann = min_announced t in
  Retire_queue.pop_prefix r.retired ~into:r.out before min_ann;
  Orphanage.adopt r.orphans ~into:r.out before min_ann
let eject ?(force = false) t ~pid = Reclaimer.eject t.r.(pid) ~force ~pid collect t
let retired_count t ~pid = Reclaimer.retired_count t.r ~pid

let abandon t ~pid =
  Padded.set t.ann pid empty_ann;
  Reclaimer.abandon t.r ~pid Deferred.Nil

let reclamation_frontier t =
  let f = min_announced t in
  Some (if f = max_int then Sched.Atomic.get t.cur_epoch else f)

let drain_all t = Reclaimer.drain_all t.r
