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
  cleanup_freq : int;
  ann : int Padded.t;
  cur_epoch : int Sched.Atomic.t;
  alloc_tally : int Padded.t; (* owner-thread only; padded for locality *)
  retired : Retire_queue.t array; (* meta = retire epoch *)
  out : Retire_queue.t array; (* each pid's eject batch, built by its scan *)
  orphans : Orphanage.t; (* entries abandoned by crashed threads *)
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
    ann = Padded.create max_threads empty_ann;
    cur_epoch = Sched.Atomic.make 0;
    alloc_tally = Padded.create max_threads 0;
    retired = Array.init max_threads (fun _ -> Retire_queue.create ());
    out = Array.init max_threads (fun _ -> Retire_queue.create ());
    orphans = Orphanage.create ();
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

let retire t ~pid d =
  Deferred.set_stamp d (Obs.Scheme_metrics.on_retire om ~pid);
  Deferred.set_meta d (Sched.Atomic.get t.cur_epoch);
  Retire_queue.push t.retired.(pid) d

(* Retired before every announced critical section began. *)
let before min_ann d = Deferred.meta d < min_ann

let eject ?(force = false) t ~pid =
  let q = t.retired.(pid) in
  if force || Retire_queue.due q ~every:t.cleanup_freq then begin
    let min_ann = min_announced t in
    let out = t.out.(pid) in
    (* Retire epochs are monotone within a thread's queue. *)
    Retire_queue.pop_prefix q ~into:out before min_ann;
    Orphanage.adopt t.orphans ~into:out before min_ann;
    Obs.Scheme_metrics.on_eject om ~pid (Retire_queue.size out);
    Retire_queue.take out
  end
  else Deferred.Nil

let retired_count t ~pid = Retire_queue.size t.retired.(pid)

let abandon t ~pid =
  Obs.Scheme_metrics.on_abandon om ~pid;
  Padded.set t.ann pid empty_ann;
  Orphanage.put t.orphans (Retire_queue.take t.retired.(pid))

let reclamation_frontier t =
  let f = min_announced t in
  Some (if f = max_int then Sched.Atomic.get t.cur_epoch else f)

let drain_all t = Orphanage.drain_all t.orphans t.retired
