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
  knobs : Knobs.t;
  ann : int Padded.t;
  cur_epoch : int Sched.Atomic.t;
  alloc_tally : int Padded.t; (* owner-thread only; padded for locality *)
  retired : int Retire_queue.t array; (* meta = retire epoch *)
  orphans : int Orphanage.t; (* entries abandoned by crashed threads *)
}

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  (match slots_per_thread with
  | Some _ -> Obs.Scheme_metrics.on_knob_ignored om ~knob:"slots_per_thread"
  | None -> ());
  {
    max_threads;
    knobs = Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~scheme:name ();
    ann = Padded.create max_threads empty_ann;
    cur_epoch = Sched.Atomic.make 0;
    alloc_tally = Padded.create max_threads 0;
    retired = Array.init max_threads (fun _ -> Retire_queue.create ());
    orphans = Orphanage.create ();
  }

let max_threads t = t.max_threads
let knobs t = t.knobs
let current_epoch t = Sched.Atomic.get t.cur_epoch
let advance_epoch t =
  ignore (Sched.Atomic.fetch_and_add t.cur_epoch 1);
  Obs.Metrics.incr epoch_advances ~pid:0

let force_advance t = advance_epoch t

let begin_critical_section t ~pid =
  (* Announcing a possibly stale epoch is conservative-safe: it only
     makes this section look older to the ejector. *)
  Padded.set t.ann pid (Sched.Atomic.get t.cur_epoch)

let end_critical_section t ~pid = Padded.set t.ann pid empty_ann

let alloc_hook t ~pid =
  let tally = Padded.get t.alloc_tally pid + 1 in
  Padded.set t.alloc_tally pid tally;
  if tally mod Knobs.epoch_freq t.knobs = 0 then advance_epoch t;
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

let retire t ~pid _id ~birth:_ op =
  let op = Obs.Scheme_metrics.on_retire om ~pid op in
  Retire_queue.push t.retired.(pid) (Sched.Atomic.get t.cur_epoch) op

(* Adopt orphaned entries against the same safety predicate; the
   still-protected remainder goes back to the pool. *)
let adopt_orphans t ~safe =
  match Orphanage.take_all t.orphans with
  | [] -> []
  | entries ->
      let ready, blocked = List.partition (fun (m, _) -> safe m) entries in
      Orphanage.put t.orphans blocked;
      List.map snd ready

let eject ?(force = false) t ~pid =
  let q = t.retired.(pid) in
  if
    force || Knobs.sync_scan t.knobs
    || Retire_queue.due q ~every:(Knobs.cleanup_freq t.knobs)
  then begin
    let min_ann = min_announced t in
    let safe e = e < min_ann in
    let max = if force then max_int else Knobs.batch_cap t.knobs in
    (* Retire epochs are monotone within a thread's queue. *)
    Obs.Scheme_metrics.on_eject om ~pid
      (Retire_queue.pop_prefix ~max q ~safe @ adopt_orphans t ~safe)
  end
  else []

let retired_count t ~pid = Retire_queue.size t.retired.(pid)

let abandon t ~pid =
  Obs.Scheme_metrics.on_abandon om ~pid;
  Padded.set t.ann pid empty_ann;
  Orphanage.put t.orphans (Retire_queue.drain_with_meta t.retired.(pid))

let reclamation_frontier t =
  let f = min_announced t in
  Some (if f = max_int then Sched.Atomic.get t.cur_epoch else f)

let drain_all t =
  let orphaned = List.map snd (Orphanage.take_all t.orphans) in
  orphaned @ Array.fold_left (fun acc q -> acc @ Retire_queue.drain q) [] t.retired
