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
  knobs : Knobs.t;
  ann : interval Padded.t;
  cur_epoch : int Sched.Atomic.t;
  alloc_tally : int Padded.t; (* owner-thread only *)
  retired : (int * int) Retire_queue.t array; (* meta = (birth, retire epoch) *)
  orphans : (int * int) Orphanage.t;
}

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  (match slots_per_thread with
  | Some _ -> Obs.Scheme_metrics.on_knob_ignored om ~knob:"slots_per_thread"
  | None -> ());
  {
    max_threads;
    knobs = Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~scheme:name ();
    ann = Padded.create max_threads inactive;
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
  let e = Sched.Atomic.get t.cur_epoch in
  Padded.set t.ann pid { b = e; e }

let end_critical_section t ~pid = Padded.set t.ann pid inactive

let alloc_hook t ~pid =
  let tally = Padded.get t.alloc_tally pid + 1 in
  Padded.set t.alloc_tally pid tally;
  if tally mod Knobs.epoch_freq t.knobs = 0 then advance_epoch t;
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

let retire t ~pid _id ~birth op =
  let op = Obs.Scheme_metrics.on_retire om ~pid op in
  Retire_queue.push t.retired.(pid) (birth, Sched.Atomic.get t.cur_epoch) op

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
    let n = t.max_threads in
    let anns = Array.init n (fun i -> Padded.get t.ann i) in
    let safe (birth, retired_at) =
      Array.for_all (fun a -> a.e < birth || a.b > retired_at) anns
    in
    let max = if force then max_int else Knobs.batch_cap t.knobs in
    Obs.Scheme_metrics.on_eject om ~pid
      (Retire_queue.filter_pop ~max q ~safe @ adopt_orphans t ~safe)
  end
  else []

let retired_count t ~pid = Retire_queue.size t.retired.(pid)

let abandon t ~pid =
  Obs.Scheme_metrics.on_abandon om ~pid;
  Padded.set t.ann pid inactive;
  Orphanage.put t.orphans (Retire_queue.drain_with_meta t.retired.(pid))

let reclamation_frontier t =
  let f = Padded.fold (fun acc a -> min acc a.b) max_int t.ann in
  Some (if f = max_int then Sched.Atomic.get t.cur_epoch else f)

let drain_all t =
  let orphaned = List.map snd (Orphanage.take_all t.orphans) in
  orphaned @ Array.fold_left (fun acc q -> acc @ Retire_queue.drain q) [] t.retired
