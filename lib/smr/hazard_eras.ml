let name = "HE"
let om = Obs.Scheme_metrics.v name
let epoch_advances = Obs.Metrics.counter "smr.he.epoch_advance"
let is_protected_region = false
let confirm_is_trivial = false
let requires_validation = true

type guard = int

let empty_era = -1

type t = {
  epoch_freq : int;
  era : int Sched.Atomic.t;
  alloc_tally : int Padded.t;
  k : int; (* [k], [ann] and [free] are the slot table's, flat *)
  ann : int Padded.t; (* announced eras *)
  free : Slot_pool.t array;
  s : int Slots.t;
  r : Reclaimer.t array; (* meta = retire era *)
}

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  let knobs = Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~scheme:name () in
  let s = Slots.create ~k:knobs.slots_per_thread ~max_threads empty_era in
  {
    epoch_freq = knobs.epoch_freq;
    era = Sched.Atomic.make 0;
    alloc_tally = Padded.create max_threads 0;
    k = s.k;
    ann = s.ann;
    free = s.free;
    s;
    r = Reclaimer.create ~om ~every:(Slots.period s knobs.cleanup_freq) ~max_threads;
  }

let max_threads t = Array.length t.free
let advance_era t =
  ignore (Sched.Atomic.fetch_and_add t.era 1);
  Obs.Metrics.incr epoch_advances ~pid:0

let begin_critical_section _t ~pid:_ = ()
let end_critical_section _t ~pid:_ = ()

let alloc_hook t ~pid =
  let tally = Padded.get t.alloc_tally pid + 1 in
  Padded.set t.alloc_tally pid tally;
  if tally mod t.epoch_freq = 0 then advance_era t;
  Sched.Atomic.get t.era

let try_acquire t ~pid _id =
  match Slot_pool.take t.free.(pid) with
  | None ->
      Obs.Scheme_metrics.on_slot_exhausted om ~pid;
      None
  | Some l as g ->
      Obs.Scheme_metrics.on_acquire om ~pid;
      Padded.set t.ann (Slots.index ~k:t.k ~pid l) (Sched.Atomic.get t.era);
      g

let acquire t ~pid _id =
  Obs.Scheme_metrics.on_acquire om ~pid;
  Padded.set t.ann (Slots.index ~k:t.k ~pid t.k) (Sched.Atomic.get t.era);
  t.k

let confirm t ~pid g _id =
  (* The protected read happened after the slot announced some era [a];
     if the global era still equals [a], the read object was born no
     later than [a] and cannot be retired earlier, so the announcement
     covers it. Otherwise re-announce the fresh era and re-read. *)
  let idx = Slots.index ~k:t.k ~pid g in
  let announced = Padded.get t.ann idx in
  let cur = Sched.Atomic.get t.era in
  if announced = cur then true
  else begin
    Obs.Scheme_metrics.on_confirm_retry om ~pid;
    Padded.set t.ann idx cur;
    false
  end

let release t ~pid g =
  Padded.set t.ann (Slots.index ~k:t.k ~pid g) empty_era;
  if g < t.k then Slot_pool.give t.free.(pid) g

(* Whether one of [eras.(0 .. i)] falls in [birth, retired_at]. *)
let rec covered eras birth retired_at i =
  i >= 0
  &&
  let e = Array.unsafe_get eras i in
  (birth <= e && e <= retired_at) || covered eras birth retired_at (i - 1)

(* No announced era falls in the entry's [birth era, retire era]. *)
let unprotected (a : int Slots.snapshot) d =
  not (covered a.vals (Deferred.birth d) (Deferred.meta d) (a.n - 1))

let retire t ~pid d = Reclaimer.retire t.r.(pid) ~pid ~meta:(Sched.Atomic.get t.era) d
let collect t ~pid r = Reclaimer.keep r unprotected (Slots.snapshot t.s ~pid)
let eject ?(force = false) t ~pid = Reclaimer.eject t.r.(pid) ~force ~pid collect t
let retired_count t ~pid = Reclaimer.retired_count t.r ~pid

let abandon t ~pid =
  Slots.clear t.s ~pid;
  Reclaimer.abandon t.r ~pid Deferred.Nil

let reclamation_frontier t =
  let f =
    Padded.fold (fun acc e -> if e = empty_era then acc else min acc e) max_int t.ann
  in
  Some (if f = max_int then Sched.Atomic.get t.era else f)

let drain_all t = Reclaimer.drain_all t.r
