let name = "HE"
let om = Obs.Scheme_metrics.v name
let epoch_advances = Obs.Metrics.counter "smr.he.epoch_advance"
let is_protected_region = false
let confirm_is_trivial = false
let requires_validation = true

type guard = int

let empty_era = -1

type t = {
  max_threads : int;
  k : int;
  knobs : Knobs.t;
  cleanup_floor : int; (* amortization floor: 2 * announcements *)
  era : int Sched.Atomic.t;
  slots : int Padded.t; (* announced eras, (k+1) per thread *)
  free : int list array; (* owner only *)
  alloc_tally : int Padded.t;
  retired : (int * int) Retire_queue.t array; (* (birth era, retire era) *)
  orphans : (int * int) Orphanage.t;
}

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  let knobs = Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~scheme:name () in
  let k = Knobs.slots_per_thread knobs in
  {
    max_threads;
    k;
    knobs;
    cleanup_floor = 2 * (k + 1) * max_threads;
    era = Sched.Atomic.make 0;
    slots = Padded.create ((k + 1) * max_threads) empty_era;
    free = Array.init max_threads (fun _ -> List.init k Fun.id);
    alloc_tally = Padded.create max_threads 0;
    retired = Array.init max_threads (fun _ -> Retire_queue.create ());
    orphans = Orphanage.create ();
  }

(* See Hp.effective_cleanup_freq: the floor keeps scan cost amortized
   even when the controller lowers the knob. *)
let effective_cleanup_freq t = max (Knobs.cleanup_freq t.knobs) t.cleanup_floor

let max_threads t = t.max_threads
let knobs t = t.knobs
let current_era t = Sched.Atomic.get t.era
let advance_era t =
  ignore (Sched.Atomic.fetch_and_add t.era 1);
  Obs.Metrics.incr epoch_advances ~pid:0

let force_advance t = advance_era t
let slot_index t ~pid local = (pid * (t.k + 1)) + local
let begin_critical_section _t ~pid:_ = ()
let end_critical_section _t ~pid:_ = ()

let alloc_hook t ~pid =
  let tally = Padded.get t.alloc_tally pid + 1 in
  Padded.set t.alloc_tally pid tally;
  if tally mod Knobs.epoch_freq t.knobs = 0 then advance_era t;
  Sched.Atomic.get t.era

let try_acquire t ~pid _id =
  match t.free.(pid) with
  | [] ->
      Obs.Scheme_metrics.on_slot_exhausted om ~pid;
      None
  | s :: rest ->
      t.free.(pid) <- rest;
      Obs.Scheme_metrics.on_acquire om ~pid;
      Padded.set t.slots (slot_index t ~pid s) (Sched.Atomic.get t.era);
      Some s

let acquire t ~pid _id =
  Obs.Scheme_metrics.on_acquire om ~pid;
  Padded.set t.slots (slot_index t ~pid t.k) (Sched.Atomic.get t.era);
  t.k

let confirm t ~pid g _id =
  (* The protected read happened after the slot announced some era [a];
     if the global era still equals [a], the read object was born no
     later than [a] and cannot be retired earlier, so the announcement
     covers it. Otherwise re-announce the fresh era and re-read. *)
  let idx = slot_index t ~pid g in
  let announced = Padded.get t.slots idx in
  let cur = Sched.Atomic.get t.era in
  if announced = cur then true
  else begin
    Obs.Scheme_metrics.on_confirm_retry om ~pid;
    Padded.set t.slots idx cur;
    false
  end

let release t ~pid g =
  Padded.set t.slots (slot_index t ~pid g) empty_era;
  if g < t.k then t.free.(pid) <- g :: t.free.(pid)

let retire t ~pid _id ~birth op =
  let op = Obs.Scheme_metrics.on_retire om ~pid op in
  Retire_queue.push t.retired.(pid) (birth, Sched.Atomic.get t.era) op

let eject ?(force = false) t ~pid =
  let q = t.retired.(pid) in
  if
    force || Knobs.sync_scan t.knobs
    || Retire_queue.due q ~every:(effective_cleanup_freq t)
  then begin
    let eras = ref [] in
    let total = (t.k + 1) * t.max_threads in
    for i = 0 to total - 1 do
      let e = Padded.get t.slots i in
      if e <> empty_era then eras := e :: !eras
    done;
    let eras = !eras in
    let safe (birth, retired_at) =
      not (List.exists (fun e -> birth <= e && e <= retired_at) eras)
    in
    let adopted =
      match Orphanage.take_all t.orphans with
      | [] -> []
      | entries ->
          let ready, blocked = List.partition (fun (m, _) -> safe m) entries in
          Orphanage.put t.orphans blocked;
          List.map snd ready
    in
    let max = if force then max_int else Knobs.batch_cap t.knobs in
    Obs.Scheme_metrics.on_eject om ~pid (Retire_queue.filter_pop ~max q ~safe @ adopted)
  end
  else []

let retired_count t ~pid = Retire_queue.size t.retired.(pid)

let abandon t ~pid =
  Obs.Scheme_metrics.on_abandon om ~pid;
  for s = 0 to t.k do
    Padded.set t.slots (slot_index t ~pid s) empty_era
  done;
  t.free.(pid) <- List.init t.k Fun.id;
  Orphanage.put t.orphans (Retire_queue.drain_with_meta t.retired.(pid))

let reclamation_frontier t =
  let f =
    Padded.fold (fun acc e -> if e = empty_era then acc else min acc e) max_int t.slots
  in
  Some (if f = max_int then Sched.Atomic.get t.era else f)

let drain_all t =
  let orphaned = List.map snd (Orphanage.take_all t.orphans) in
  orphaned @ Array.fold_left (fun acc q -> acc @ Retire_queue.drain q) [] t.retired
