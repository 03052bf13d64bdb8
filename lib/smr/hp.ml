let name = "HP"
let om = Obs.Scheme_metrics.v name
let is_protected_region = false
let confirm_is_trivial = false
let requires_validation = true

type guard = int
(* A guard is the thread-local slot index: 0..k-1 from the free pool,
   k for the reserved slot. *)

type t = {
  max_threads : int;
  k : int; (* non-reserved slots per thread *)
  knobs : Knobs.t;
  cleanup_floor : int; (* amortization floor: 2 * announcements *)
  slots : Ident.t Padded.t; (* (k+1) * max_threads announcement slots *)
  free : int list array; (* per-thread free local slot indices; owner only *)
  retired : Ident.t Retire_queue.t array;
  orphans : Ident.t Orphanage.t;
}

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  (match epoch_freq with
  | Some _ -> Obs.Scheme_metrics.on_knob_ignored om ~knob:"epoch_freq"
  | None -> ());
  let knobs = Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~scheme:name () in
  let k = Knobs.slots_per_thread knobs in
  {
    max_threads;
    k;
    knobs;
    cleanup_floor = 2 * (k + 1) * max_threads;
    slots = Padded.create ((k + 1) * max_threads) Ident.null;
    free = Array.init max_threads (fun _ -> List.init k Fun.id);
    retired = Array.init max_threads (fun _ -> Retire_queue.create ());
    orphans = Orphanage.create ();
  }

(* The scan-cost amortization argument needs cleanup_freq >= O(total
   announcements); the floor is applied at read time so the controller
   may still lower the knob and the scheme degrades gracefully. *)
let effective_cleanup_freq t = max (Knobs.cleanup_freq t.knobs) t.cleanup_floor

let max_threads t = t.max_threads
let knobs t = t.knobs
let force_advance _t = ()
let slots_per_thread t = t.k
let slot_index t ~pid local = (pid * (t.k + 1)) + local
let begin_critical_section _t ~pid:_ = ()
let end_critical_section _t ~pid:_ = ()
let alloc_hook _t ~pid:_ = 0

let try_acquire t ~pid id =
  match t.free.(pid) with
  | [] ->
      Obs.Scheme_metrics.on_slot_exhausted om ~pid;
      None
  | s :: rest ->
      t.free.(pid) <- rest;
      Obs.Scheme_metrics.on_acquire om ~pid;
      (* Sched.Atomic.set is seq_cst: the announcement is globally visible
         before the caller's revalidating re-read. *)
      Padded.set t.slots (slot_index t ~pid s) id;
      Some s

let acquire t ~pid id =
  Obs.Scheme_metrics.on_acquire om ~pid;
  Padded.set t.slots (slot_index t ~pid t.k) id;
  t.k

let confirm t ~pid g id =
  let idx = slot_index t ~pid g in
  if Ident.equal (Padded.get t.slots idx) id then true
  else begin
    Obs.Scheme_metrics.on_confirm_retry om ~pid;
    Padded.set t.slots idx id;
    false
  end

let release t ~pid g =
  Padded.set t.slots (slot_index t ~pid g) Ident.null;
  if g < t.k then t.free.(pid) <- g :: t.free.(pid)

let announced_count t =
  Padded.fold (fun acc id -> if Ident.is_null id then acc else acc + 1) 0 t.slots

let is_announced t id = Padded.fold (fun acc a -> acc || Ident.equal a id) false t.slots

let retire t ~pid id ~birth:_ op =
  let op = Obs.Scheme_metrics.on_retire om ~pid op in
  Retire_queue.push t.retired.(pid) id op

let eject ?(force = false) t ~pid =
  let q = t.retired.(pid) in
  if
    force || Knobs.sync_scan t.knobs
    || Retire_queue.due q ~every:(effective_cleanup_freq t)
  then begin
    (* Snapshot every announcement; entries are held back while their
       identity appears anywhere. The announcement count is small
       (P*(k+1)), so a linear membership test beats hashing — identity
       tokens cannot be hashed stably under a moving GC. *)
    let announced = ref [] in
    let total = (t.k + 1) * t.max_threads in
    for i = 0 to total - 1 do
      let id = Padded.get t.slots i in
      if not (Ident.is_null id) then announced := id :: !announced
    done;
    let announced = !announced in
    let safe id = not (List.exists (Ident.equal id) announced) in
    let adopted =
      match Orphanage.take_all t.orphans with
      | [] -> []
      | entries ->
          let ready, blocked = List.partition (fun (id, _) -> safe id) entries in
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
    Padded.set t.slots (slot_index t ~pid s) Ident.null
  done;
  t.free.(pid) <- List.init t.k Fun.id;
  Orphanage.put t.orphans (Retire_queue.drain_with_meta t.retired.(pid))

let reclamation_frontier _t = None

let drain_all t =
  let orphaned = List.map snd (Orphanage.take_all t.orphans) in
  orphaned @ Array.fold_left (fun acc q -> acc @ Retire_queue.drain q) [] t.retired
