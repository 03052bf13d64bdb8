let name = "HP"
let om = Obs.Scheme_metrics.v name
let is_protected_region = false
let confirm_is_trivial = false
let requires_validation = true

type guard = int
(* A guard is the thread-local slot index: 0..k-1 from the free pool,
   k for the reserved slot. *)

(* A scan's snapshot of the non-null announcements, [ids.(0 .. n-1)]:
   preallocated per pid, so that a scan builds no list. *)
type announced = { ids : Ident.t array; mutable n : int }

type t = {
  max_threads : int;
  k : int; (* non-reserved slots per thread *)
  knobs : Knobs.t;
  cleanup_floor : int; (* amortization floor: 2 * announcements *)
  slots : Ident.t Padded.t; (* (k+1) * max_threads announcement slots *)
  free : Slot_pool.t array; (* per-thread free local slot indices; owner only *)
  retired : Retire_queue.t array;
  out : Retire_queue.t array; (* each pid's eject batch, built by its scan *)
  announced : announced array; (* each pid's scan snapshot *)
  orphans : Orphanage.t;
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
    free = Array.init max_threads (fun _ -> Slot_pool.create k);
    retired = Array.init max_threads (fun _ -> Retire_queue.create ());
    out = Array.init max_threads (fun _ -> Retire_queue.create ());
    announced =
      Array.init max_threads (fun _ ->
          { ids = Array.make ((k + 1) * max_threads) Ident.null; n = 0 });
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
  match Slot_pool.take t.free.(pid) with
  | None ->
      Obs.Scheme_metrics.on_slot_exhausted om ~pid;
      None
  | Some s as g ->
      Obs.Scheme_metrics.on_acquire om ~pid;
      (* Sched.Atomic.set is seq_cst: the announcement is globally visible
         before the caller's revalidating re-read. *)
      Padded.set t.slots (slot_index t ~pid s) id;
      g

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
  if g < t.k then Slot_pool.give t.free.(pid) g

let announced_count t =
  Padded.fold (fun acc id -> if Ident.is_null id then acc else acc + 1) 0 t.slots

let is_announced t id = Padded.fold (fun acc a -> acc || Ident.equal a id) false t.slots

(* Whether [id] is among [ids.(0 .. i)]: a linear membership test beats
   hashing at this size, and identity tokens cannot be hashed stably
   under a moving GC. *)
let rec mem id ids i = i >= 0 && (Ident.equal (Array.unsafe_get ids i) id || mem id ids (i - 1))

(* Announced nowhere in the scan's snapshot. *)
let unannounced a d = not (mem (Deferred.id d) a.ids (a.n - 1))

let retire t ~pid d =
  Deferred.set_stamp d (Obs.Scheme_metrics.on_retire om ~pid);
  Retire_queue.push t.retired.(pid) d

let eject ?(force = false) t ~pid =
  let q = t.retired.(pid) in
  if
    force || Knobs.sync_scan t.knobs
    || Retire_queue.due q ~every:(effective_cleanup_freq t)
  then begin
    (* Snapshot every announcement; entries are held back while their
       identity appears anywhere. *)
    let a = t.announced.(pid) in
    a.n <- 0;
    let total = (t.k + 1) * t.max_threads in
    for i = 0 to total - 1 do
      let id = Padded.get t.slots i in
      if not (Ident.is_null id) then begin
        a.ids.(a.n) <- id;
        a.n <- a.n + 1
      end
    done;
    let max = if force then max_int else Knobs.batch_cap t.knobs in
    let out = t.out.(pid) in
    Retire_queue.filter_pop q ~into:out ~max unannounced a;
    Orphanage.adopt t.orphans ~into:out unannounced a;
    Obs.Scheme_metrics.on_eject om ~pid (Retire_queue.size out);
    Retire_queue.take out
  end
  else Deferred.Nil

let retired_count t ~pid = Retire_queue.size t.retired.(pid)

let abandon t ~pid =
  Obs.Scheme_metrics.on_abandon om ~pid;
  for s = 0 to t.k do
    Padded.set t.slots (slot_index t ~pid s) Ident.null
  done;
  Slot_pool.reset t.free.(pid);
  Orphanage.put t.orphans (Retire_queue.take t.retired.(pid))

let reclamation_frontier _t = None

let drain_all t = Orphanage.drain_all t.orphans t.retired
