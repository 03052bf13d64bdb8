let name = "PTB"
let om = Obs.Scheme_metrics.v name
let is_protected_region = false
let confirm_is_trivial = false
let requires_validation = true

type guard = int

type t = {
  max_threads : int;
  k : int;
  cleanup_every : int; (* as HP's: cleanup_freq, floored at twice the announcements *)
  slots : Ident.t Padded.t; (* posted values, (k+1) per thread *)
  handoffs : Deferred.t Padded.t; (* one per physical slot; [Nil] when empty *)
  free : Slot_pool.t array; (* per-thread free local slot indices; owner only *)
  retired : Retire_queue.t array;
  out : Retire_queue.t array; (* each pid's eject batch, built by its scan *)
  orphans : Orphanage.t;
}

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  (match epoch_freq with
  | Some _ -> Obs.Scheme_metrics.on_knob_ignored om ~knob:"epoch_freq"
  | None -> ());
  let knobs = Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~scheme:name () in
  let k = knobs.slots_per_thread in
  {
    max_threads;
    k;
    cleanup_every = max knobs.cleanup_freq (2 * (k + 1) * max_threads);
    slots = Padded.create ((k + 1) * max_threads) Ident.null;
    handoffs = Padded.create ((k + 1) * max_threads) Deferred.Nil;
    free = Array.init max_threads (fun _ -> Slot_pool.create k);
    retired = Array.init max_threads (fun _ -> Retire_queue.create ());
    out = Array.init max_threads (fun _ -> Retire_queue.create ());
    orphans = Orphanage.create ();
  }

let max_threads t = t.max_threads
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

(* Releasing a guard inherits its handed-off buck: the entry returns
   to the releaser's retired queue and is decided at the next scan. *)
let release t ~pid g =
  let idx = slot_index t ~pid g in
  Padded.set t.slots idx Ident.null;
  (match Padded.exchange t.handoffs idx Deferred.Nil with
  | Deferred.D _ as d -> Retire_queue.push t.retired.(pid) d
  | Deferred.Nil -> ());
  if g < t.k then Slot_pool.give t.free.(pid) g

let retire t ~pid d =
  Deferred.set_stamp d (Obs.Scheme_metrics.on_retire om ~pid);
  Retire_queue.push t.retired.(pid) d

(* The first physical slot from [i] on that posts [id], or -1. *)
let rec posted t id i total =
  if i >= total then -1
  else if Ident.equal (Padded.get t.slots i) id then i
  else posted t id (i + 1) total

(* Liberate one detached entry [d]: unguarded, it is safe and joins
   [pid]'s batch; guarded, it is handed off to the guard that pins it
   (at most one buck per guard — otherwise it stays queued). *)
let liberate t ~pid ~total d =
  let id = Deferred.id d in
  let i = posted t id 0 total in
  if i < 0 then Retire_queue.push t.out.(pid) d
  else if Padded.compare_and_set t.handoffs i Deferred.Nil d then begin
    (* Hand-off succeeded; but if the guard was released in the
       meantime nobody will inherit the buck, so take it back. *)
    if not (Ident.equal (Padded.get t.slots i) id) then
      match Padded.exchange t.handoffs i Deferred.Nil with
      | Deferred.Nil -> (* a releaser inherited the buck *) ()
      | d' when Ident.equal (Deferred.id d') id ->
          (* Reclaimed our own hand-off: the guard is gone, the entry
             is unprotected. *)
          Retire_queue.push t.out.(pid) d'
      | other ->
          (* A releaser already took ours and a different buck landed
             in the slot: adopt it. *)
          Retire_queue.push t.retired.(pid) other
  end
  else Retire_queue.push t.retired.(pid) d

let rec liberate_all t ~pid ~total d =
  match d with
  | Deferred.Nil -> ()
  | Deferred.D _ ->
      let rest = Deferred.next d in
      Deferred.set_next d Deferred.Nil;
      liberate t ~pid ~total d;
      liberate_all t ~pid ~total rest

let eject ?(force = false) t ~pid =
  let q = t.retired.(pid) in
  if force || Retire_queue.due q ~every:t.cleanup_every then begin
    let total = (t.k + 1) * t.max_threads in
    let mine = Retire_queue.take q in
    liberate_all t ~pid ~total (Orphanage.take_all t.orphans);
    liberate_all t ~pid ~total mine;
    let out = t.out.(pid) in
    Obs.Scheme_metrics.on_eject om ~pid (Retire_queue.size out);
    Retire_queue.take out
  end
  else Deferred.Nil

let retired_count t ~pid = Retire_queue.size t.retired.(pid)

(* Empty every hand-off slot, the last slot's buck first in the returned
   chain. *)
let take_handoffs t =
  let parked = ref Deferred.Nil in
  for idx = 0 to Padded.length t.handoffs - 1 do
    match Padded.exchange t.handoffs idx Deferred.Nil with
    | Deferred.Nil -> ()
    | d ->
        Deferred.set_next d !parked;
        parked := d
  done;
  !parked

let abandon t ~pid =
  Obs.Scheme_metrics.on_abandon om ~pid;
  (* Clear the dead thread's posted guards, reclaiming any buck that
     was handed off to them along the way. *)
  let parked = ref Deferred.Nil in
  for s = 0 to t.k do
    let idx = slot_index t ~pid s in
    Padded.set t.slots idx Ident.null;
    match Padded.exchange t.handoffs idx Deferred.Nil with
    | Deferred.Nil -> ()
    | d ->
        Deferred.set_next d !parked;
        parked := d
  done;
  Slot_pool.reset t.free.(pid);
  Orphanage.put t.orphans (Deferred.concat !parked (Retire_queue.take t.retired.(pid)))

let reclamation_frontier _t = None

let drain_all t =
  (* At quiescence no guard is held and a released guard has taken its
     hand-off back, so sweeping every hand-off slot is defensive: it
     finds a buck only where a guard was left unreleased. *)
  let parked = take_handoffs t in
  Deferred.concat parked (Orphanage.drain_all t.orphans t.retired)
