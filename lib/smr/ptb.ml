let name = "PTB"
let om = Obs.Scheme_metrics.v name
let is_protected_region = false
let confirm_is_trivial = false
let requires_validation = true

type guard = int

type t = {
  k : int; (* [k], [ann] and [free] are the slot table's, flat *)
  ann : Ident.t Padded.t; (* posted values *)
  free : Slot_pool.t array;
  handoffs : Deferred.t Padded.t; (* one per physical slot; [Nil] when empty *)
  s : Ident.t Slots.t;
  r : Reclaimer.t array;
}

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  let reads = [ `Cleanup_freq; `Slots_per_thread ] in
  let knobs = Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~reads ~scheme:name () in
  let s = Slots.create ~k:knobs.slots_per_thread ~max_threads Ident.null in
  {
    k = s.k;
    ann = s.ann;
    free = s.free;
    handoffs = Padded.create (Padded.length s.ann) Deferred.Nil;
    s;
    r = Reclaimer.create ~om ~every:(Slots.period s knobs.cleanup_freq) ~max_threads;
  }

let max_threads t = Array.length t.free
let begin_critical_section _t ~pid:_ = ()
let end_critical_section _t ~pid:_ = ()
let alloc_hook _t ~pid:_ = 0

let try_acquire t ~pid id =
  match Slot_pool.take t.free.(pid) with
  | None ->
      Obs.Scheme_metrics.on_slot_exhausted om ~pid;
      None
  | Some l as g ->
      Obs.Scheme_metrics.on_acquire om ~pid;
      Padded.set t.ann (Slots.index ~k:t.k ~pid l) id;
      g

let acquire t ~pid id =
  Obs.Scheme_metrics.on_acquire om ~pid;
  Padded.set t.ann (Slots.index ~k:t.k ~pid t.k) id;
  t.k

let confirm t ~pid g id =
  let idx = Slots.index ~k:t.k ~pid g in
  if Ident.equal (Padded.get t.ann idx) id then true
  else begin
    Obs.Scheme_metrics.on_confirm_retry om ~pid;
    Padded.set t.ann idx id;
    false
  end

(* Releasing a guard inherits its handed-off buck: the entry returns
   to the releaser's retired queue and is decided at the next scan. *)
let release t ~pid g =
  let idx = Slots.index ~k:t.k ~pid g in
  Padded.set t.ann idx Ident.null;
  (match Padded.exchange t.handoffs idx Deferred.Nil with
  | Deferred.D _ as d -> Reclaimer.requeue t.r.(pid) d
  | Deferred.Nil -> ());
  if g < t.k then Slot_pool.give t.free.(pid) g

let retire t ~pid d = Reclaimer.retire t.r.(pid) ~pid ~meta:0 d

(* The first physical slot from [i] on that posts [id], or -1. *)
let rec posted t id i total =
  if i >= total then -1
  else if Ident.equal (Padded.get t.ann i) id then i
  else posted t id (i + 1) total

(* Liberate one detached entry [d]: unguarded, it is safe and joins
   [r]'s batch; guarded, it is handed off to the guard that pins it
   (at most one buck per guard — otherwise it stays queued). *)
let liberate t (r : Reclaimer.t) ~total d =
  let id = Deferred.id d in
  let i = posted t id 0 total in
  if i < 0 then Retire_queue.push r.out d
  else if Padded.compare_and_set t.handoffs i Deferred.Nil d then begin
    (* Hand-off succeeded; but if the guard was released in the
       meantime nobody will inherit the buck, so take it back. *)
    if not (Ident.equal (Padded.get t.ann i) id) then
      match Padded.exchange t.handoffs i Deferred.Nil with
      | Deferred.Nil -> (* a releaser inherited the buck *) ()
      | d' when Ident.equal (Deferred.id d') id ->
          (* Reclaimed our own hand-off: the guard is gone, the entry
             is unprotected. *)
          Retire_queue.push r.out d'
      | other ->
          (* A releaser already took ours and a different buck landed
             in the slot: adopt it. *)
          Reclaimer.requeue r other
  end
  else Reclaimer.requeue r d

let rec liberate_all t r ~total d =
  match d with
  | Deferred.Nil -> ()
  | Deferred.D _ ->
      let rest = Deferred.next d in
      Deferred.set_next d Deferred.Nil;
      liberate t r ~total d;
      liberate_all t r ~total rest

let collect t ~pid:_ (r : Reclaimer.t) =
  let total = Padded.length t.ann in
  let mine = Retire_queue.take r.retired in
  liberate_all t r ~total (Orphanage.take_all r.orphans);
  liberate_all t r ~total mine

let eject ?(force = false) t ~pid = Reclaimer.eject t.r.(pid) ~force ~pid collect t
let retired_count t ~pid = Reclaimer.retired_count t.r ~pid

(* Empty the hand-off slots [lo .. hi], the last slot's buck first in
   the returned chain. *)
let take_handoffs t lo hi =
  let parked = ref Deferred.Nil in
  for idx = lo to hi do
    match Padded.exchange t.handoffs idx Deferred.Nil with
    | Deferred.Nil -> ()
    | d ->
        Deferred.set_next d !parked;
        parked := d
  done;
  !parked

(* Clear the dead thread's posted guards, then reclaim any buck that
   was handed off to them along the way. *)
let abandon t ~pid =
  Slots.clear t.s ~pid;
  let held = take_handoffs t (Slots.index ~k:t.k ~pid 0) (Slots.index ~k:t.k ~pid t.k) in
  Reclaimer.abandon t.r ~pid held

let reclamation_frontier _t = None

let drain_all t =
  (* At quiescence no guard is held and a released guard has taken its
     hand-off back, so sweeping every hand-off slot is defensive: it
     finds a buck only where a guard was left unreleased. *)
  let parked = take_handoffs t 0 (Padded.length t.handoffs - 1) in
  Deferred.concat parked (Reclaimer.drain_all t.r)
