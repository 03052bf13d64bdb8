let name = "HP"
let om = Obs.Scheme_metrics.v name
let is_protected_region = false
let confirm_is_trivial = false
let requires_validation = true

type guard = int
(* A guard is the thread-local slot index: 0..k-1 from the free pool,
   k for the reserved slot. *)

type t = {
  k : int; (* [k], [ann] and [free] are the slot table's, flat *)
  ann : Ident.t Padded.t;
  free : Slot_pool.t array;
  s : Ident.t Slots.t;
  r : Reclaimer.t array;
}

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  let reads = [ `Cleanup_freq; `Slots_per_thread ] in
  let knobs = Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~reads ~scheme:name () in
  let s = Slots.create ~k:knobs.slots_per_thread ~max_threads Ident.null in
  let r = Reclaimer.create ~om ~every:(Slots.period s knobs.cleanup_freq) ~max_threads in
  { k = s.k; ann = s.ann; free = s.free; s; r }

let max_threads t = Array.length t.free
let slots_per_thread t = t.k
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
      (* Sched.Atomic.set is seq_cst: the announcement is globally visible
         before the caller's revalidating re-read. *)
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

let release t ~pid g =
  Padded.set t.ann (Slots.index ~k:t.k ~pid g) Ident.null;
  if g < t.k then Slot_pool.give t.free.(pid) g

let announced_count t =
  Padded.fold (fun acc id -> if Ident.is_null id then acc else acc + 1) 0 t.ann

let is_announced t id = Padded.fold (fun acc a -> acc || Ident.equal a id) false t.ann

(* Whether [id] is among [ids.(0 .. i)]: a linear membership test beats
   hashing at this size, and identity tokens cannot be hashed stably
   under a moving GC. *)
let rec mem id ids i = i >= 0 && (Ident.equal (Array.unsafe_get ids i) id || mem id ids (i - 1))

(* Announced nowhere in the scan's snapshot. *)
let unannounced (a : Ident.t Slots.snapshot) d = not (mem (Deferred.id d) a.vals (a.n - 1))

let retire t ~pid d = Reclaimer.retire t.r.(pid) ~pid ~meta:0 d

(* Entries are held back while their identity is announced anywhere. *)
let collect t ~pid r = Reclaimer.keep r unannounced (Slots.snapshot t.s ~pid)
let eject ?(force = false) t ~pid = Reclaimer.eject t.r.(pid) ~force ~pid collect t
let retired_count t ~pid = Reclaimer.retired_count t.r ~pid

let abandon t ~pid =
  Slots.clear t.s ~pid;
  Reclaimer.abandon t.r ~pid Deferred.Nil

let reclamation_frontier _t = None
let drain_all t = Reclaimer.drain_all t.r
