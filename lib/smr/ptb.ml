let name = "PTB"
let om = Obs.Scheme_metrics.v name
let is_protected_region = false
let confirm_is_trivial = false
let requires_validation = true

type guard = int
type handoff = (Ident.t * Deferred.t) option

type t = {
  max_threads : int;
  k : int;
  knobs : Knobs.t;
  cleanup_floor : int; (* amortization floor: 2 * announcements *)
  slots : Ident.t Padded.t; (* posted values, (k+1) per thread *)
  handoffs : handoff Padded.t; (* one per physical slot *)
  free : Slot_pool.t array; (* per-thread free local slot indices; owner only *)
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
    handoffs = Padded.create ((k + 1) * max_threads) None;
    free = Array.init max_threads (fun _ -> Slot_pool.create k);
    retired = Array.init max_threads (fun _ -> Retire_queue.create ());
    orphans = Orphanage.create ();
  }

(* See Hp.effective_cleanup_freq. *)
let effective_cleanup_freq t = max (Knobs.cleanup_freq t.knobs) t.cleanup_floor

let max_threads t = t.max_threads
let knobs t = t.knobs
let force_advance _t = ()
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
  (match Padded.exchange t.handoffs idx None with
  | Some (id, op) -> Retire_queue.push t.retired.(pid) id op
  | None -> ());
  if g < t.k then Slot_pool.give t.free.(pid) g

let retire t ~pid id ~birth:_ op =
  let op = Obs.Scheme_metrics.on_retire om ~pid op in
  Retire_queue.push t.retired.(pid) id op

(* Liberate: unguarded entries are safe; guarded ones are handed off to
   the guard that pins them (at most one buck per guard — otherwise the
   entry stays queued). *)
let eject ?(force = false) t ~pid =
  let q = t.retired.(pid) in
  if
    force || Knobs.sync_scan t.knobs
    || Retire_queue.due q ~every:(effective_cleanup_freq t)
  then begin
    let total = (t.k + 1) * t.max_threads in
    let safe = ref [] in
    let keep = ref [] in
    List.iter
      (fun ((id, op) as entry) ->
        let posted_at = ref (-1) in
        (try
           for i = 0 to total - 1 do
             if Ident.equal (Padded.get t.slots i) id then begin
               posted_at := i;
               raise Exit
             end
           done
         with Exit -> ());
        if !posted_at < 0 then safe := (id, op) :: !safe
        else begin
          let i = !posted_at in
          if Padded.compare_and_set t.handoffs i None (Some entry) then begin
            (* Hand-off succeeded; but if the guard was released in the
               meantime nobody will inherit the buck, so take it back. *)
            if not (Ident.equal (Padded.get t.slots i) id) then begin
              match Padded.exchange t.handoffs i None with
              | Some (id', op') when Ident.equal id' id ->
                  (* Reclaimed our own hand-off: the guard is gone, the
                     entry is unprotected. *)
                  safe := (id', op') :: !safe
              | Some other ->
                  (* A releaser already took ours and a different buck
                     landed in the slot: adopt it. *)
                  keep := other :: !keep
              | None -> (* a releaser inherited the buck *) ()
            end
          end
          else keep := entry :: !keep
        end)
      (Orphanage.take_all t.orphans @ Retire_queue.drain_with_meta q);
    (* Cap the released batch; entries past the cap stay unprotected
       and go back on the queue for the next scan. *)
    let cap = if force then max_int else Knobs.batch_cap t.knobs in
    let out = ref [] in
    List.iteri
      (fun i entry -> if i < cap then out := entry :: !out else keep := entry :: !keep)
      (List.rev !safe);
    List.iter (fun (id, op) -> Retire_queue.push q id op) (List.rev !keep);
    Obs.Scheme_metrics.on_eject om ~pid (List.rev_map snd !out)
  end
  else []

let retired_count t ~pid = Retire_queue.size t.retired.(pid)

let abandon t ~pid =
  Obs.Scheme_metrics.on_abandon om ~pid;
  (* Clear the dead thread's posted guards, reclaiming any buck that
     was handed off to them along the way. *)
  let parked = ref [] in
  for s = 0 to t.k do
    let idx = slot_index t ~pid s in
    Padded.set t.slots idx Ident.null;
    match Padded.exchange t.handoffs idx None with
    | Some entry -> parked := entry :: !parked
    | None -> ()
  done;
  Slot_pool.reset t.free.(pid);
  Orphanage.put t.orphans (!parked @ Retire_queue.drain_with_meta t.retired.(pid))

let reclamation_frontier _t = None

let drain_all t =
  (* Quiescent: every slot is unposted, but bucks may still sit in
     hand-off slots from guards released... released guards clear their
     hand-off, so only unreleased-but-quiescent slots could hold one;
     sweep them too. *)
  let parked = ref [] in
  for i = 0 to Padded.length t.handoffs - 1 do
    match Padded.exchange t.handoffs i None with
    | Some (_, op) -> parked := op :: !parked
    | None -> ()
  done;
  let parked = !parked in
  let orphaned = List.map snd (Orphanage.take_all t.orphans) in
  parked @ orphaned @ Array.fold_left (fun acc q -> acc @ Retire_queue.drain q) [] t.retired
