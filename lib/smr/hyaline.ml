let name = "Hyaline"
let om = Obs.Scheme_metrics.v name
let is_protected_region = true
let confirm_is_trivial = true
let requires_validation = false

type guard = int

type rnode = Nil | Node of { refs : int Sched.Atomic.t; op : Deferred.t; next : rnode }
type hstate = { active : int; head : rnode }

type t = {
  max_threads : int;
  state : hstate Sched.Atomic.t;
  snapshot : rnode Padded.t; (* head observed at each thread's enter *)
  in_cs : bool Padded.t; (* whether each thread holds an open critical section *)
  safe : Deferred.t Sched.Atomic.t;
      (* entries whose stamp reached zero: a stack threaded through their links *)
  pending : int Sched.Atomic.t; (* retired - ejected, diagnostics *)
}

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  (* Hyaline's batch ref-stamping has no epoch clock, no scan
     amortization, and no announcement slots: every tuning knob is
     meaningless here. The values are still validated (a nonsense
     value is a bug even when unread) and the misuse is counted. *)
  List.iter
    (fun (knob, v) ->
      if Option.is_some v then Obs.Scheme_metrics.on_knob_ignored om ~knob)
    [
      ("epoch_freq", epoch_freq);
      ("cleanup_freq", cleanup_freq);
      ("slots_per_thread", slots_per_thread);
    ];
  ignore (Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~scheme:name ());
  {
    max_threads;
    state = Sched.Atomic.make { active = 0; head = Nil };
    snapshot = Padded.create max_threads Nil;
    in_cs = Padded.create max_threads false;
    safe = Sched.Atomic.make Deferred.Nil;
    pending = Sched.Atomic.make 0;
  }

let max_threads t = t.max_threads
let active_count t = (Sched.Atomic.get t.state).active

let rec push_safe t op =
  let cur = Sched.Atomic.get t.safe in
  Deferred.set_next op cur;
  if not (Sched.Atomic.compare_and_set t.safe cur op) then push_safe t op

let rec begin_critical_section t ~pid =
  let s = Sched.Atomic.get t.state in
  if Sched.Atomic.compare_and_set t.state s { s with active = s.active + 1 } then begin
    Padded.set t.snapshot pid s.head;
    Padded.set t.in_cs pid true
  end
  else begin
    Domain.cpu_relax ();
    begin_critical_section t ~pid
  end

(* Decrement the stamp of every entry retired during our operation:
   the list segment from [upto] (the head when we left) down to, but
   excluding, [stop] (the head when we entered). Whoever zeroes a stamp
   owns the entry. *)
let rec decrement_segment t upto stop =
  if upto != stop then
    match upto with
    | Nil -> ()
    | Node n ->
        if Sched.Atomic.fetch_and_add n.refs (-1) = 1 then push_safe t n.op;
        decrement_segment t n.next stop

let rec end_critical_section t ~pid =
  let s = Sched.Atomic.get t.state in
  let active' = s.active - 1 in
  (* The last operation out truncates the global list: every remaining
     entry's stamp is held only by operations that already left or by
     us, so nobody else will need to reach it through the state. *)
  let head' = if active' = 0 then Nil else s.head in
  if Sched.Atomic.compare_and_set t.state s { active = active'; head = head' } then begin
    decrement_segment t s.head (Padded.get t.snapshot pid);
    Padded.set t.snapshot pid Nil;
    Padded.set t.in_cs pid false
  end
  else begin
    Domain.cpu_relax ();
    end_critical_section t ~pid
  end

let alloc_hook _t ~pid:_ = 0

let try_acquire _t ~pid _id =
  Obs.Scheme_metrics.on_acquire om ~pid;
  Some 0

let acquire _t ~pid _id =
  Obs.Scheme_metrics.on_acquire om ~pid;
  0

let confirm _t ~pid:_ _g _id = true
let release _t ~pid:_ _g = ()

let rec retire t ~pid op =
  let s = Sched.Atomic.get t.state in
  if s.active = 0 then
    (* No reader can hold the object; it is immediately safe. *)
    if Sched.Atomic.compare_and_set t.state s s then push_safe t op else retire t ~pid op
  else begin
    let node = Node { refs = Sched.Atomic.make s.active; op; next = s.head } in
    if not (Sched.Atomic.compare_and_set t.state s { s with head = node }) then retire t ~pid op
  end

let retire t ~pid op =
  Deferred.set_stamp op (Obs.Scheme_metrics.on_retire om ~pid);
  ignore (Sched.Atomic.fetch_and_add t.pending 1);
  retire t ~pid op

let eject ?force:_ t ~pid =
  match Sched.Atomic.get t.safe with
  | Deferred.Nil -> Deferred.Nil
  | Deferred.D _ ->
      let ops = Sched.Atomic.exchange t.safe Deferred.Nil in
      let n = Deferred.length ops in
      ignore (Sched.Atomic.fetch_and_add t.pending (-n));
      Obs.Scheme_metrics.on_eject om ~pid n;
      ops

(* Pending entries are global rather than per-thread: report the whole
   count under pid 0 and none elsewhere, so the per-pid counts sum to
   the backlog. *)
let retired_count t ~pid = if pid = 0 then Sched.Atomic.get t.pending else 0

(* A crashed thread holds no private retired entries (retirement is
   global here), but an open critical section pins a unit of every
   stamp retired since it entered. Leaving on its behalf releases them
   — the adoption this scheme gets for free from its batch counting. *)
let abandon t ~pid =
  Obs.Scheme_metrics.on_abandon om ~pid;
  if Padded.get t.in_cs pid then end_critical_section t ~pid

let reclamation_frontier _t = None

let drain_all t = eject ~force:true t ~pid:0
