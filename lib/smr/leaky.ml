let name = "None"
let om = Obs.Scheme_metrics.v name
let is_protected_region = true
let confirm_is_trivial = true
let requires_validation = false

type guard = int

type t = {
  max_threads : int;
  knobs : Knobs.t;
  retired : Retire_queue.t array;
  orphans : Orphanage.t;
}

let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  (* The leaky baseline never reclaims, so every knob is ignored — but
     a caller tuning it is confused, and an out-of-range value is a bug
     regardless: validate uniformly and count the misuse. *)
  List.iter
    (fun (knob, v) ->
      if Option.is_some v then Obs.Scheme_metrics.on_knob_ignored om ~knob)
    [
      ("epoch_freq", epoch_freq);
      ("cleanup_freq", cleanup_freq);
      ("slots_per_thread", slots_per_thread);
    ];
  {
    max_threads;
    knobs = Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~scheme:name ();
    retired = Array.init max_threads (fun _ -> Retire_queue.create ());
    orphans = Orphanage.create ();
  }

let max_threads t = t.max_threads
let knobs t = t.knobs
let force_advance _t = ()
let begin_critical_section _t ~pid:_ = ()
let end_critical_section _t ~pid:_ = ()
let alloc_hook _t ~pid:_ = 0
let try_acquire _t ~pid _id =
  Obs.Scheme_metrics.on_acquire om ~pid;
  Some 0

let acquire _t ~pid _id =
  Obs.Scheme_metrics.on_acquire om ~pid;
  0

let confirm _t ~pid:_ _g _id = true
let release _t ~pid:_ _g = ()

let retire t ~pid d =
  Deferred.set_stamp d (Obs.Scheme_metrics.on_retire om ~pid);
  Retire_queue.push t.retired.(pid) d

(* "Eject nothing, leak everything" is the scheme; still count the scan
   so the accounting identity (retire = eject.ops + backlog) is
   checkable for it too. *)
let eject ?force:_ _t ~pid =
  Obs.Scheme_metrics.on_eject om ~pid 0;
  Deferred.Nil

let retired_count t ~pid = Retire_queue.size t.retired.(pid)

(* Nothing is announced and nothing ejects before teardown, but the
   parked entries still need a live owner for [drain_all] to find. *)
let abandon t ~pid =
  Obs.Scheme_metrics.on_abandon om ~pid;
  Orphanage.put t.orphans (Retire_queue.take t.retired.(pid))
let reclamation_frontier _t = None

let drain_all t = Orphanage.drain_all t.orphans t.retired
