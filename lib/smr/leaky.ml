let name = "None"
let om = Obs.Scheme_metrics.v name
let is_protected_region = true
let confirm_is_trivial = true
let requires_validation = false

type guard = int

type t = { max_threads : int; r : Reclaimer.t array }

(* The leaky baseline never reclaims, so every knob is ignored — but a
   caller tuning it is confused, and an out-of-range value is a bug
   regardless: validate uniformly and count the misuse. *)
let create ?epoch_freq ?cleanup_freq ?slots_per_thread ~max_threads () =
  ignore (Knobs.create ?epoch_freq ?cleanup_freq ?slots_per_thread ~reads:[] ~scheme:name ());
  (* A period of 0 makes every eject a scan. *)
  { max_threads; r = Reclaimer.create ~om ~every:0 ~max_threads }

let max_threads t = t.max_threads
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

let retire t ~pid d = Reclaimer.retire t.r.(pid) ~pid ~meta:0 d

(* "Eject nothing, leak everything" is the scheme; still count the scan
   so the accounting identity (retire = eject.ops + backlog) is
   checkable for it too. *)
let collect () ~pid:_ _r = ()
let eject ?(force = false) t ~pid = Reclaimer.eject t.r.(pid) ~force ~pid collect ()
let retired_count t ~pid = Reclaimer.retired_count t.r ~pid

(* Nothing is announced and nothing ejects before teardown, but the
   parked entries still need a live owner for [drain_all] to find. *)
let abandon t ~pid = Reclaimer.abandon t.r ~pid Deferred.Nil
let reclamation_frontier _t = None
let drain_all t = Reclaimer.drain_all t.r
