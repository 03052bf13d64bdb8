(* Opened first by every protocol library (see lib/sched/dune): this
   empty Atomic shadows Stdlib's, so a bare Atomic there is an error. *)
module Atomic = struct end
[@@alert
  raw_atomic
    "a raw Atomic bypasses Sched.Atomic: the schedule explorer and the \
     atomics counters cannot see this step. Use Sched.Atomic."]
