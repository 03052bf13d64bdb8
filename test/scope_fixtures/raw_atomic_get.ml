(* expect: Error (alert raw_atomic) *)
(* Must not compile: a data structure's links go through Sched.Atomic
   like any other protocol atomic. A raw [Atomic.get] of a link hides
   that read from the explorer and the atomics counters. *)
type node = { next : node option Sched.Atomic.t }

let next_of node = Atomic.get node.next
let fine node = Sched.Atomic.get node.next
