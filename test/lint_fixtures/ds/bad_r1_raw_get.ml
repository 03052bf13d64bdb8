(* rc-lint fixture: a data structure's links go through Sched.Atomic
   like any other protocol atomic; a raw [Atomic.get] on a link hides
   that read from the explorer and the atomics counters. Never
   compiled. *)
let next_of node = Atomic.get node.next
let fine node = Sched.Atomic.get node.next
