(* expect: Error (alert raw_atomic) *)
(* Must not compile: protocol code whose counter is a raw Atomic. The
   schedule explorer cannot interpose on its steps, and the atomics
   counters do not see them. *)
let counter = Atomic.make 0
let bump () = Atomic.fetch_and_add counter 1
