(* rc-lint fixture: in a protocol directory every atomic goes through
   Sched.Atomic; a Stdlib.Atomic path bypasses it. Never compiled. *)
let cheat () = Stdlib.Atomic.make 0
let fine () = Sched.Atomic.make 0
