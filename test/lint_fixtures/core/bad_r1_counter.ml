(* rc-lint fixture: under a protocol directory (core/), so R1 applies.
   Raw Atomic calls must be flagged — the §8 explorer cannot interpose
   on them. Never compiled. *)
let counter = Atomic.make 0
let bump () = Atomic.fetch_and_add counter 1
