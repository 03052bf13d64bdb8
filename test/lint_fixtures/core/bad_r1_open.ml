(* rc-lint fixture: a raw [open Atomic] in a protocol directory is just
   as blinding as a qualified call. Never compiled. *)
open Atomic

let spin r = while not (compare_and_set r 0 1) do () done
