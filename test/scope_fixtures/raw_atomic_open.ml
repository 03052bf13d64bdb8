(* expect: Error (alert raw_atomic) *)
(* Must not compile: a raw [open Atomic] hides the steps as well as a
   qualified call does. *)
open Atomic

let spin r = while not (compare_and_set r 0 1) do () done
