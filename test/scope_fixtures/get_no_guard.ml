(* expect: int Ar\.managed.*expected of type.*Ar\.guard *)
(* Must not compile: [get] with no guard — a dereference nothing
   announced. *)
module Ar = Acquire_retire.Make (Smr.Hp)

let ar = Ar.create ~max_threads:1 ()
let cell = Sched.Atomic.make (Ar.alloc ar ~pid:0 0)

let value = Ar.scope ar ~pid:0 { f = (fun s () () -> Ar.get s (Sched.Atomic.get cell)) } () ()
