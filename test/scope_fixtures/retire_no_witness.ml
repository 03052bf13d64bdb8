(* expect: int Ar\.managed.*expected of type.*Ar\.unlinked *)
(* Must not compile: [retire_free] on a bare managed node, with no
   witness that a CAS of this scope unlinked it. *)
module Ar = Acquire_retire.Make (Smr.Hp)

let ar = Ar.create ~max_threads:1 ()
let cell = Sched.Atomic.make (Ar.alloc ar ~pid:0 0)

let () =
  Ar.scope ar ~pid:0
    {
      f =
        (fun s () () ->
          let m = Ar.protect s ~ident:Ar.ident cell in
          let g = Ar.guard s in
          Ar.retire_free s m g);
    } () ()
